// The unified subscription layer (de/subscription.h): content filters
// and projections compiled through the fused query planner, per-subscriber
// QoS (window, history depth), the kernel's subscription registry, and —
// the satellite regression this suite pins down — unsubscribe racing a
// pending coalesced flush resolving deterministically (drain or drop,
// never a dangling slot or a late delivery).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "de/log.h"
#include "de/object.h"
#include "de/subscription.h"
#include "sim/clock.h"

namespace knactor::de {
namespace {

using common::Value;

constexpr sim::SimTime kWindow = 10 * sim::kMillisecond;

class SubscriptionTest : public ::testing::Test {
 protected:
  SubscriptionTest() : de_(clock_, ObjectDeProfile::instant()) {
    store_ = &de_.create_store("things");
  }

  Value obj(int n) {
    Value v = Value::object();
    v.set("n", Value(static_cast<std::int64_t>(n)));
    v.set("tag", Value("t"));
    return v;
  }

  SubscriptionSpec filtered(const std::string& filter) {
    SubscriptionSpec spec;
    spec.filter = filter;
    return spec;
  }

  sim::VirtualClock clock_;
  ObjectDe de_;
  ObjectStore* store_ = nullptr;
  std::vector<WatchEvent> events_;
  std::vector<WatchBatch> batches_;
};

TEST_F(SubscriptionTest, FilterDeliversOnlyMatchingCommits) {
  auto id = store_->subscribe(
      "svc", filtered("n > 5"),
      [this](const WatchEvent& e) { events_.push_back(e); });
  ASSERT_TRUE(id.ok());
  (void)store_->put_sync("svc", "low", obj(3));
  (void)store_->put_sync("svc", "high", obj(7));
  clock_.run_all();

  ASSERT_EQ(events_.size(), 1u);
  EXPECT_EQ(events_[0].object.key, "high");
  EXPECT_EQ(de_.stats().watch_events_filtered, 1u);
  const auto* info = de_.kernel().find_subscription(id.value());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->matched, 2u);
  EXPECT_EQ(info->filtered, 1u);
  EXPECT_EQ(info->delivered, 1u);
  EXPECT_DOUBLE_EQ(info->selectivity(), 0.5);
  EXPECT_EQ(info->filter, "n > 5");
}

TEST_F(SubscriptionTest, ProjectionRewritesDeliveredPayload) {
  SubscriptionSpec spec;
  spec.project = {"n"};
  auto id = store_->subscribe(
      "svc", spec, [this](const WatchEvent& e) { events_.push_back(e); });
  ASSERT_TRUE(id.ok());
  (void)store_->put_sync("svc", "k", obj(1));
  clock_.run_all();

  ASSERT_EQ(events_.size(), 1u);
  EXPECT_NE(events_[0].object.data->get("n"), nullptr);
  EXPECT_EQ(events_[0].object.data->get("tag"), nullptr);
  // The stored object keeps every field — only the delivery is projected.
  auto stored = store_->get_sync("svc", "k");
  ASSERT_TRUE(stored.ok());
  EXPECT_NE(stored.value().data->get("tag"), nullptr);
}

TEST_F(SubscriptionTest, ErroringPredicateNeverMatches) {
  // `missing` is absent from every payload, so it resolves to null and the
  // ordering yields null (falsy, not an error): the commit is rejected.
  auto id = store_->subscribe(
      "svc", filtered("missing > 5"),
      [this](const WatchEvent& e) { events_.push_back(e); });
  ASSERT_TRUE(id.ok());
  (void)store_->put_sync("svc", "k", obj(9));
  clock_.run_all();

  EXPECT_TRUE(events_.empty());
  EXPECT_EQ(de_.stats().watch_events_filtered, 1u);
}

TEST_F(SubscriptionTest, ErroringResidualNeverMatches) {
  // Ordering a string against a number is an evaluation error; an erroring
  // predicate deterministically rejects the commit, also as the residual
  // conjunct of an indexed equality.
  auto plain = store_->subscribe(
      "svc", filtered("tag > 5"),
      [this](const WatchEvent& e) { events_.push_back(e); });
  auto indexed = store_->subscribe(
      "svc", filtered("n == 9 and tag > 5"),
      [this](const WatchEvent& e) { events_.push_back(e); });
  ASSERT_TRUE(plain.ok() && indexed.ok());
  (void)store_->put_sync("svc", "k", obj(9));
  clock_.run_all();

  EXPECT_TRUE(events_.empty());
  EXPECT_EQ(de_.stats().watch_events_filtered, 2u);
}

TEST_F(SubscriptionTest, BadFilterFailsAtSubscribeTime) {
  auto id = store_->subscribe("svc", filtered("n >"),
                              [](const WatchEvent&) {});
  EXPECT_FALSE(id.ok());
}

TEST_F(SubscriptionTest, HistoryDepthCapsDeliveredBatch) {
  SubscriptionSpec spec;
  spec.filter = "n >= 0";
  spec.qos.window = kWindow;
  spec.qos.history_depth = 2;
  auto id = store_->subscribe_batch(
      "svc", spec, [this](const WatchBatch& b) { batches_.push_back(b); });
  ASSERT_TRUE(id.ok());
  (void)store_->put_sync("svc", "a", obj(1));
  (void)store_->put_sync("svc", "b", obj(2));
  (void)store_->put_sync("svc", "c", obj(3));
  (void)store_->put_sync("svc", "d", obj(4));
  clock_.run_all();

  ASSERT_EQ(batches_.size(), 1u);
  // KEEP_LAST semantics: the newest `history_depth` slots survive, the
  // oldest are dropped deterministically and accounted.
  ASSERT_EQ(batches_[0].events.size(), 2u);
  EXPECT_EQ(batches_[0].events[0].object.key, "c");
  EXPECT_EQ(batches_[0].events[1].object.key, "d");
  EXPECT_EQ(de_.stats().watch_events_dropped, 2u);
  const auto* info = de_.kernel().find_subscription(id.value());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->dropped, 2u);
}

// Satellite regression: unsubscribe while a coalescing window is still
// open. drain=true must deliver the pending buffer synchronously (same
// order a flush would have produced); the already-scheduled flush must
// then find nothing and no-op.
TEST_F(SubscriptionTest, UnsubscribeDrainDeliversPendingWindow) {
  SubscriptionSpec spec;
  spec.qos.window = kWindow;
  auto id = store_->subscribe_batch(
      "svc", spec, [this](const WatchBatch& b) { batches_.push_back(b); });
  ASSERT_TRUE(id.ok());
  (void)store_->put_sync("svc", "a", obj(1));
  (void)store_->put_sync("svc", "b", obj(2));
  ASSERT_TRUE(batches_.empty());  // window still open

  store_->unsubscribe(id.value(), /*drain=*/true);
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].events.size(), 2u);
  EXPECT_EQ(de_.kernel().find_subscription(id.value()), nullptr);

  clock_.run_all();  // the orphaned flush timer fires and must no-op
  EXPECT_EQ(batches_.size(), 1u);
  EXPECT_EQ(de_.stats().watch_events_dropped, 0u);
}

TEST_F(SubscriptionTest, UnsubscribeDropCountsPendingSlots) {
  SubscriptionSpec spec;
  spec.qos.window = kWindow;
  auto id = store_->subscribe_batch(
      "svc", spec, [this](const WatchBatch& b) { batches_.push_back(b); });
  ASSERT_TRUE(id.ok());
  (void)store_->put_sync("svc", "a", obj(1));
  (void)store_->put_sync("svc", "b", obj(2));

  store_->unsubscribe(id.value(), /*drain=*/false);
  clock_.run_all();
  EXPECT_TRUE(batches_.empty());
  EXPECT_EQ(de_.stats().watch_events_dropped, 2u);
}

// Unsubscribing without drain between the flush being scheduled and firing
// resolves to "no delivery, no dangling coalesce slot".
TEST_F(SubscriptionTest, UnwatchRacingPendingFlushIsDeterministic) {
  SubscriptionSpec spec;
  spec.qos.window = kWindow;
  auto id = store_->subscribe_batch(
      "svc", spec, [this](const WatchBatch& b) { batches_.push_back(b); });
  ASSERT_TRUE(id.ok());
  (void)store_->put_sync("svc", "a", obj(1));
  store_->unsubscribe(id.value(), /*drain=*/false);
  clock_.run_all();

  EXPECT_TRUE(batches_.empty());
  EXPECT_EQ(de_.stats().watch_events_dropped, 1u);
  // Re-subscribing reuses nothing from the dead buffer.
  ASSERT_TRUE(store_
                  ->subscribe_batch("svc", spec,
                                    [this](const WatchBatch& b) {
                                      batches_.push_back(b);
                                    })
                  .ok());
  (void)store_->put_sync("svc", "b", obj(2));
  clock_.run_all();
  ASSERT_EQ(batches_.size(), 1u);
  EXPECT_EQ(batches_[0].events.size(), 1u);
}

TEST_F(SubscriptionTest, SubscribeDeniedByRbac) {
  de_.rbac().set_enabled(true);
  auto before = de_.stats().permission_denials;
  auto id = store_->subscribe("nobody", filtered("n > 0"),
                              [](const WatchEvent&) {});
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(de_.stats().permission_denials, before + 1);
}

TEST_F(SubscriptionTest, RegistryListsContractAndUnregisters) {
  SubscriptionSpec spec;
  spec.filter = "n > 0";
  spec.project = {"n"};
  spec.qos.window = kWindow;
  spec.qos.deadline = 50;
  spec.qos.stage = "hot";
  auto id = store_->subscribe_batch("svc", spec, [](const WatchBatch&) {});
  ASSERT_TRUE(id.ok());
  const auto* info = de_.kernel().find_subscription(id.value());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->store, "things");
  EXPECT_EQ(info->principal, "svc");
  EXPECT_TRUE(info->projected);
  EXPECT_TRUE(info->batched);
  EXPECT_EQ(info->deadline, 50);
  EXPECT_EQ(info->stage, "hot");
  store_->unsubscribe(id.value(), /*drain=*/false);
  EXPECT_EQ(de_.kernel().find_subscription(id.value()), nullptr);
}

// Indexed matching: the first equality conjunct of the top-level `and`
// chain becomes the subscription's index key; everything else scans.
TEST(SubscriptionIndexKey, CompilesFromEqualityConjuncts) {
  auto key_of = [](const std::string& filter) {
    SubscriptionSpec spec;
    spec.filter = filter;
    auto sub = CompiledSubscription::compile(spec);
    EXPECT_TRUE(sub.ok()) << filter;
    const auto* key = sub.value()->index_key();
    return key == nullptr ? std::string("scan")
                          : key->field + "#" +
                                std::to_string(key->values.size());
  };
  EXPECT_EQ(key_of("bucket == 3"), "bucket#1");
  EXPECT_EQ(key_of("\"a\" == region"), "region#1");
  EXPECT_EQ(key_of("tier in [1, 2.5, \"x\", True, None]"), "tier#5");
  EXPECT_EQ(key_of("n > 2 and (k == 1 and m == 2)"), "k#1");
  EXPECT_EQ(key_of("n > 2 and m == 2"), "m#1");
  EXPECT_EQ(key_of(""), "scan");
  EXPECT_EQ(key_of("n > 2"), "scan");
  EXPECT_EQ(key_of("n == 1 or m == 2"), "scan");
  EXPECT_EQ(key_of("n != 1"), "scan");
  EXPECT_EQ(key_of("this == 1"), "scan");
  EXPECT_EQ(key_of("a.b == 1"), "scan");
  EXPECT_EQ(key_of("n == -1"), "scan");
  EXPECT_EQ(key_of("n == m"), "scan");
  EXPECT_EQ(key_of("n == [1]"), "scan");
  EXPECT_EQ(key_of("n in [1, m]"), "scan");
  EXPECT_EQ(key_of("len(n) == 1"), "scan");
  EXPECT_EQ(key_of("not n == 1"), "scan");
}

TEST_F(SubscriptionTest, IndexedFilterSkipsEvaluationOnMiss) {
  auto id = store_->subscribe(
      "svc", filtered("n == 3"),
      [this](const WatchEvent& e) { events_.push_back(e); });
  ASSERT_TRUE(id.ok());
  (void)store_->put_sync("svc", "a", obj(3));
  (void)store_->put_sync("svc", "b", obj(4));
  (void)store_->put_sync("svc", "c", Value("not an object"));
  (void)store_->remove_sync("svc", "a");  // pre-delete payload: n == 3
  clock_.run_all();

  ASSERT_EQ(events_.size(), 2u);
  EXPECT_EQ(events_[1].type, WatchEventType::kDeleted);
  const auto* info = de_.kernel().find_subscription(id.value());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->matched, 4u);
  EXPECT_EQ(info->filtered, 2u);
  EXPECT_EQ(info->delivered, 2u);
  EXPECT_EQ(info->evaluated, 2u);  // the misses never ran the predicate
}

TEST_F(SubscriptionTest, IndexKeysNormaliseLikeEquality) {
  std::vector<std::string> got;
  auto sub = [&](const std::string& filter) {
    ASSERT_TRUE(store_
                    ->subscribe("svc", filtered(filter),
                                [&got, filter](const WatchEvent& e) {
                                  got.push_back(filter + "@" + e.object.key);
                                })
                    .ok());
  };
  sub("v == 1");
  sub("v == 0");
  sub("v == True");
  sub("v in [None, \"1\"]");
  auto put = [&](const std::string& key, Value v) {
    Value o = Value::object();
    o.set("v", std::move(v));
    (void)store_->put_sync("svc", key, std::move(o));
  };
  put("int", Value(1));
  put("dbl", Value(1.0));
  put("negzero", Value(-0.0));
  put("bool", Value(true));
  put("str", Value("1"));
  put("arr", Value::array({1}));
  (void)store_->put_sync("svc", "nofield", Value::object());
  clock_.run_all();

  EXPECT_EQ(got, (std::vector<std::string>{
                     "v == 1@int", "v == 1@dbl", "v == 0@negzero",
                     "v == True@bool", "v in [None, \"1\"]@str",
                     "v in [None, \"1\"]@nofield"}));
}

// Log-pool subscriptions: the same compiled filter/projection surface on
// the append path, delivering synchronously at commit.
class LogSubscriptionTest : public ::testing::Test {
 protected:
  Value record(const char* device, double kwh) {
    Value v = Value::object();
    v.set("device", Value(device));
    v.set("kwh", Value(kwh));
    return v;
  }

  sim::VirtualClock clock_;
  LogDe de_{clock_, LogDeProfile::instant()};
};

TEST_F(LogSubscriptionTest, FilteredRecordCallbacks) {
  LogPool& pool = de_.create_pool("p");
  SubscriptionSpec spec;
  spec.filter = "kwh > 5";
  std::vector<LogRecord> got;
  auto id = pool.subscribe("svc", spec,
                           [&](const LogRecord& r) { got.push_back(r); });
  ASSERT_TRUE(id.ok());
  (void)pool.append_sync("svc", record("a", 2.0));
  (void)pool.append_sync("svc", record("b", 9.0));

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].data->get("device")->as_string(), "b");
  EXPECT_EQ(de_.stats().records_filtered, 1u);
  EXPECT_EQ(de_.stats().sub_deliveries, 1u);
  const auto* info = de_.kernel().find_subscription(id.value());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->matched, 2u);
  EXPECT_EQ(info->filtered, 1u);
}

TEST_F(LogSubscriptionTest, UnsubscribeStopsDelivery) {
  LogPool& pool = de_.create_pool("p");
  std::size_t calls = 0;
  auto id = pool.subscribe("svc", SubscriptionSpec{},
                           [&](const LogRecord&) { ++calls; });
  ASSERT_TRUE(id.ok());
  (void)pool.append_sync("svc", record("a", 1.0));
  EXPECT_EQ(calls, 1u);
  pool.unsubscribe(id.value());
  (void)pool.append_sync("svc", record("b", 2.0));
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(de_.kernel().find_subscription(id.value()), nullptr);
}

// A callback that unsubscribes itself mid-walk must neither crash nor
// skip the next subscriber; it misses every later record.
TEST_F(LogSubscriptionTest, UnsubscribeInsideCallback) {
  LogPool& pool = de_.create_pool("p");
  std::size_t first_calls = 0;
  std::size_t second_calls = 0;
  std::uint64_t first_id = 0;
  auto first = pool.subscribe("svc", SubscriptionSpec{},
                              [&](const LogRecord&) {
                                ++first_calls;
                                pool.unsubscribe(first_id);
                              });
  ASSERT_TRUE(first.ok());
  first_id = first.value();
  ASSERT_TRUE(pool.subscribe("svc", SubscriptionSpec{},
                             [&](const LogRecord&) { ++second_calls; })
                  .ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.append_batch_sync("svc", {record("a", 1.0)}).ok());
  }
  EXPECT_EQ(first_calls, 1u);
  EXPECT_EQ(second_calls, 3u);
  EXPECT_EQ(de_.kernel().find_subscription(first_id), nullptr);
}

// A subscriber added from inside a callback starts with the next record;
// one removed before its turn misses the record in flight.
TEST_F(LogSubscriptionTest, SubscribeInsideCallback) {
  LogPool& pool = de_.create_pool("p");
  std::vector<std::string> got;
  std::uint64_t victim = 0;
  bool added = false;
  auto log_as = [&got](std::string who) {
    return [&got, who](const LogRecord& r) {
      got.push_back(who + ":" + r.data->get("device")->as_string());
    };
  };
  auto first = pool.subscribe(
      "svc", SubscriptionSpec{}, [&](const LogRecord& r) {
        log_as("first")(r);
        if (added) return;
        added = true;
        pool.unsubscribe(victim);
        ASSERT_TRUE(pool.subscribe("svc", SubscriptionSpec{}, log_as("late"))
                        .ok());
      });
  ASSERT_TRUE(first.ok());
  auto second = pool.subscribe("svc", SubscriptionSpec{}, log_as("victim"));
  ASSERT_TRUE(second.ok());
  victim = second.value();
  (void)pool.append_batch_sync("svc", {record("a", 1.0), record("b", 2.0)});
  (void)pool.append_sync("svc", record("c", 3.0));

  EXPECT_EQ(got, (std::vector<std::string>{"first:a", "first:b", "late:b",
                                           "first:c", "late:c"}));
}

}  // namespace
}  // namespace knactor::de
