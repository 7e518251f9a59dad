#include "de/object.h"

#include <gtest/gtest.h>

#include <optional>

namespace knactor::de {
namespace {

using common::Value;

class ObjectDeTest : public ::testing::Test {
 protected:
  sim::VirtualClock clock_;
  ObjectDe de_{clock_, ObjectDeProfile::instant()};
};

TEST_F(ObjectDeTest, PutGetRoundTrip) {
  ObjectStore& store = de_.create_store("s");
  auto version = store.put_sync("me", "k", Value::object({{"a", 1}}));
  ASSERT_TRUE(version.ok());
  auto got = store.get_sync("me", "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().data->get("a")->as_int(), 1);
  EXPECT_EQ(got.value().version, version.value());
  EXPECT_EQ(got.value().key, "k");
}

TEST_F(ObjectDeTest, GetMissingIsNotFound) {
  ObjectStore& store = de_.create_store("s");
  auto got = store.get_sync("me", "nope");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, common::Error::Code::kNotFound);
}

TEST_F(ObjectDeTest, VersionsIncreaseMonotonically) {
  ObjectStore& store = de_.create_store("s");
  auto v1 = store.put_sync("me", "a", Value::object({}));
  auto v2 = store.put_sync("me", "b", Value::object({}));
  auto v3 = store.put_sync("me", "a", Value::object({{"x", 1}}));
  EXPECT_LT(v1.value(), v2.value());
  EXPECT_LT(v2.value(), v3.value());
}

TEST_F(ObjectDeTest, PutOverwrites) {
  ObjectStore& store = de_.create_store("s");
  (void)store.put_sync("me", "k", Value::object({{"a", 1}, {"b", 2}}));
  (void)store.put_sync("me", "k", Value::object({{"c", 3}}));
  auto got = store.get_sync("me", "k");
  EXPECT_EQ(got.value().data->get("a"), nullptr);
  EXPECT_EQ(got.value().data->get("c")->as_int(), 3);
}

TEST_F(ObjectDeTest, PatchMergesTopLevelFields) {
  ObjectStore& store = de_.create_store("s");
  (void)store.put_sync("me", "k", Value::object({{"a", 1}, {"b", 2}}));
  (void)store.patch_sync("me", "k", Value::object({{"b", 20}, {"c", 30}}));
  auto got = store.get_sync("me", "k");
  EXPECT_EQ(got.value().data->get("a")->as_int(), 1);
  EXPECT_EQ(got.value().data->get("b")->as_int(), 20);
  EXPECT_EQ(got.value().data->get("c")->as_int(), 30);
}

TEST_F(ObjectDeTest, PatchCreatesWhenAbsent) {
  ObjectStore& store = de_.create_store("s");
  (void)store.patch_sync("me", "new", Value::object({{"a", 1}}));
  EXPECT_TRUE(store.get_sync("me", "new").ok());
}

TEST_F(ObjectDeTest, OptimisticConcurrency) {
  ObjectStore& store = de_.create_store("s");
  auto v1 = store.put_sync("me", "k", Value::object({{"a", 1}}));
  ASSERT_TRUE(v1.ok());

  std::optional<common::Result<std::uint64_t>> stale;
  store.put_versioned("me", "k", Value::object({{"a", 2}}), v1.value() + 99,
                      [&](common::Result<std::uint64_t> r) {
                        stale = std::move(r);
                      });
  clock_.run_all();
  ASSERT_TRUE(stale.has_value());
  ASSERT_FALSE(stale->ok());
  EXPECT_EQ(stale->error().code, common::Error::Code::kFailedPrecondition);
  EXPECT_EQ(de_.stats().version_conflicts, 1u);

  std::optional<common::Result<std::uint64_t>> fresh;
  store.put_versioned("me", "k", Value::object({{"a", 2}}), v1.value(),
                      [&](common::Result<std::uint64_t> r) {
                        fresh = std::move(r);
                      });
  clock_.run_all();
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(fresh->ok());
}

TEST_F(ObjectDeTest, PutVersionedZeroMeansCreate) {
  ObjectStore& store = de_.create_store("s");
  std::optional<common::Result<std::uint64_t>> r;
  store.put_versioned("me", "new", Value::object({}), 0,
                      [&](common::Result<std::uint64_t> x) { r = std::move(x); });
  clock_.run_all();
  EXPECT_TRUE(r->ok());
}

TEST_F(ObjectDeTest, RemoveDeletes) {
  ObjectStore& store = de_.create_store("s");
  (void)store.put_sync("me", "k", Value::object({}));
  EXPECT_TRUE(store.remove_sync("me", "k").ok());
  EXPECT_FALSE(store.get_sync("me", "k").ok());
  EXPECT_FALSE(store.remove_sync("me", "k").ok());
}

TEST_F(ObjectDeTest, ListByPrefix) {
  ObjectStore& store = de_.create_store("s");
  (void)store.put_sync("me", "order/1", Value::object({}));
  (void)store.put_sync("me", "order/2", Value::object({}));
  (void)store.put_sync("me", "cart/1", Value::object({}));
  auto all = store.list_sync("me", "");
  EXPECT_EQ(all.value().size(), 3u);
  auto orders = store.list_sync("me", "order/");
  EXPECT_EQ(orders.value().size(), 2u);
  auto none = store.list_sync("me", "zzz");
  EXPECT_TRUE(none.value().empty());
}

TEST_F(ObjectDeTest, WatchReceivesAddModifyDelete) {
  ObjectStore& store = de_.create_store("s");
  std::vector<WatchEventType> events;
  auto id = store.subscribe(
      "me", {}, [&](const WatchEvent& e) { events.push_back(e.type); });
  ASSERT_TRUE(id.ok());
  (void)store.put_sync("me", "k", Value::object({{"a", 1}}));
  (void)store.put_sync("me", "k", Value::object({{"a", 2}}));
  (void)store.remove_sync("me", "k");
  clock_.run_all();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], WatchEventType::kAdded);
  EXPECT_EQ(events[1], WatchEventType::kModified);
  EXPECT_EQ(events[2], WatchEventType::kDeleted);
}

TEST_F(ObjectDeTest, WatchPrefixFilters) {
  ObjectStore& store = de_.create_store("s");
  int events = 0;
  SubscriptionSpec spec;
  spec.prefix = "order/";
  ASSERT_TRUE(
      store.subscribe("me", spec, [&](const WatchEvent&) { ++events; }).ok());
  (void)store.put_sync("me", "order/1", Value::object({}));
  (void)store.put_sync("me", "cart/1", Value::object({}));
  clock_.run_all();
  EXPECT_EQ(events, 1);
}

TEST_F(ObjectDeTest, UnwatchStopsEvents) {
  ObjectStore& store = de_.create_store("s");
  int events = 0;
  auto id = store.subscribe("me", {}, [&](const WatchEvent&) { ++events; });
  ASSERT_TRUE(id.ok());
  (void)store.put_sync("me", "a", Value::object({}));
  clock_.run_all();
  store.unsubscribe(id.value(), /*drain=*/false);
  (void)store.put_sync("me", "b", Value::object({}));
  clock_.run_all();
  EXPECT_EQ(events, 1);
}

TEST_F(ObjectDeTest, UnwatchDropsInFlightEvents) {
  // Event committed but not yet delivered when the watch is cancelled.
  ObjectDe slow(clock_, ObjectDeProfile::redis());
  ObjectStore& store = slow.create_store("s");
  int events = 0;
  auto id = store.subscribe("me", {}, [&](const WatchEvent&) { ++events; });
  ASSERT_TRUE(id.ok());
  (void)store.put_sync("me", "a", Value::object({}));
  // Before the notify latency elapses.
  store.unsubscribe(id.value(), /*drain=*/false);
  clock_.run_all();
  EXPECT_EQ(events, 0);
}

TEST_F(ObjectDeTest, WatchEventCarriesObject) {
  ObjectStore& store = de_.create_store("s");
  Value seen;
  ASSERT_TRUE(store
                  .subscribe("me", {},
                             [&](const WatchEvent& e) {
                               seen = e.object.data_copy();
                             })
                  .ok());
  (void)store.put_sync("me", "k", Value::object({{"a", 42}}));
  clock_.run_all();
  EXPECT_EQ(seen.get("a")->as_int(), 42);
}

TEST_F(ObjectDeTest, LatencyChargedPerProfile) {
  ObjectDe timed(clock_, ObjectDeProfile::apiserver());
  ObjectStore& store = timed.create_store("s");
  sim::SimTime start = clock_.now();
  (void)store.put_sync("me", "k", Value::object({}));
  sim::SimTime write_time = clock_.now() - start;
  EXPECT_GT(write_time, sim::from_ms(5.0));

  start = clock_.now();
  (void)store.get_sync("me", "k");
  sim::SimTime read_time = clock_.now() - start;
  EXPECT_GT(read_time, sim::from_ms(2.0));
  EXPECT_LT(read_time, write_time);  // reads cheaper than raft writes
}

TEST_F(ObjectDeTest, RedisFasterThanApiserver) {
  ObjectDe redis(clock_, ObjectDeProfile::redis());
  ObjectDe apiserver(clock_, ObjectDeProfile::apiserver());
  ObjectStore& r = redis.create_store("s");
  ObjectStore& a = apiserver.create_store("s");

  sim::SimTime t0 = clock_.now();
  for (int i = 0; i < 20; ++i) {
    (void)r.put_sync("me", "k", Value::object({{"i", i}}));
  }
  sim::SimTime redis_time = clock_.now() - t0;
  t0 = clock_.now();
  for (int i = 0; i < 20; ++i) {
    (void)a.put_sync("me", "k", Value::object({{"i", i}}));
  }
  sim::SimTime apiserver_time = clock_.now() - t0;
  EXPECT_GT(apiserver_time, 3 * redis_time);
}

TEST_F(ObjectDeTest, DurableRestartKeepsExactState) {
  ObjectDe durable(clock_, ObjectDeProfile::apiserver());
  ObjectStore& store = durable.create_store("s");
  (void)store.put_sync("me", "a", Value::object({{"x", 1}}));
  (void)store.put_sync("me", "b", Value::object({{"x", 2}}));
  (void)store.remove_sync("me", "a");
  (void)store.put_sync("me", "b", Value::object({{"x", 3}}));
  (void)store.put_sync("me", "c", Value::object({{"x", 4}}));
  const StateObject b_before = *store.peek("b");
  const StateObject c_before = *store.peek("c");
  const std::uint64_t next_revision = durable.kernel().peek_next_revision();
  const std::uint64_t commit_seq = durable.kernel().commit_seq();

  durable.restart();
  EXPECT_FALSE(store.get_sync("me", "a").ok());
  for (const StateObject* before : {&b_before, &c_before}) {
    auto got = store.get_sync("me", before->key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().version, before->version);
    EXPECT_EQ(got.value().created_at, before->created_at);
    EXPECT_EQ(got.value().updated_at, before->updated_at);
    EXPECT_EQ(*got.value().data, *before->data);
  }

  // A write guarded by the pre-restart version applies, with exactly the
  // stamps it would have had without the restart.
  std::uint64_t seq = 0;
  ASSERT_TRUE(store
                  .subscribe("me", {},
                             [&](const WatchEvent& e) {
                               seq = e.ctx.commit_seq;
                             })
                  .ok());
  std::optional<common::Result<std::uint64_t>> written;
  store.put_versioned("me", "b", Value::object({{"x", 5}}), b_before.version,
                      [&](common::Result<std::uint64_t> r) { written = r; });
  clock_.run_all();
  ASSERT_TRUE(written.has_value());
  ASSERT_TRUE(written->ok()) << written->error().to_string();
  EXPECT_EQ(written->value(), next_revision);
  EXPECT_EQ(seq, commit_seq + 1);
}

TEST_F(ObjectDeTest, NonDurableRestartLosesState) {
  ObjectDe redis(clock_, ObjectDeProfile::redis());
  ObjectStore& store = redis.create_store("s");
  (void)store.put_sync("me", "a", Value::object({{"x", 1}}));
  redis.restart();
  EXPECT_FALSE(store.get_sync("me", "a").ok());
}

TEST_F(ObjectDeTest, UdfReadsAndWritesAcrossStores) {
  ObjectStore& src = de_.create_store("src");
  de_.create_store("dst");
  (void)src.put_sync("me", "state", Value::object({{"n", 21}}));

  ASSERT_TRUE(de_.register_udf("me", "double-it",
                               [](UdfContext& ctx, const Value&)
                                   -> common::Result<Value> {
                                 KN_ASSIGN_OR_RETURN(StateObject obj,
                                                     ctx.get("src", "state"));
                                 std::int64_t n =
                                     obj.data->get("n")->as_int();
                                 Value out = Value::object();
                                 out.set("n", Value(n * 2));
                                 KN_TRY(ctx.put("dst", "state", out));
                                 return Value(n * 2);
                               })
                  .ok());
  auto result = de_.call_udf_sync("me", "double-it", Value::object({}));
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().as_int(), 42);
  auto dst = de_.store("dst")->get_sync("me", "state");
  EXPECT_EQ(dst.value().data->get("n")->as_int(), 42);
  EXPECT_EQ(de_.stats().udf_calls, 1u);
  EXPECT_GE(de_.stats().engine_ops, 2u);
}

TEST_F(ObjectDeTest, UdfUnsupportedOnApiserverProfile) {
  ObjectDe apiserver(clock_, ObjectDeProfile::apiserver());
  auto r = apiserver.register_udf(
      "me", "f", [](UdfContext&, const Value&) -> common::Result<Value> {
        return Value(1);
      });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, common::Error::Code::kFailedPrecondition);
}

TEST_F(ObjectDeTest, UnknownUdfIsNotFound) {
  auto r = de_.call_udf_sync("me", "ghost", Value::object({}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, common::Error::Code::kNotFound);
}

TEST_F(ObjectDeTest, TriggerFiresUdfOnWrite) {
  ObjectStore& store = de_.create_store("s");
  de_.create_store("out");
  int fired = 0;
  ASSERT_TRUE(de_.register_udf("me", "on-write",
                               [&fired](UdfContext& ctx, const Value& args)
                                   -> common::Result<Value> {
                                 ++fired;
                                 EXPECT_EQ(args.get("store")->as_string(), "s");
                                 EXPECT_EQ(args.get("key")->as_string(), "k");
                                 Value v = Value::object();
                                 v.set("seen", Value(true));
                                 KN_TRY(ctx.put("out", "marker", v));
                                 return Value(nullptr);
                               })
                  .ok());
  ASSERT_TRUE(de_.add_trigger("s", "", "on-write").ok());
  (void)store.put_sync("me", "k", Value::object({{"a", 1}}));
  clock_.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_NE(de_.store("out")->peek("marker"), nullptr);
}

TEST_F(ObjectDeTest, TriggerPrefixFilters) {
  ObjectStore& store = de_.create_store("s");
  int fired = 0;
  ASSERT_TRUE(de_.register_udf("me", "count",
                               [&fired](UdfContext&, const Value&)
                                   -> common::Result<Value> {
                                 ++fired;
                                 return Value(nullptr);
                               })
                  .ok());
  ASSERT_TRUE(de_.add_trigger("s", "order/", "count").ok());
  (void)store.put_sync("me", "order/1", Value::object({}));
  (void)store.put_sync("me", "cart/1", Value::object({}));
  clock_.run_all();
  EXPECT_EQ(fired, 1);
}

TEST_F(ObjectDeTest, RemoveTriggerStopsFiring) {
  ObjectStore& store = de_.create_store("s");
  int fired = 0;
  (void)de_.register_udf("me", "count",
                         [&fired](UdfContext&, const Value&)
                             -> common::Result<Value> {
                           ++fired;
                           return Value(nullptr);
                         });
  (void)de_.add_trigger("s", "", "count");
  (void)store.put_sync("me", "a", Value::object({}));
  clock_.run_all();
  de_.remove_trigger("s", "count");
  (void)store.put_sync("me", "b", Value::object({}));
  clock_.run_all();
  EXPECT_EQ(fired, 1);
}

TEST_F(ObjectDeTest, TriggerScheduledBeforeCrashIsLostWithTheProcess) {
  // The trigger runs engine_read after the commit; a crash in that window
  // takes the pending UDF down with the process: it never runs, so its
  // write never lands on (or is journaled by) a DE that is down.
  ObjectDe redis(clock_, ObjectDeProfile::redis());
  ObjectStore& store = redis.create_store("s");
  redis.create_store("out");
  ASSERT_TRUE(redis
                  .register_udf("me", "mark",
                                [](UdfContext& ctx, const Value&)
                                    -> common::Result<Value> {
                                  KN_TRY(ctx.put("out", "marker",
                                                 Value::object({{"seen", 1}})));
                                  return Value(nullptr);
                                })
                  .ok());
  ASSERT_TRUE(redis.add_trigger("s", "", "mark").ok());
  ASSERT_TRUE(store.put_sync("me", "k", Value::object({{"a", 1}})).ok());
  const std::uint64_t calls = redis.stats().udf_calls;
  redis.crash();
  while (clock_.step()) {
  }
  EXPECT_EQ(redis.stats().udf_calls, calls);
  EXPECT_EQ(redis.store("out")->peek("marker"), nullptr);
}

TEST_F(ObjectDeTest, TriggerRequiresRegisteredUdf) {
  de_.create_store("s");
  EXPECT_FALSE(de_.add_trigger("s", "", "ghost").ok());
}

TEST_F(ObjectDeTest, GetSharedAvoidsCopySemantics) {
  ObjectStore& store = de_.create_store("s");
  (void)store.put_sync("me", "k", Value::object({{"big", std::string(100, 'x')}}));
  common::SharedValue shared;
  store.get_shared("me", "k", [&](common::Result<common::SharedValue> r) {
    ASSERT_TRUE(r.ok());
    shared = r.take();
  });
  clock_.run_all();
  ASSERT_NE(shared, nullptr);
  // Same underlying buffer as the store's copy.
  EXPECT_EQ(shared.get(), store.peek("k")->data.get());
}

TEST_F(ObjectDeTest, StatsCountOperations) {
  ObjectStore& store = de_.create_store("s");
  (void)store.put_sync("me", "k", Value::object({}));
  (void)store.get_sync("me", "k");
  (void)store.list_sync("me", "");
  (void)store.remove_sync("me", "k");
  EXPECT_EQ(de_.stats().writes, 1u);
  EXPECT_EQ(de_.stats().reads, 1u);
  EXPECT_EQ(de_.stats().lists, 1u);
  EXPECT_EQ(de_.stats().deletes, 1u);
}

TEST_F(ObjectDeTest, CreateStoreIsIdempotent) {
  ObjectStore& a = de_.create_store("same");
  ObjectStore& b = de_.create_store("same");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(de_.store("missing"), nullptr);
}

}  // namespace
}  // namespace knactor::de
