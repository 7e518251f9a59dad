// Epoch-boundary observability: the epoch pipeline emits its spans and
// counters in the publish loop, which runs only for an epoch that
// committed. These tests pin the tracer's id lookups and the contract that
// a rolled-back epoch emits nothing: no span, counter, subscription count
// or delivery.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/trace.h"
#include "de/object.h"

namespace knactor {
namespace {

using common::Value;

TEST(Tracer, AnnotateAndEndFindSpanByIdAfterClear) {
  sim::VirtualClock clock;
  core::Tracer tracer(clock);
  for (int i = 0; i < 5; ++i) tracer.end(tracer.begin("before-clear"));
  tracer.clear();

  // Ids keep increasing across clear(); lookups must not match stale ids.
  const std::uint64_t a = tracer.begin("a");
  const std::uint64_t b = tracer.begin("b");

  clock.advance(7);
  tracer.annotate(b, "k", "vb");
  tracer.end(b);
  clock.advance(3);
  tracer.annotate(a, "k", "va");
  tracer.end(a);
  // Unknown ids (cleared, or never issued) are ignored.
  tracer.annotate(1, "k", "stale");
  tracer.end(1);
  tracer.end(b + 100);

  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[0].attributes.at("k"), "va");
  EXPECT_EQ(spans[0].end, 10u);
  EXPECT_EQ(spans[1].name, "b");
  EXPECT_EQ(spans[1].attributes.at("k"), "vb");
  EXPECT_EQ(spans[1].end, 7u);
  EXPECT_GT(spans[0].id, 5u);
  EXPECT_LT(spans[0].id, spans[1].id);
}

TEST(EpochObservability, CrashedEpochLeaksNoSpansOrCounters) {
  sim::VirtualClock clock;
  core::Tracer tracer(clock);
  core::Metrics metrics;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de.set_observability(&tracer, &metrics);
  de::ObjectStore& store = de.create_store("items");
  // Three subscribers the write reaches: a per-event one whose filter
  // rejects it, a filtered batched one it passes, and an equality-indexed
  // one whose key it hits.
  int events = 0;
  de::SubscriptionSpec rejecting;
  rejecting.filter = "v > 5";
  ASSERT_TRUE(store
                  .subscribe("observer", rejecting,
                             [&](const de::WatchEvent&) { ++events; })
                  .ok());
  std::vector<de::WatchBatch> batches;
  de::SubscriptionSpec windowed;
  windowed.filter = "v >= 1";
  windowed.qos.window = 10 * sim::kMillisecond;
  ASSERT_TRUE(store
                  .subscribe_batch(
                      "observer", windowed,
                      [&](const de::WatchBatch& b) { batches.push_back(b); })
                  .ok());
  de::SubscriptionSpec indexed;
  indexed.filter = "v == 1";
  ASSERT_TRUE(store
                  .subscribe("observer", indexed,
                             [&](const de::WatchEvent&) { ++events; })
                  .ok());
  ASSERT_EQ(de.kernel().subscriptions().size(), 3u);
  de.set_epoch_fault_hook([] { return true; });

  std::vector<de::EpochWrite> writes;
  de::EpochWrite w;
  w.key = "k";
  w.data = Value::object({{"v", 1}});
  writes.push_back(std::move(w));
  auto results = store.put_epoch_sync("writer", std::move(writes));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  clock.run_all();
  // The rolled-back epoch is invisible to observability too.
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.by_name("sub.filter").empty());
  EXPECT_EQ(metrics.get("de.epoch.epochs"), 0u);
  EXPECT_EQ(metrics.get("de.epoch.committed"), 0u);
  for (const auto& [id, info] : de.kernel().subscriptions()) {
    EXPECT_EQ(info.matched, 0u) << "subscription " << id;
    EXPECT_EQ(info.filtered, 0u) << "subscription " << id;
    EXPECT_EQ(info.evaluated, 0u) << "subscription " << id;
    EXPECT_EQ(info.delivered, 0u) << "subscription " << id;
  }
  EXPECT_EQ(events, 0);
  EXPECT_TRUE(batches.empty());

  // Control: the same write, committed, reaches all three subscribers.
  de.set_epoch_fault_hook(nullptr);
  de.recover();
  std::vector<de::EpochWrite> retry(1);
  retry[0].key = "k";
  retry[0].data = Value::object({{"v", 1}});
  ASSERT_TRUE(store.put_epoch_sync("writer", std::move(retry))[0].ok());
  clock.run_all();
  std::uint64_t matched = 0;
  std::uint64_t filtered = 0;
  for (const auto& [id, info] : de.kernel().subscriptions()) {
    matched += info.matched;
    filtered += info.filtered;
  }
  EXPECT_EQ(matched, 3u);
  EXPECT_EQ(filtered, 1u);
  EXPECT_EQ(tracer.by_name("sub.filter").size(), 1u);
  EXPECT_EQ(events, 1);
  EXPECT_EQ(batches.size(), 1u);
}

TEST(EpochObservability, FilterSpansPrecedeDeliverySpansPerCommit) {
  // The publish loop walks a commit's watchers first and schedules its
  // deliveries after the walk, so a rejection by a later watcher still
  // takes its span id before an earlier watcher's delivery span.
  sim::VirtualClock clock;
  core::Tracer tracer(clock);
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de.set_observability(&tracer, nullptr);
  de::ObjectStore& store = de.create_store("items");
  de::SubscriptionSpec passing;
  passing.filter = "v >= 1";
  ASSERT_TRUE(store.subscribe("observer", passing, [](const de::WatchEvent&) {})
                  .ok());
  de::SubscriptionSpec rejecting;
  rejecting.filter = "v > 5";
  ASSERT_TRUE(
      store.subscribe("observer", rejecting, [](const de::WatchEvent&) {})
          .ok());
  ASSERT_TRUE(store.put_sync("writer", "k", Value::object({{"v", 1}})).ok());
  clock.run_all();
  std::vector<std::string> names;
  for (const core::Span& span : tracer.spans()) names.push_back(span.name);
  EXPECT_EQ(names, (std::vector<std::string>{"de.epoch.op", "sub.filter",
                                             "sub.deliver"}));
}

}  // namespace
}  // namespace knactor
