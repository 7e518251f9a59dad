// Epoch-boundary observability: the epoch pipeline emits into a detached
// Tracer::SpanBuffer / Metrics::Delta and folds them in at the epoch
// boundary. These tests pin the contract: merging at the epoch boundary
// yields the same span counts, stage attribution, and counter totals as
// direct emission, and a rolled-back epoch emits nothing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/trace.h"
#include "de/object.h"

namespace knactor {
namespace {

using common::Value;

TEST(SpanBuffer, MergeRestampsIdsAndPreservesParentLinks) {
  sim::VirtualClock clock;
  core::Tracer tracer(clock);
  // A span emitted directly on the tracer first, so buffer-local ids (which
  // also start at 1) would collide without the re-stamp.
  const std::uint64_t direct = tracer.begin("direct");
  tracer.end(direct);

  core::Tracer::SpanBuffer buffer;
  const std::uint64_t parent = buffer.begin("epoch.parent", 10);
  const std::uint64_t child = buffer.begin("epoch.child", 11, parent);
  buffer.annotate(child, "stage", "S");
  buffer.end(child, 12);
  buffer.end(parent, 13);
  ASSERT_EQ(buffer.size(), 2u);

  tracer.merge(buffer);
  EXPECT_TRUE(buffer.empty());

  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].name, "epoch.parent");
  EXPECT_EQ(spans[2].name, "epoch.child");
  // Globally sequential ids, distinct from the pre-existing span.
  EXPECT_NE(spans[1].id, spans[0].id);
  EXPECT_NE(spans[2].id, spans[0].id);
  // The within-buffer parent link survived the re-stamp.
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[2].attributes.at("stage"), "S");
  EXPECT_EQ(spans[2].start, 11u);
  EXPECT_EQ(spans[2].end, 12u);

  // A drained buffer is reusable: ids restart and merge again cleanly.
  const std::uint64_t again = buffer.begin("epoch.again", 20);
  buffer.end(again, 21);
  tracer.merge(buffer);
  EXPECT_EQ(tracer.spans().size(), 4u);
}

TEST(Tracer, AnnotateAndEndFindSpanByIdAfterClearAndMerge) {
  sim::VirtualClock clock;
  core::Tracer tracer(clock);
  for (int i = 0; i < 5; ++i) tracer.end(tracer.begin("before-clear"));
  tracer.clear();

  // Ids keep increasing across clear(); lookups must not match stale ids.
  const std::uint64_t a = tracer.begin("a");
  core::Tracer::SpanBuffer buffer;
  const std::uint64_t local = buffer.begin("merged", 0);
  buffer.end(local, 1);
  tracer.merge(buffer);
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
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[0].attributes.at("k"), "va");
  EXPECT_EQ(spans[0].end, 10u);
  EXPECT_EQ(spans[1].name, "merged");
  EXPECT_TRUE(spans[1].attributes.empty());
  EXPECT_EQ(spans[1].end, 1u);
  EXPECT_EQ(spans[2].name, "b");
  EXPECT_EQ(spans[2].attributes.at("k"), "vb");
  EXPECT_EQ(spans[2].end, 7u);
  // The merged span took an id between a and b.
  EXPECT_LT(spans[0].id, spans[1].id);
  EXPECT_LT(spans[1].id, spans[2].id);

  // A span merged later is found by the id merge stamped on it.
  buffer.begin("late", 10);
  tracer.merge(buffer);
  const std::uint64_t late_id = tracer.spans().back().id;
  EXPECT_GT(late_id, b);
  tracer.annotate(late_id, "stage", "S");
  tracer.end(late_id);
  EXPECT_EQ(tracer.spans().back().attributes.at("stage"), "S");
  EXPECT_EQ(tracer.spans().back().end, 10u);
}

TEST(MetricsDelta, MergeEqualsSerialIncrements) {
  core::Metrics serial;
  core::Metrics merged;
  core::Metrics::Delta a;
  core::Metrics::Delta b;
  for (int i = 0; i < 7; ++i) {
    serial.inc("ops");
    (i % 2 == 0 ? a : b).inc("ops");
  }
  serial.inc("bytes", 100);
  a.inc("bytes", 60);
  b.inc("bytes", 40);
  // Merge order is irrelevant: counter addition commutes.
  merged.merge(b);
  merged.merge(a);
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(merged.get("ops"), serial.get("ops"));
  EXPECT_EQ(merged.get("bytes"), serial.get("bytes"));
}

TEST(EpochObservability, CrashedEpochLeaksNoSpansOrCounters) {
  sim::VirtualClock clock;
  core::Tracer tracer(clock);
  core::Metrics metrics;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de.set_observability(&tracer, &metrics);
  de::ObjectStore& store = de.create_store("items");
  de.set_epoch_fault_hook([] { return true; });

  std::vector<de::EpochWrite> writes;
  de::EpochWrite w;
  w.key = "k";
  w.data = Value::object({{"v", 1}});
  writes.push_back(std::move(w));
  auto results = store.put_epoch_sync("writer", std::move(writes));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  // The rolled-back epoch is invisible to observability too.
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(metrics.get("de.epoch.epochs"), 0u);
  EXPECT_EQ(metrics.get("de.epoch.committed"), 0u);
}

}  // namespace
}  // namespace knactor
