// Query planner unit tests: which operators fuse, which scan hints derive,
// and that the Log DE's scan honors head/tail push-down (charging and
// scanning only the bounded prefix/suffix).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "de/log.h"
#include "de/plan.h"
#include "plan_values.h"
#include "sim/clock.h"

namespace knactor::de {
namespace {

using common::Value;

Value rec(int n) {
  Value v = Value::object();
  v.set("n", Value(static_cast<std::int64_t>(n)));
  return v;
}

TEST(PlanTest, RecordLocalRunFusesToOneStage) {
  LogQuery q;
  q.push_back(LogOp::filter("n > 1").value());
  q.push_back(LogOp::rename({{"n", "m"}}));
  q.push_back(LogOp::project({"m"}));
  QueryPlan plan = plan_query(q);
  ASSERT_EQ(plan.stages.size(), 1u);
  EXPECT_FALSE(plan.stages[0].is_barrier);
  EXPECT_EQ(plan.stages[0].fused.size(), 3u);
  EXPECT_EQ(plan.passes(), 1u);
}

TEST(PlanTest, BarriersSplitStages) {
  LogQuery q;
  q.push_back(LogOp::filter("n > 1").value());
  q.push_back(LogOp::sort("n"));
  q.push_back(LogOp::drop({"x"}));
  q.push_back(LogOp::aggregate({}, {{"c", {"count", ""}}}));
  QueryPlan plan = plan_query(q);
  // filter | sort | drop | aggregate -> 4 stages (fused, barrier, fused,
  // barrier).
  ASSERT_EQ(plan.stages.size(), 4u);
  EXPECT_FALSE(plan.stages[0].is_barrier);
  EXPECT_TRUE(plan.stages[1].is_barrier);
  EXPECT_FALSE(plan.stages[2].is_barrier);
  EXPECT_TRUE(plan.stages[3].is_barrier);
}

TEST(PlanTest, LeadingHeadBecomesScanHint) {
  LogQuery q;
  q.push_back(LogOp::head(5));
  q.push_back(LogOp::rename({{"n", "m"}}));
  QueryPlan plan = plan_query(q);
  EXPECT_EQ(plan.scan_head, 5u);
  EXPECT_EQ(plan.scan_tail, kNoLimit);
}

TEST(PlanTest, LeadingTailBecomesScanHint) {
  LogQuery q;
  q.push_back(LogOp::tail(3));
  QueryPlan plan = plan_query(q);
  EXPECT_EQ(plan.scan_tail, 3u);
}

TEST(PlanTest, FilterThenHeadDerivesEarlyStop) {
  LogQuery q;
  q.push_back(LogOp::filter("n > 1").value());
  q.push_back(LogOp::head(2));
  QueryPlan plan = plan_query(q);
  EXPECT_EQ(plan.scan_head, kNoLimit);  // filter runs before the head
  EXPECT_EQ(plan.early_stop, 2u);
}

TEST(PlanTest, MidPipelineHeadIsNoScanHint) {
  LogQuery q;
  q.push_back(LogOp::sort("n"));
  q.push_back(LogOp::head(2));
  QueryPlan plan = plan_query(q);
  EXPECT_EQ(plan.scan_head, kNoLimit);
  EXPECT_EQ(plan.early_stop, kNoLimit);
}

TEST(PlanTest, UnfusedPlanIsOneStagePerOperatorWithoutHints) {
  LogQuery q;
  q.push_back(LogOp::filter("n > 1").value());
  q.push_back(LogOp::rename({{"n", "m"}}));
  q.push_back(LogOp::head(2));
  QueryPlan plan = plan_query(q, /*fuse=*/false);
  ASSERT_EQ(plan.passes(), 3u);
  EXPECT_EQ(plan.stages[0].fused.size(), 1u);
  EXPECT_EQ(plan.stages[1].fused.size(), 1u);
  EXPECT_TRUE(plan.stages[2].is_barrier);
  EXPECT_EQ(plan.early_stop, kNoLimit);
  EXPECT_EQ(plan_query({LogOp::head(5)}, /*fuse=*/false).scan_head, kNoLimit);
  EXPECT_EQ(plan_query({LogOp::tail(5)}, /*fuse=*/false).scan_tail, kNoLimit);
}

TEST(PlanTest, RunPlanMatchesNaivePipeline) {
  LogQuery q;
  q.push_back(LogOp::filter("n % 2 == 0").value());
  q.push_back(LogOp::map("twice", "n * 2").value());
  q.push_back(LogOp::sort("twice", true));
  q.push_back(LogOp::head(3));

  std::vector<Value> records;
  for (int i = 0; i < 20; ++i) records.push_back(rec(i));
  auto naive = run_plan_values(plan_query(q, /*fuse=*/false), records);
  auto fused = run_plan_values(plan_query(q), records);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ(naive.value().size(), fused.value().size());
  for (std::size_t i = 0; i < naive.value().size(); ++i) {
    EXPECT_EQ(naive.value()[i], fused.value()[i]) << "record " << i;
  }
}

TEST(PlanTest, EarlyStopReportsConsumed) {
  LogQuery q;
  q.push_back(LogOp::filter("n >= 0").value());  // passes everything
  q.push_back(LogOp::head(4));
  std::vector<common::CowValue> records;
  for (int i = 0; i < 100; ++i) records.emplace_back(rec(i));
  PlanRunStats stats;
  auto out = run_plan(plan_query(q), std::move(records), &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 4u);
  // Stage 0 stopped after the 4th survivor instead of reading all 100.
  EXPECT_EQ(stats.consumed, 4u);
}

TEST(PlanTest, HeadPushdownBoundsTheScan) {
  sim::VirtualClock clock;
  LogDe de(clock, LogDeProfile::instant());
  LogPool& pool = de.create_pool("p");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.append_sync("svc", rec(i)).ok());
  }
  LogQuery q;
  q.push_back(LogOp::head(5));
  auto out = pool.query_sync("svc", q);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 5u);
  EXPECT_EQ(out.value()[0]->get("n")->as_int(), 0);
  // 45 of the 50 records were never materialized or charged.
  EXPECT_EQ(de.stats().records_scan_saved, 45u);
  EXPECT_EQ(de.stats().records_scanned, 5u);
}

TEST(PlanTest, TailPushdownScansSuffix) {
  sim::VirtualClock clock;
  LogDe de(clock, LogDeProfile::instant());
  LogPool& pool = de.create_pool("p");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.append_sync("svc", rec(i)).ok());
  }
  LogQuery q;
  q.push_back(LogOp::tail(4));
  auto out = pool.query_sync("svc", q);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 4u);
  EXPECT_EQ(out.value()[0]->get("n")->as_int(), 46);
  EXPECT_EQ(out.value()[3]->get("n")->as_int(), 49);
  EXPECT_EQ(de.stats().records_scan_saved, 46u);
}

TEST(PlanTest, BatchHistogramsRecord) {
  sim::VirtualClock clock;
  LogDe de(clock, LogDeProfile::instant());
  LogPool& pool = de.create_pool("p");
  std::vector<Value> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(rec(i));
  ASSERT_TRUE(pool.append_batch_sync("svc", std::move(batch)).ok());
  ASSERT_TRUE(pool.query_sync("svc", {}).ok());
  EXPECT_EQ(de.stats().append_batch_sizes.count(), 1u);
  EXPECT_EQ(de.stats().append_batch_sizes.max(), 10u);
  EXPECT_EQ(de.stats().query_batch_sizes.count(), 1u);
  EXPECT_EQ(de.stats().query_batch_sizes.sum(), 10u);
}

TEST(PlanTest, SharedQueryIsZeroCopyUntilMutation) {
  sim::VirtualClock clock;
  LogDe de(clock, LogDeProfile::instant());
  LogPool& pool = de.create_pool("p");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pool.append_sync("svc", rec(i)).ok());
  }
  // A filter-only query never mutates: every returned handle must alias a
  // stored buffer (shared), not a private copy.
  LogQuery q;
  q.push_back(LogOp::filter("n >= 2").value());
  auto out = pool.query_sync("svc", q);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 3u);
  for (auto& handle : out.value()) {
    EXPECT_TRUE(handle.shared());
  }
  // A renaming query mutates: handles detach from the store.
  LogQuery q2;
  q2.push_back(LogOp::rename({{"n", "m"}}));
  auto out2 = pool.query_sync("svc", q2);
  ASSERT_TRUE(out2.ok());
  ASSERT_EQ(out2.value().size(), 5u);
  EXPECT_NE(out2.value()[0]->get("m"), nullptr);
  // The stored records are untouched.
  auto raw = pool.query_sync("svc", {});
  ASSERT_TRUE(raw.ok());
  EXPECT_NE(raw.value()[0]->get("n"), nullptr);
}

}  // namespace
}  // namespace knactor::de
