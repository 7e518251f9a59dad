#include "de/log.h"

#include <gtest/gtest.h>

#include "de/plan.h"
#include "plan_values.h"

namespace knactor::de {
namespace {

using common::Value;

class LogDeTest : public ::testing::Test {
 protected:
  Value record(const char* device, double kwh, bool triggered = false) {
    Value v = Value::object();
    v.set("device", Value(device));
    v.set("kwh", Value(kwh));
    v.set("triggered", Value(triggered));
    return v;
  }

  sim::VirtualClock clock_;
  LogDe de_{clock_, LogDeProfile::instant()};
};

TEST_F(LogDeTest, AppendAssignsIncreasingSeq) {
  LogPool& pool = de_.create_pool("p");
  auto s1 = pool.append_sync("me", record("a", 1));
  auto s2 = pool.append_sync("me", record("b", 2));
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_LT(s1.value(), s2.value());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.latest_seq(), s2.value());
}

TEST_F(LogDeTest, QueryAllWithEmptyPipeline) {
  LogPool& pool = de_.create_pool("p");
  (void)pool.append_sync("me", record("a", 1));
  (void)pool.append_sync("me", record("b", 2));
  auto r = pool.query_sync("me", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
}

TEST_F(LogDeTest, QueryAfterSeqCursor) {
  LogPool& pool = de_.create_pool("p");
  auto s1 = pool.append_sync("me", record("a", 1));
  (void)pool.append_sync("me", record("b", 2));
  auto r = pool.query_sync("me", {}, s1.value());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0]->get("device")->as_string(), "b");
}

TEST_F(LogDeTest, FilterOp) {
  LogPool& pool = de_.create_pool("p");
  (void)pool.append_sync("me", record("a", 0.0));
  (void)pool.append_sync("me", record("b", 2.5));
  LogQuery q;
  q.push_back(LogOp::filter("kwh > 1").value());
  auto r = pool.query_sync("me", q);
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0]->get("device")->as_string(), "b");
}

TEST_F(LogDeTest, FilterExprParseErrorSurfaces) {
  EXPECT_FALSE(LogOp::filter("kwh >").ok());
}

TEST_F(LogDeTest, RenameOp) {
  LogPool& pool = de_.create_pool("p");
  (void)pool.append_sync("me", record("m", 0, true));
  LogQuery q;
  q.push_back(LogOp::rename({{"triggered", "motion"}}));
  auto r = pool.query_sync("me", q);
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0]->get("triggered"), nullptr);
  EXPECT_TRUE(r.value()[0]->get("motion")->as_bool());
}

TEST_F(LogDeTest, ProjectAndDrop) {
  LogPool& pool = de_.create_pool("p");
  (void)pool.append_sync("me", record("a", 1.5));
  LogQuery project;
  project.push_back(LogOp::project({"device"}));
  auto r1 = pool.query_sync("me", project);
  EXPECT_EQ(r1.value()[0]->as_object().size(), 1u);
  LogQuery drop;
  drop.push_back(LogOp::drop({"kwh"}));
  auto r2 = pool.query_sync("me", drop);
  EXPECT_EQ(r2.value()[0]->get("kwh"), nullptr);
  EXPECT_NE(r2.value()[0]->get("device"), nullptr);
}

TEST_F(LogDeTest, SortAscendingDescendingAndMissing) {
  LogPool& pool = de_.create_pool("p");
  (void)pool.append_sync("me", record("b", 2));
  (void)pool.append_sync("me", record("a", 1));
  Value no_kwh = Value::object();
  no_kwh.set("device", Value("z"));
  (void)pool.append_sync("me", no_kwh);
  (void)pool.append_sync("me", record("c", 3));

  LogQuery asc;
  asc.push_back(LogOp::sort("kwh"));
  auto r = pool.query_sync("me", asc);
  ASSERT_EQ(r.value().size(), 4u);
  EXPECT_EQ(r.value()[0]->get("device")->as_string(), "a");
  EXPECT_EQ(r.value()[2]->get("device")->as_string(), "c");
  EXPECT_EQ(r.value()[3]->get("device")->as_string(), "z");  // missing last

  LogQuery desc;
  desc.push_back(LogOp::sort("kwh", /*descending=*/true));
  auto r2 = pool.query_sync("me", desc);
  EXPECT_EQ(r2.value()[0]->get("device")->as_string(), "c");
}

TEST_F(LogDeTest, HeadAndTail) {
  LogPool& pool = de_.create_pool("p");
  for (int i = 0; i < 5; ++i) {
    (void)pool.append_sync("me", record(("d" + std::to_string(i)).c_str(), i));
  }
  LogQuery head;
  head.push_back(LogOp::head(2));
  EXPECT_EQ(pool.query_sync("me", head).value().size(), 2u);
  EXPECT_EQ(pool.query_sync("me", head).value()[0]->get("device")->as_string(),
            "d0");
  LogQuery tail;
  tail.push_back(LogOp::tail(2));
  auto t = pool.query_sync("me", tail);
  EXPECT_EQ(t.value().size(), 2u);
  EXPECT_EQ(t.value()[0]->get("device")->as_string(), "d3");
}

TEST_F(LogDeTest, MapAddsComputedField) {
  LogPool& pool = de_.create_pool("p");
  (void)pool.append_sync("me", record("a", 2.0));
  LogQuery q;
  q.push_back(LogOp::map("wh", "kwh * 1000").value());
  auto r = pool.query_sync("me", q);
  EXPECT_DOUBLE_EQ(r.value()[0]->get("wh")->as_double(), 2000.0);
}

TEST_F(LogDeTest, AggregateSumCountAvg) {
  LogPool& pool = de_.create_pool("p");
  (void)pool.append_sync("me", record("lamp", 1.0));
  (void)pool.append_sync("me", record("lamp", 3.0));
  (void)pool.append_sync("me", record("heater", 10.0));
  LogQuery q;
  q.push_back(LogOp::aggregate(
      {"device"}, {{"total", {"sum", "kwh"}},
                   {"n", {"count", "kwh"}},
                   {"mean", {"avg", "kwh"}}}));
  auto r = pool.query_sync("me", q);
  ASSERT_EQ(r.value().size(), 2u);
  const Value& lamp = *r.value()[0];
  EXPECT_EQ(lamp.get("device")->as_string(), "lamp");
  EXPECT_DOUBLE_EQ(lamp.get("total")->as_double(), 4.0);
  EXPECT_EQ(lamp.get("n")->as_int(), 2);
  EXPECT_DOUBLE_EQ(lamp.get("mean")->as_double(), 2.0);
}

TEST_F(LogDeTest, AggregateMinMaxFirstLast) {
  LogPool& pool = de_.create_pool("p");
  (void)pool.append_sync("me", record("a", 5.0));
  (void)pool.append_sync("me", record("a", 1.0));
  (void)pool.append_sync("me", record("a", 3.0));
  LogQuery q;
  q.push_back(LogOp::aggregate({}, {{"lo", {"min", "kwh"}},
                                    {"hi", {"max", "kwh"}},
                                    {"first", {"first", "kwh"}},
                                    {"last", {"last", "kwh"}}}));
  auto r = pool.query_sync("me", q);
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_DOUBLE_EQ(r.value()[0]->get("lo")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(r.value()[0]->get("hi")->as_double(), 5.0);
  EXPECT_DOUBLE_EQ(r.value()[0]->get("first")->as_double(), 5.0);
  EXPECT_DOUBLE_EQ(r.value()[0]->get("last")->as_double(), 3.0);
}

TEST_F(LogDeTest, AggregateNonNumericErrors) {
  LogPool& pool = de_.create_pool("p");
  (void)pool.append_sync("me", record("a", 1.0));
  LogQuery q;
  q.push_back(LogOp::aggregate({}, {{"x", {"sum", "device"}}}));
  EXPECT_FALSE(pool.query_sync("me", q).ok());
}

TEST_F(LogDeTest, PipelineComposition) {
  LogPool& pool = de_.create_pool("p");
  for (int i = 0; i < 10; ++i) {
    (void)pool.append_sync(
        "me", record(i % 2 == 0 ? "lamp" : "heater", i));
  }
  LogQuery q;
  q.push_back(LogOp::filter("device == \"lamp\"").value());
  q.push_back(LogOp::map("wh", "kwh * 1000").value());
  q.push_back(LogOp::sort("wh", true));
  q.push_back(LogOp::head(2));
  q.push_back(LogOp::project({"wh"}));
  auto r = pool.query_sync("me", q);
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_DOUBLE_EQ(r.value()[0]->get("wh")->as_double(), 8000.0);
  EXPECT_DOUBLE_EQ(r.value()[1]->get("wh")->as_double(), 6000.0);
}

TEST_F(LogDeTest, RunPipelineStandalone) {
  std::vector<Value> records = {record("a", 2.0), record("b", 1.0)};
  LogQuery q;
  q.push_back(LogOp::sort("kwh"));
  auto r = run_plan_values(plan_query(q), std::move(records));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].get("device")->as_string(), "b");
}

TEST_F(LogDeTest, CompactDropsOldRecords) {
  LogPool& pool = de_.create_pool("p");
  auto s1 = pool.append_sync("me", record("a", 1));
  auto s2 = pool.append_sync("me", record("b", 2));
  (void)s2;
  EXPECT_EQ(pool.compact(s1.value()), 1u);
  EXPECT_EQ(pool.size(), 1u);
  auto r = pool.query_sync("me", {});
  EXPECT_EQ(r.value()[0]->get("device")->as_string(), "b");
}

TEST_F(LogDeTest, QueryChargesPerRecordLatency) {
  LogDe timed(clock_, LogDeProfile::zed());
  LogPool& pool = timed.create_pool("p");
  for (int i = 0; i < 100; ++i) {
    (void)pool.append_sync("me", record("a", i));
  }
  sim::SimTime start = clock_.now();
  (void)pool.query_sync("me", {});
  sim::SimTime scan_100 = clock_.now() - start;
  for (int i = 0; i < 900; ++i) {
    (void)pool.append_sync("me", record("a", i));
  }
  start = clock_.now();
  (void)pool.query_sync("me", {});
  sim::SimTime scan_1000 = clock_.now() - start;
  EXPECT_GT(scan_1000, scan_100);
}

TEST_F(LogDeTest, RbacDeniesAppendAndQuery) {
  LogPool& pool = de_.create_pool("p");
  Rbac& rbac = de_.rbac();
  Role writer;
  writer.name = "writer";
  PolicyRule rule;
  rule.store = "p";
  rule.verbs = {Verb::kCreate};
  writer.rules.push_back(rule);
  ASSERT_TRUE(rbac.add_role(writer).ok());
  ASSERT_TRUE(rbac.bind("sensor", "writer").ok());
  rbac.set_enabled(true);

  EXPECT_TRUE(pool.append_sync("sensor", record("a", 1)).ok());
  EXPECT_FALSE(pool.query_sync("sensor", {}).ok());
  EXPECT_FALSE(pool.append_sync("stranger", record("a", 1)).ok());
  EXPECT_EQ(de_.stats().permission_denials, 2u);
  // Only committed records count as appends, on both append paths.
  EXPECT_EQ(de_.stats().appends, 1u);
  EXPECT_FALSE(
      pool.append_batch_sync("stranger", std::vector<Value>{record("a", 1)})
          .ok());
  EXPECT_EQ(de_.stats().appends, 1u);
  EXPECT_EQ(de_.stats().permission_denials, 3u);
}

TEST_F(LogDeTest, StatsCount) {
  LogPool& pool = de_.create_pool("p");
  (void)pool.append_sync("me", record("a", 1));
  (void)pool.query_sync("me", {});
  EXPECT_EQ(de_.stats().appends, 1u);
  EXPECT_EQ(de_.stats().queries, 1u);
  EXPECT_EQ(de_.stats().records_scanned, 1u);
}

}  // namespace
}  // namespace knactor::de
