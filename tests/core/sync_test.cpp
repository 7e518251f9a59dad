#include "core/sync.h"

#include <gtest/gtest.h>

#include <map>

namespace knactor::core {
namespace {

using common::Value;

class SyncTest : public ::testing::Test {
 protected:
  SyncTest() : de_(clock_, de::LogDeProfile::instant()) {
    src_ = &de_.create_pool("motion");
    dst_ = &de_.create_pool("house");
  }

  Value reading(bool triggered, double kwh = 0) {
    Value v = Value::object();
    v.set("triggered", Value(triggered));
    v.set("kwh", Value(kwh));
    return v;
  }

  sim::VirtualClock clock_;
  de::LogDe de_;
  de::LogPool* src_ = nullptr;
  de::LogPool* dst_ = nullptr;
};

TEST_F(SyncTest, MovesRecordsThroughPipeline) {
  SyncIntegrator sync("s", de_);
  SyncRoute route;
  route.name = "r";
  route.source = src_;
  route.target = dst_;
  route.pipeline.push_back(de::LogOp::rename({{"triggered", "motion"}}));
  ASSERT_TRUE(sync.add_route(std::move(route)).ok());
  ASSERT_TRUE(sync.start().ok());

  (void)src_->append_sync("m", reading(true));
  auto moved = sync.run_round_sync();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 1u);
  auto out = dst_->query_sync("h", {});
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_TRUE(out.value()[0].get("motion")->as_bool());
  EXPECT_EQ(out.value()[0].get("triggered"), nullptr);
}

TEST_F(SyncTest, CursorPreventsDuplicates) {
  SyncIntegrator sync("s", de_);
  SyncRoute route;
  route.name = "r";
  route.source = src_;
  route.target = dst_;
  ASSERT_TRUE(sync.add_route(std::move(route)).ok());
  (void)src_->append_sync("m", reading(true));
  ASSERT_TRUE(sync.run_round_sync().ok());
  ASSERT_TRUE(sync.run_round_sync().ok());  // no new records
  EXPECT_EQ(dst_->size(), 1u);
  (void)src_->append_sync("m", reading(false));
  ASSERT_TRUE(sync.run_round_sync().ok());
  EXPECT_EQ(dst_->size(), 2u);
  EXPECT_EQ(sync.stats().records_moved, 2u);
}

TEST_F(SyncTest, FilterDropsRecords) {
  SyncIntegrator sync("s", de_);
  SyncRoute route;
  route.name = "r";
  route.source = src_;
  route.target = dst_;
  route.pipeline.push_back(de::LogOp::filter("kwh > 1").value());
  ASSERT_TRUE(sync.add_route(std::move(route)).ok());
  (void)src_->append_sync("m", reading(true, 0.5));
  (void)src_->append_sync("m", reading(true, 2.0));
  ASSERT_TRUE(sync.run_round_sync().ok());
  EXPECT_EQ(dst_->size(), 1u);
}

TEST_F(SyncTest, MultipleRoutes) {
  de::LogPool& lamp = de_.create_pool("lamp");
  SyncIntegrator sync("s", de_);
  SyncRoute r1;
  r1.name = "motion-to-house";
  r1.source = src_;
  r1.target = dst_;
  ASSERT_TRUE(sync.add_route(std::move(r1)).ok());
  SyncRoute r2;
  r2.name = "lamp-to-house";
  r2.source = &lamp;
  r2.target = dst_;
  ASSERT_TRUE(sync.add_route(std::move(r2)).ok());
  (void)src_->append_sync("m", reading(true));
  (void)lamp.append_sync("l", reading(false, 0.05));
  auto moved = sync.run_round_sync();
  EXPECT_EQ(moved.value(), 2u);
  EXPECT_EQ(dst_->size(), 2u);
}

TEST_F(SyncTest, DuplicateRouteNameRejected) {
  SyncIntegrator sync("s", de_);
  SyncRoute route;
  route.name = "r";
  route.source = src_;
  route.target = dst_;
  ASSERT_TRUE(sync.add_route(route).ok());
  EXPECT_FALSE(sync.add_route(route).ok());
}

TEST_F(SyncTest, RouteValidation) {
  SyncIntegrator sync("s", de_);
  SyncRoute incomplete;
  incomplete.name = "bad";
  EXPECT_FALSE(sync.add_route(incomplete).ok());
}

TEST_F(SyncTest, RemoveRoute) {
  SyncIntegrator sync("s", de_);
  SyncRoute route;
  route.name = "r";
  route.source = src_;
  route.target = dst_;
  ASSERT_TRUE(sync.add_route(std::move(route)).ok());
  ASSERT_TRUE(sync.remove_route("r").ok());
  EXPECT_FALSE(sync.remove_route("r").ok());
  (void)src_->append_sync("m", reading(true));
  ASSERT_TRUE(sync.run_round_sync().ok());
  EXPECT_EQ(dst_->size(), 0u);
}

TEST_F(SyncTest, RuntimeRepipe) {
  SyncIntegrator sync("s", de_);
  SyncRoute route;
  route.name = "r";
  route.source = src_;
  route.target = dst_;
  ASSERT_TRUE(sync.add_route(std::move(route)).ok());
  (void)src_->append_sync("m", reading(true, 5.0));
  ASSERT_TRUE(sync.run_round_sync().ok());
  EXPECT_EQ(dst_->size(), 1u);

  // Re-pipe at run-time: now only high-energy records flow.
  de::LogQuery pipeline;
  pipeline.push_back(de::LogOp::filter("kwh > 10").value());
  ASSERT_TRUE(sync.set_pipeline("r", std::move(pipeline)).ok());
  (void)src_->append_sync("m", reading(true, 1.0));
  (void)src_->append_sync("m", reading(true, 11.0));
  ASSERT_TRUE(sync.run_round_sync().ok());
  EXPECT_EQ(dst_->size(), 2u);
  EXPECT_EQ(sync.stats().reconfigurations, 1u);
  EXPECT_FALSE(sync.set_pipeline("ghost", {}).ok());
}

TEST_F(SyncTest, PeriodicTicksOnClock) {
  SyncIntegrator::Options options;
  options.interval = sim::kSecond;
  SyncIntegrator sync("s", de_, options);
  SyncRoute route;
  route.name = "r";
  route.source = src_;
  route.target = dst_;
  ASSERT_TRUE(sync.add_route(std::move(route)).ok());
  ASSERT_TRUE(sync.start().ok());
  (void)src_->append_sync("m", reading(true));
  clock_.run_until(clock_.now() + 3 * sim::kSecond);
  EXPECT_EQ(dst_->size(), 1u);
  EXPECT_GE(sync.stats().rounds, 2u);
  sync.stop();
}

TEST_F(SyncTest, PushAppendsFasterThanARoundAreRolledUpOnce) {
  // A push round drives the clock (query, then append), so on a timed
  // profile appends arriving every 0.5 ms land while a round is running.
  // Each one must be consumed exactly once: one rollup row per group, and
  // every record processed once.
  de::LogDe timed(clock_, de::LogDeProfile::zed());
  de::LogPool& readings = timed.create_pool("readings");
  de::LogPool& rollup = timed.create_pool("rollup");
  SyncIntegrator::Options options;
  options.push = true;
  SyncIntegrator sync("s", timed, options);
  SyncRoute route;
  route.name = "r";
  route.source = &readings;
  route.target = &rollup;
  route.pipeline.push_back(
      de::LogOp::aggregate({"id"}, {{"n", {"count", "id"}}}));
  ASSERT_TRUE(sync.add_route(std::move(route)).ok());
  ASSERT_TRUE(sync.start().ok());

  constexpr int kReadings = 60;
  for (int i = 0; i < kReadings; ++i) {
    clock_.schedule_at(i * 500 * sim::kMicrosecond, [&readings, i]() {
      readings.append("m", Value::object({{"id", i}}),
                      [](common::Result<std::uint64_t>) {});
    });
  }
  clock_.run_all();
  sync.stop();

  ASSERT_EQ(readings.size(), static_cast<std::size_t>(kReadings));
  auto rows = rollup.query_sync("h", {});
  ASSERT_TRUE(rows.ok());
  std::map<std::int64_t, int> rows_per_id;
  for (const Value& row : rows.value()) {
    EXPECT_EQ(row.get("n")->as_int(), 1);
    ++rows_per_id[row.get("id")->as_int()];
  }
  EXPECT_EQ(rows_per_id.size(), static_cast<std::size_t>(kReadings));
  for (const auto& [id, n] : rows_per_id) {
    EXPECT_EQ(n, 1) << "id " << id;
  }
  EXPECT_EQ(sync.stats().records_processed,
            static_cast<std::uint64_t>(kReadings));
  EXPECT_EQ(sync.stats().records_moved, static_cast<std::uint64_t>(kReadings));
  // Rounds coalesce: far fewer than one per append.
  EXPECT_LT(sync.stats().rounds, static_cast<std::uint64_t>(kReadings));
}

TEST_F(SyncTest, CountPassesConsolidation) {
  de::LogQuery pipeline;
  pipeline.push_back(de::LogOp::rename({{"a", "b"}}));
  pipeline.push_back(de::LogOp::project({"b"}));
  pipeline.push_back(de::LogOp::filter("b > 1").value());
  pipeline.push_back(de::LogOp::sort("b"));
  pipeline.push_back(de::LogOp::rename({{"b", "c"}}));
  pipeline.push_back(de::LogOp::drop({"x"}));
  // Unconsolidated: 6 passes. Consolidated: [rename+project+filter] +
  // [sort] + [rename+drop] = 3.
  EXPECT_EQ(SyncIntegrator::count_passes(pipeline, false), 6u);
  EXPECT_EQ(SyncIntegrator::count_passes(pipeline, true), 3u);
  EXPECT_EQ(SyncIntegrator::count_passes({}, true), 0u);
}

TEST_F(SyncTest, ConsolidationPreservesResults) {
  auto build_route = [&](de::LogPool* target) {
    SyncRoute route;
    route.name = "r";
    route.source = src_;
    route.target = target;
    route.pipeline.push_back(de::LogOp::filter("kwh > 0.5").value());
    route.pipeline.push_back(de::LogOp::rename({{"kwh", "energy"}}));
    route.pipeline.push_back(de::LogOp::sort("energy", true));
    return route;
  };
  for (int i = 0; i < 10; ++i) {
    (void)src_->append_sync("m", reading(i % 2 == 0, 0.3 * i));
  }
  de::LogPool& out_fused = de_.create_pool("fused");
  de::LogPool& out_separate = de_.create_pool("separate");

  SyncIntegrator::Options fused_opts;
  fused_opts.consolidate = true;
  SyncIntegrator fused("fused", de_, fused_opts);
  ASSERT_TRUE(fused.add_route(build_route(&out_fused)).ok());
  ASSERT_TRUE(fused.run_round_sync().ok());

  SyncIntegrator::Options separate_opts;
  separate_opts.consolidate = false;
  SyncIntegrator separate("separate", de_, separate_opts);
  ASSERT_TRUE(separate.add_route(build_route(&out_separate)).ok());
  ASSERT_TRUE(separate.run_round_sync().ok());

  auto a = out_fused.query_sync("q", {});
  auto b = out_separate.query_sync("q", {});
  ASSERT_EQ(a.value().size(), b.value().size());
  for (std::size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_TRUE(a.value()[i] == b.value()[i]);
  }
}

TEST_F(SyncTest, ConsolidationIsFasterOnTimedProfile) {
  de::LogDe timed(clock_, de::LogDeProfile::zed());
  de::LogPool& source = timed.create_pool("src");
  de::LogPool& t1 = timed.create_pool("t1");
  de::LogPool& t2 = timed.create_pool("t2");
  for (int i = 0; i < 500; ++i) {
    Value v = Value::object();
    v.set("kwh", Value(0.1 * i));
    (void)source.append_sync("m", std::move(v));
  }
  auto route = [&](de::LogPool* target) {
    SyncRoute r;
    r.name = "r";
    r.source = &source;
    r.target = target;
    r.pipeline.push_back(de::LogOp::filter("kwh > 1").value());
    r.pipeline.push_back(de::LogOp::rename({{"kwh", "e"}}));
    r.pipeline.push_back(de::LogOp::map("e2", "e * 2").value());
    return r;
  };

  SyncIntegrator::Options fused_opts;
  fused_opts.consolidate = true;
  SyncIntegrator fused("f", timed, fused_opts);
  ASSERT_TRUE(fused.add_route(route(&t1)).ok());
  sim::SimTime start = clock_.now();
  ASSERT_TRUE(fused.run_round_sync().ok());
  sim::SimTime fused_time = clock_.now() - start;

  SyncIntegrator::Options sep_opts;
  sep_opts.consolidate = false;
  SyncIntegrator separate("sep", timed, sep_opts);
  ASSERT_TRUE(separate.add_route(route(&t2)).ok());
  start = clock_.now();
  ASSERT_TRUE(separate.run_round_sync().ok());
  sim::SimTime separate_time = clock_.now() - start;

  EXPECT_LT(fused_time, separate_time);
}

TEST_F(SyncTest, ReconfigureTogglesConsolidation) {
  SyncIntegrator sync("s", de_);
  Value config = Value::object({{"consolidate", false}});
  EXPECT_TRUE(sync.reconfigure(config).ok());
  EXPECT_FALSE(sync.reconfigure(Value::object({{"bogus", 1}})).ok());
}

}  // namespace
}  // namespace knactor::core
