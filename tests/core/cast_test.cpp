#include "core/cast.h"

#include <gtest/gtest.h>

namespace knactor::core {
namespace {

using common::Value;

class CastTest : public ::testing::Test {
 protected:
  CastTest() : de_(clock_, de::ObjectDeProfile::instant()) {
    src_ = &de_.create_store("src-store");
    dst_ = &de_.create_store("dst-store");
  }

  static CastIntegrator::Options default_options() {
    CastIntegrator::Options options;
    options.compute = sim::LatencyModel();  // zero-cost passes for tests
    return options;
  }

  std::unique_ptr<CastIntegrator> make_cast(
      const std::string& spec,
      CastIntegrator::Options options = default_options()) {
    auto dxg = Dxg::parse(spec);
    EXPECT_TRUE(dxg.ok()) << (dxg.ok() ? "" : dxg.error().to_string());
    return std::make_unique<CastIntegrator>(
        "test", de_, dxg.take(),
        std::map<std::string, de::ObjectStore*>{{"A", src_}, {"B", dst_}},
        options, nullptr, nullptr);
  }

  sim::VirtualClock clock_;
  de::ObjectDe de_;
  de::ObjectStore* src_ = nullptr;
  de::ObjectStore* dst_ = nullptr;
};

constexpr const char* kSimpleSpec =
    "Input:\n  A: src\n  B: dst\nDXG:\n  B:\n    copied: A.value\n";

TEST_F(CastTest, CopiesFieldAcrossStores) {
  auto cast = make_cast(kSimpleSpec);
  ASSERT_TRUE(cast->start().ok());
  (void)src_->put_sync("svc", "state", Value::object({{"value", 42}}));
  clock_.run_all();
  const de::StateObject* out = dst_->peek("state");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->data->get("copied")->as_int(), 42);
  EXPECT_GE(cast->stats().passes, 1u);
  EXPECT_EQ(cast->stats().fields_written, 1u);
}

TEST_F(CastTest, PicksUpPreexistingState) {
  (void)src_->put_sync("svc", "state", Value::object({{"value", 7}}));
  auto cast = make_cast(kSimpleSpec);
  ASSERT_TRUE(cast->start().ok());
  clock_.run_all();
  ASSERT_NE(dst_->peek("state"), nullptr);
  EXPECT_EQ(dst_->peek("state")->data->get("copied")->as_int(), 7);
}

TEST_F(CastTest, ConvergesWithoutOscillation) {
  auto cast = make_cast(kSimpleSpec);
  ASSERT_TRUE(cast->start().ok());
  (void)src_->put_sync("svc", "state", Value::object({{"value", 1}}));
  clock_.run_all();
  std::uint64_t passes = cast->stats().passes;
  std::uint64_t written = cast->stats().fields_written;
  // No further activity once in sync.
  clock_.run_all();
  EXPECT_EQ(cast->stats().fields_written, written);
  EXPECT_LE(cast->stats().passes, passes + 2);
}

TEST_F(CastTest, NotReadyMappingsSkipped) {
  auto cast = make_cast(
      "Input:\n  A: src\n  B: dst\nDXG:\n  B:\n    sum: A.x + A.y\n");
  ASSERT_TRUE(cast->start().ok());
  (void)src_->put_sync("svc", "state", Value::object({{"x", 1}}));
  clock_.run_all();
  EXPECT_EQ(dst_->peek("state"), nullptr);  // y missing -> no write
  EXPECT_GE(cast->stats().fields_skipped_not_ready, 1u);
  (void)src_->patch_sync("svc", "state", Value::object({{"y", 2}}));
  clock_.run_all();
  ASSERT_NE(dst_->peek("state"), nullptr);
  EXPECT_EQ(dst_->peek("state")->data->get("sum")->as_int(), 3);
}

TEST_F(CastTest, DependencyChainsResolveAcrossRounds) {
  // B.second depends on B.first which depends on A.seed: two rounds.
  auto cast = make_cast(
      "Input:\n  A: src\n  B: dst\nDXG:\n"
      "  B:\n    first: A.seed * 2\n    second: B.first + 1\n");
  ASSERT_TRUE(cast->start().ok());
  (void)src_->put_sync("svc", "state", Value::object({{"seed", 10}}));
  clock_.run_all();
  const de::StateObject* out = dst_->peek("state");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->data->get("first")->as_int(), 20);
  EXPECT_EQ(out->data->get("second")->as_int(), 21);
}

TEST_F(CastTest, ThisRefersToTargetObject) {
  auto cast = make_cast(
      "Input:\n  A: src\n  B: dst\nDXG:\n"
      "  B:\n    doubled: this.base * 2\n");
  ASSERT_TRUE(cast->start().ok());
  (void)dst_->put_sync("svc", "state", Value::object({{"base", 6}}));
  clock_.run_all();
  EXPECT_EQ(dst_->peek("state")->data->get("doubled")->as_int(), 12);
}

TEST_F(CastTest, NamedTargetObject) {
  auto cast = make_cast(
      "Input:\n  A: src\n  B: dst\nDXG:\n  B.report:\n    total: A.value\n");
  ASSERT_TRUE(cast->start().ok());
  (void)src_->put_sync("svc", "state", Value::object({{"value", 5}}));
  clock_.run_all();
  ASSERT_NE(dst_->peek("report"), nullptr);
  EXPECT_EQ(dst_->peek("report")->data->get("total")->as_int(), 5);
}

TEST_F(CastTest, ReadsNamedObjectsOfSourceStore) {
  auto cast = make_cast(
      "Input:\n  A: src\n  B: dst\nDXG:\n  B:\n    got: A.order.total\n");
  ASSERT_TRUE(cast->start().ok());
  (void)src_->put_sync("svc", "order", Value::object({{"total", 99}}));
  clock_.run_all();
  EXPECT_EQ(dst_->peek("state")->data->get("got")->as_int(), 99);
}

TEST_F(CastTest, PatchPreservesServiceOwnedFields) {
  auto cast = make_cast(kSimpleSpec);
  ASSERT_TRUE(cast->start().ok());
  (void)dst_->put_sync("svc", "state", Value::object({{"own", "mine"}}));
  (void)src_->put_sync("svc", "state", Value::object({{"value", 1}}));
  clock_.run_all();
  const de::StateObject* out = dst_->peek("state");
  EXPECT_EQ(out->data->get("own")->as_string(), "mine");
  EXPECT_EQ(out->data->get("copied")->as_int(), 1);
}

TEST_F(CastTest, StartFailsWhenAliasUnbound) {
  auto dxg = Dxg::parse("Input:\n  A: src\n  Z: zap\nDXG:\n  A:\n    x: Z.v\n");
  CastIntegrator cast("test", de_, dxg.take(),
                      {{"A", src_}});
  auto status = cast.start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Error::Code::kFailedPrecondition);
}

TEST_F(CastTest, StrictModeRejectsCycles) {
  CastIntegrator::Options options;
  options.strict = true;
  auto dxg = Dxg::parse(
      "Input:\n  A: src\n  B: dst\nDXG:\n"
      "  A:\n    x: B.y\n  B:\n    y: A.x\n");
  CastIntegrator cast("test", de_, dxg.take(),
                      {{"A", src_}, {"B", dst_}}, options);
  EXPECT_FALSE(cast.start().ok());
}

TEST_F(CastTest, RuntimeReconfigurationSwapsLogic) {
  auto cast = make_cast(kSimpleSpec);
  ASSERT_TRUE(cast->start().ok());
  (void)src_->put_sync("svc", "state", Value::object({{"value", 5}}));
  clock_.run_all();
  EXPECT_EQ(dst_->peek("state")->data->get("copied")->as_int(), 5);

  // Reconfigure: now also compute a derived field (the T2-style change).
  ASSERT_TRUE(cast->reconfigure_yaml(
                       "Input:\n  A: src\n  B: dst\nDXG:\n"
                       "  B:\n    copied: A.value\n"
                       "    flag: '\"big\" if A.value > 3 else \"small\"'\n")
                  .ok());
  clock_.run_all();
  EXPECT_EQ(dst_->peek("state")->data->get("flag")->as_string(), "big");
  EXPECT_EQ(cast->stats().reconfigurations, 1u);
}

TEST_F(CastTest, ReconfigureRejectsUnboundAlias) {
  auto cast = make_cast(kSimpleSpec);
  ASSERT_TRUE(cast->start().ok());
  auto status = cast->reconfigure_yaml(
      "Input:\n  A: src\n  New: other\nDXG:\n  A:\n    x: New.y\n");
  EXPECT_FALSE(status.ok());
  // After binding the store, the same reconfiguration succeeds.
  de::ObjectStore& other = de_.create_store("other-store");
  cast->bind_store("New", other);
  EXPECT_TRUE(cast->reconfigure_yaml(
                      "Input:\n  A: src\n  New: other\nDXG:\n  A:\n    x: New.y\n")
                  .ok());
}

TEST_F(CastTest, StopHaltsProcessing) {
  auto cast = make_cast(kSimpleSpec);
  ASSERT_TRUE(cast->start().ok());
  clock_.run_all();
  cast->stop();
  (void)src_->put_sync("svc", "state", Value::object({{"value", 9}}));
  clock_.run_all();
  EXPECT_EQ(dst_->peek("state"), nullptr);
}

TEST_F(CastTest, PollingModeRunsOnInterval) {
  CastIntegrator::Options options;
  options.poll_interval = sim::from_ms(100);
  auto cast = make_cast(kSimpleSpec, options);
  ASSERT_TRUE(cast->start().ok());
  // Polling reschedules forever, so drive the clock by bounded windows.
  clock_.run_until(clock_.now() + sim::from_ms(50));  // initial pass only
  (void)src_->put_sync("svc", "state", Value::object({{"value", 3}}));
  clock_.run_until(clock_.now() + sim::from_ms(500));
  ASSERT_NE(dst_->peek("state"), nullptr);
  EXPECT_EQ(dst_->peek("state")->data->get("copied")->as_int(), 3);
  cast->stop();
}

TEST_F(CastTest, DebounceCoalescesBursts) {
  // Without debounce, a burst of N writes triggers ~N passes; with it, the
  // burst collapses into one (plus the initial pass at start).
  auto run_burst = [this](sim::SimTime debounce) -> std::uint64_t {
    sim::VirtualClock clock;
    de::ObjectDe de(clock, de::ObjectDeProfile::redis());
    de::ObjectStore& src = de.create_store("src-store");
    de::ObjectStore& dst = de.create_store("dst-store");
    auto dxg = Dxg::parse(kSimpleSpec);
    CastIntegrator::Options options;
    options.debounce = debounce;
    CastIntegrator cast("db", de, dxg.take(), {{"A", &src}, {"B", &dst}},
                        options);
    EXPECT_TRUE(cast.start().ok());
    clock.run_all();
    std::uint64_t before = cast.stats().passes;
    // Burst: 10 writes spaced 2 ms apart (each would trigger its own pass
    // without debouncing; a 50 ms window swallows the whole burst).
    for (int i = 0; i < 10; ++i) {
      clock.schedule_after(sim::from_ms(2.0 * i), [&src, i]() {
        src.put("svc", "state", Value::object({{"value", i}}),
                [](common::Result<std::uint64_t>) {});
      });
    }
    clock.run_all();
    std::uint64_t passes = cast.stats().passes - before;
    // Either way the last write propagates.
    EXPECT_EQ(dst.peek("state")->data->get("copied")->as_int(),
              src.peek("state")->data->get("value")->as_int());
    cast.stop();
    return passes;
  };
  std::uint64_t without = run_burst(0);
  std::uint64_t with = run_burst(sim::from_ms(50.0));
  EXPECT_GT(without, 3u);
  EXPECT_LE(with, 3u);
  EXPECT_LT(with, without);
}

TEST_F(CastTest, DebouncedEventsStillPropagate) {
  CastIntegrator::Options options;
  options.debounce = sim::from_ms(10.0);
  auto cast = make_cast(kSimpleSpec, options);
  ASSERT_TRUE(cast->start().ok());
  clock_.run_all();
  (void)src_->put_sync("svc", "state", Value::object({{"value", 7}}));
  clock_.run_all();
  ASSERT_NE(dst_->peek("state"), nullptr);
  EXPECT_EQ(dst_->peek("state")->data->get("copied")->as_int(), 7);
}

TEST_F(CastTest, ComputeLatencyCharged) {
  CastIntegrator::Options options;
  options.compute = sim::LatencyModel::constant_ms(5.0);
  auto cast = make_cast(kSimpleSpec, options);
  ASSERT_TRUE(cast->start().ok());
  sim::SimTime start = clock_.now();
  (void)src_->put_sync("svc", "state", Value::object({{"value", 1}}));
  clock_.run_all();
  EXPECT_GE(clock_.now() - start, sim::from_ms(5.0));
}

TEST_F(CastTest, EvalErrorsCountedNotFatal) {
  auto cast = make_cast(
      "Input:\n  A: src\n  B: dst\nDXG:\n"
      "  B:\n    bad: A.value + \"str\"\n    good: A.value\n");
  ASSERT_TRUE(cast->start().ok());
  (void)src_->put_sync("svc", "state", Value::object({{"value", 2}}));
  clock_.run_all();
  EXPECT_GE(cast->stats().eval_errors, 1u);
  ASSERT_NE(dst_->peek("state"), nullptr);
  EXPECT_EQ(dst_->peek("state")->data->get("good")->as_int(), 2);
}

// ---------------------------------------------------------------------------
// Push-down.
// ---------------------------------------------------------------------------

TEST_F(CastTest, PushdownProducesSameResult) {
  auto cast = make_cast(kSimpleSpec);
  ASSERT_TRUE(cast->enable_pushdown().ok());
  ASSERT_TRUE(cast->start().ok());
  EXPECT_TRUE(cast->pushdown_enabled());
  (void)src_->put_sync("svc", "state", Value::object({{"value", 11}}));
  clock_.run_all();
  ASSERT_NE(dst_->peek("state"), nullptr);
  EXPECT_EQ(dst_->peek("state")->data->get("copied")->as_int(), 11);
}

TEST_F(CastTest, PushdownRequiresUdfSupport) {
  de::ObjectDe apiserver(clock_, de::ObjectDeProfile::apiserver());
  de::ObjectStore& a = apiserver.create_store("src-store");
  de::ObjectStore& b = apiserver.create_store("dst-store");
  auto dxg = Dxg::parse(kSimpleSpec);
  CastIntegrator cast("test", apiserver, dxg.take(), {{"A", &a}, {"B", &b}});
  auto status = cast.enable_pushdown();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Error::Code::kFailedPrecondition);
}

TEST_F(CastTest, PushdownUsesEngineOpsNotClientOps) {
  auto cast = make_cast(kSimpleSpec);
  ASSERT_TRUE(cast->enable_pushdown().ok());
  ASSERT_TRUE(cast->start().ok());
  std::uint64_t client_reads_before = de_.stats().reads;
  std::uint64_t lists_before = de_.stats().lists;
  (void)src_->put_sync("svc", "state", Value::object({{"value", 1}}));
  clock_.run_all();
  EXPECT_EQ(de_.stats().reads, client_reads_before);
  EXPECT_EQ(de_.stats().lists, lists_before);
  EXPECT_GT(de_.stats().engine_ops, 0u);
}

TEST_F(CastTest, PushdownIsFasterOnRedisProfile) {
  de::ObjectDe redis(clock_, de::ObjectDeProfile::redis());
  de::ObjectStore& a = redis.create_store("src-store");
  de::ObjectStore& b = redis.create_store("dst-store");

  auto run_exchange = [&](bool pushdown) -> sim::SimTime {
    auto dxg = Dxg::parse(kSimpleSpec);
    CastIntegrator cast("test", redis, dxg.take(), {{"A", &a}, {"B", &b}});
    if (pushdown) {
      EXPECT_TRUE(cast.enable_pushdown().ok());
    }
    EXPECT_TRUE(cast.start().ok());
    clock_.run_all();
    sim::SimTime start = clock_.now();
    (void)a.put_sync("svc", "state",
                     Value::object({{"value", pushdown ? 1 : 2}}));
    clock_.run_all();
    sim::SimTime elapsed = clock_.now() - start;
    cast.stop();
    cast.disable_pushdown();
    (void)a.remove_sync("svc", "state");
    (void)b.remove_sync("svc", "state");
    clock_.run_all();
    return elapsed;
  };

  sim::SimTime watch_driven = run_exchange(false);
  sim::SimTime pushdown = run_exchange(true);
  EXPECT_LT(pushdown, watch_driven);
}

TEST_F(CastTest, DisablePushdownRestoresWatches) {
  auto cast = make_cast(kSimpleSpec);
  ASSERT_TRUE(cast->start().ok());
  clock_.run_all();
  ASSERT_TRUE(cast->enable_pushdown().ok());
  cast->disable_pushdown();
  EXPECT_FALSE(cast->pushdown_enabled());
  (void)src_->put_sync("svc", "state", Value::object({{"value", 4}}));
  clock_.run_all();
  EXPECT_EQ(dst_->peek("state")->data->get("copied")->as_int(), 4);
}

TEST_F(CastTest, PushdownReconfigurationTakesEffect) {
  auto cast = make_cast(kSimpleSpec);
  ASSERT_TRUE(cast->enable_pushdown().ok());
  ASSERT_TRUE(cast->start().ok());
  (void)src_->put_sync("svc", "state", Value::object({{"value", 2}}));
  clock_.run_all();
  ASSERT_TRUE(cast->reconfigure_yaml(
                      "Input:\n  A: src\n  B: dst\nDXG:\n"
                      "  B:\n    copied: A.value * 100\n")
                  .ok());
  EXPECT_TRUE(cast->pushdown_enabled());
  (void)src_->put_sync("svc", "state", Value::object({{"value", 3}}));
  clock_.run_all();
  EXPECT_EQ(dst_->peek("state")->data->get("copied")->as_int(), 300);
}

TEST_F(CastTest, RunPassSyncManualDrive) {
  auto cast = make_cast(kSimpleSpec);
  // Never started: manual passes still work.
  (void)src_->put_sync("svc", "state", Value::object({{"value", 6}}));
  auto written = cast->run_pass_sync();
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), 1u);
  EXPECT_EQ(dst_->peek("state")->data->get("copied")->as_int(), 6);
}

TEST_F(CastTest, FanOutReadsEarlierInPassWritesThroughThisAndAlias) {
  // Within a pass, a later mapping sees an earlier mapping's write for the
  // same instance, through `this` and through the target alias, so every
  // instance converges in the first pass and the second finds it in sync.
  constexpr int kItems = 2000;
  for (int i = 0; i < kItems; ++i) {
    (void)src_->put_sync("svc", "item/" + std::to_string(i),
                         Value::object({{"v", i}}));
  }
  (void)src_->put_sync("svc", "other/0", Value::object({{"v", -1}}));
  auto cast = make_cast(R"(Input:
  A: src
  B: dst
DXG:
  B.*:
    $for: A item/
    base: get(A, it).v * 2
    via_this: this.base + 1
    via_alias: get(B, it).base + 10
)");
  auto written = cast->run_pass_sync();
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), 3u * kItems);
  EXPECT_EQ(cast->stats().fields_written, 3u * kItems);
  EXPECT_EQ(cast->stats().passes, 2u);
  EXPECT_EQ(cast->stats().eval_errors, 0u);
  ASSERT_EQ(dst_->size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    const de::StateObject* out = dst_->peek("item/" + std::to_string(i));
    ASSERT_NE(out, nullptr) << i;
    EXPECT_EQ(out->data->get("base")->as_int(), 2 * i);
    EXPECT_EQ(out->data->get("via_this")->as_int(), 2 * i + 1);
    EXPECT_EQ(out->data->get("via_alias")->as_int(), 2 * i + 10);
  }
  // Converged: a further pass writes nothing.
  auto again = cast->run_pass_sync();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
  EXPECT_EQ(cast->stats().fields_written, 3u * kItems);
}

}  // namespace
}  // namespace knactor::core
