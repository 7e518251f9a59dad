#include "core/cast.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>

#include "de/persist/engine.h"

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

TEST_F(CastTest, BatchWindowCoalescesBursts) {
  // Without a batch window, a burst of N writes triggers ~N passes; with
  // one, the DE delivers the burst as one batch and one pass consumes it
  // (plus the initial pass at start).
  auto run_burst = [](sim::SimTime window) -> std::uint64_t {
    sim::VirtualClock clock;
    de::ObjectDe de(clock, de::ObjectDeProfile::redis());
    de::ObjectStore& src = de.create_store("src-store");
    de::ObjectStore& dst = de.create_store("dst-store");
    auto dxg = Dxg::parse(kSimpleSpec);
    CastIntegrator::Options options;
    options.batch_window = window;
    CastIntegrator cast("bw", de, dxg.take(), {{"A", &src}, {"B", &dst}},
                        options);
    EXPECT_TRUE(cast.start().ok());
    clock.run_all();
    std::uint64_t before = cast.stats().passes;
    // Burst: 10 writes spaced 2 ms apart (each would trigger its own pass
    // without batching; a 50 ms window swallows the whole burst).
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

TEST_F(CastTest, BatchedEventsStillPropagate) {
  CastIntegrator::Options options;
  options.batch_window = sim::from_ms(10.0);
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

// ---------------------------------------------------------------------------
// Incremental passes: a persistent view per alias, and re-evaluation of only
// the mapping instances whose reads changed.
// ---------------------------------------------------------------------------

class CastIncremental : public CastTest {
 protected:
  CastIncremental() { zones_ = &de_.create_store("zone-store"); }

  std::unique_ptr<CastIntegrator> make_cast3(const std::string& spec) {
    auto dxg = Dxg::parse(spec);
    EXPECT_TRUE(dxg.ok()) << (dxg.ok() ? "" : dxg.error().to_string());
    return std::make_unique<CastIntegrator>(
        "test", de_, dxg.take(),
        std::map<std::string, de::ObjectStore*>{
            {"A", src_}, {"B", dst_}, {"Z", zones_}},
        default_options(), nullptr, nullptr);
  }

  static std::uint64_t evaluated(const CastIntegrator& cast) {
    return cast.stats().instances_evaluated;
  }

  /// Runs passes until one writes nothing.
  static void converge(CastIntegrator& cast) {
    for (int i = 0; i < 8; ++i) {
      auto written = cast.run_pass_sync();
      ASSERT_TRUE(written.ok());
      if (written.value() == 0) return;
    }
    FAIL() << "did not converge";
  }

  de::ObjectStore* zones_ = nullptr;
};

constexpr const char* kRideSpec = R"(Input:
  A: rides
  B: quotes
  Z: zones
DXG:
  B.*:
    $for: A ride/
    fare: get(A, it).fare
    quoted: 'get(A, it).fare * get(Z, get(A, it).zone).surge'
)";

void put_rides(de::ObjectStore& rides, de::ObjectStore& zones, int n) {
  for (int z = 0; z < 2; ++z) {
    (void)zones.put_sync("svc", "zone/" + std::to_string(z),
                         Value::object({{"surge", 1.0}}));
  }
  for (int i = 0; i < n; ++i) {
    (void)rides.put_sync(
        "svc", "ride/" + std::to_string(i),
        Value::object({{"fare", 10 + i},
                       {"zone", Value("zone/" + std::to_string(i % 2))}}));
  }
}

TEST_F(CastIncremental, OneRideChangeEvaluatesPerMappingNotPerRide) {
  constexpr int kRides = 500;
  put_rides(*src_, *zones_, kRides);
  auto cast = make_cast3(kRideSpec);
  converge(*cast);
  ASSERT_EQ(dst_->size(), static_cast<std::size_t>(kRides));
  const std::uint64_t before = evaluated(*cast);
  const std::uint64_t skipped_before = cast->stats().instances_skipped;

  (void)src_->patch_sync("svc", "ride/7", Value::object({{"fare", 1000}}));
  converge(*cast);
  EXPECT_EQ(dst_->peek("ride/7")->data->get("fare")->as_int(), 1000);
  EXPECT_DOUBLE_EQ(dst_->peek("ride/7")->data->get("quoted")->as_number(),
                   1000.0);
  // Two mappings, re-evaluated once for the source change and once for
  // their own write: O(mappings), not O(rides).
  EXPECT_LE(evaluated(*cast) - before, 4u);
  EXPECT_GE(cast->stats().instances_skipped - skipped_before,
            2u * (2u * kRides - 2u));
}

TEST_F(CastIncremental, ZoneChangesRequoteEveryDependentRide) {
  constexpr int kRides = 40;
  put_rides(*src_, *zones_, kRides);
  auto cast = make_cast3(std::string(kRideSpec) +
                         "    zones: len(keys(Z))\n");
  converge(*cast);

  // get(Z, get(A, it).zone) reads the key its instance resolved: a surge
  // in zone/0 re-quotes exactly the rides in zone/0.
  std::uint64_t before = evaluated(*cast);
  (void)zones_->patch_sync("svc", "zone/0", Value::object({{"surge", 2.0}}));
  converge(*cast);
  // 20 quotes and, through keys(Z), all 40 `zones` re-evaluated; then the
  // 3 instances of each of the 20 written rides re-checked against their
  // own write.
  EXPECT_EQ(evaluated(*cast) - before, 20u + kRides + 3u * 20u);
  for (int i = 0; i < kRides; ++i) {
    const double fare = 10 + i;
    const double surge = i % 2 == 0 ? 2.0 : 1.0;
    EXPECT_DOUBLE_EQ(dst_->peek("ride/" + std::to_string(i))
                         ->data->get("quoted")
                         ->as_number(),
                     fare * surge)
        << i;
  }

  // keys(Z) reads the whole alias: a new zone re-evaluates every ride's
  // `zones` and nothing else.
  before = evaluated(*cast);
  (void)zones_->put_sync("svc", "zone/2", Value::object({{"surge", 3.0}}));
  converge(*cast);
  EXPECT_EQ(evaluated(*cast) - before, kRides + 3u * kRides);
  for (int i = 0; i < kRides; ++i) {
    EXPECT_EQ(dst_->peek("ride/" + std::to_string(i))
                  ->data->get("zones")
                  ->as_int(),
              3)
        << i;
  }
}

TEST_F(CastIncremental, FailedPatchLeavesInstanceDirty) {
  (void)dst_->put_sync("svc", "state", Value::object({{"copied", 1}}));
  (void)src_->put_sync("svc", "state", Value::object({{"value", 2}}));
  auto role = [](std::string name, std::set<de::Verb> verbs) {
    return de::Role{std::move(name),
                    {de::PolicyRule{"*", "", std::move(verbs), {}, {}}}};
  };
  const std::set<de::Verb> read = {de::Verb::kGet, de::Verb::kList,
                                   de::Verb::kWatch};
  std::set<de::Verb> all = read;
  all.insert({de::Verb::kCreate, de::Verb::kUpdate, de::Verb::kDelete});
  ASSERT_TRUE(de_.rbac().add_role(role("all", all)).ok());
  ASSERT_TRUE(de_.rbac().add_role(role("reader", read)).ok());
  ASSERT_TRUE(de_.rbac().bind("svc", "all").ok());
  auto cast = make_cast(kSimpleSpec);
  ASSERT_TRUE(de_.rbac().bind(cast->principal(), "reader").ok());
  de_.rbac().set_enabled(true);

  // The pass writes copied=2 into its view, but the patch is denied.
  auto denied = cast->run_pass_sync();
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied.value(), 0u);
  EXPECT_EQ(cast->stats().failed_passes, 1u);
  EXPECT_EQ(cast->stats().eval_errors, 0u);  // a write failure, not an eval one
  EXPECT_EQ(dst_->peek("state")->data->get("copied")->as_int(), 1);

  // The next pass re-reads the key it wrote instead of trusting its view.
  ASSERT_TRUE(de_.rbac().bind(cast->principal(), "all").ok());
  auto written = cast->run_pass_sync();
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), 1u);
  EXPECT_EQ(dst_->peek("state")->data->get("copied")->as_int(), 2);
}

TEST_F(CastIncremental, RecreatedKeyWithReissuedVersionIsSeen) {
  // The DE journals every commit; recovery from a journal that lost its
  // tail rolls the version counter back, so the next write re-issues a
  // version the integrator has already seen, with different content.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "kn_cast_reissue_" +
                          std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(dir);
  de::persist::Engine engine(de::persist::EngineOptions{dir, 0});
  ASSERT_TRUE(de_.enable_persistence(&engine).ok());
  auto cast = make_cast(
      "Input:\n  A: src\n  B: dst\nDXG:\n  B.*:\n    $for: A item/\n"
      "    out: get(A, it).v\n");

  // Delete and re-create between two passes.
  (void)src_->put_sync("svc", "item/0", Value::object({{"v", 1}}));
  converge(*cast);
  (void)src_->remove_sync("svc", "item/0");
  (void)src_->put_sync("svc", "item/0", Value::object({{"v", 2}}));
  converge(*cast);
  EXPECT_EQ(dst_->peek("item/0")->data->get("out")->as_int(), 2);

  // item/1 and its in-sync target land after the journal's durable prefix.
  const std::string journal = engine.journal_path(engine.generation());
  const auto durable_bytes = fs::file_size(journal);
  auto populate = [&](int v) {
    auto src = src_->put_sync("svc", "item/1", Value::object({{"v", v}}));
    auto dst = dst_->put_sync("svc", "item/1", Value::object({{"out", 1}}));
    EXPECT_TRUE(src.ok() && dst.ok());
    return std::make_pair(src.value(), dst.value());
  };
  const auto first = populate(1);
  converge(*cast);
  EXPECT_EQ(dst_->peek("item/1")->data->get("out")->as_int(), 1);
  fs::resize_file(journal, durable_bytes);
  de_.restart();
  ASSERT_EQ(src_->peek("item/1"), nullptr);
  // Same keys, same versions; only the source's content differs. The view
  // diffs by payload handle, so the change is still seen.
  ASSERT_EQ(populate(3), first);
  converge(*cast);
  EXPECT_EQ(dst_->peek("item/1")->data->get("out")->as_int(), 3);
  fs::remove_all(dir);
}

TEST_F(CastIncremental, ReconfigureAndPushdownTogglesResync) {
  for (int i = 0; i < 10; ++i) {
    (void)src_->put_sync("svc", "item/" + std::to_string(i),
                         Value::object({{"v", i}}));
  }
  constexpr const char* kSpec =
      "Input:\n  A: src\n  B: dst\nDXG:\n  B.*:\n    $for: A item/\n"
      "    out: get(A, it).v\n";
  auto cast = make_cast(kSpec);
  converge(*cast);
  // A quiet pass replays every memo.
  std::uint64_t before = evaluated(*cast);
  ASSERT_TRUE(cast->run_pass_sync().ok());
  EXPECT_EQ(evaluated(*cast), before);

  // Each resync drops every memo: the next pass evaluates all 10.
  ASSERT_TRUE(cast->reconfigure_yaml(kSpec).ok());
  before = evaluated(*cast);
  ASSERT_TRUE(cast->run_pass_sync().ok());
  EXPECT_EQ(evaluated(*cast) - before, 10u);

  ASSERT_TRUE(cast->enable_pushdown().ok());
  before = evaluated(*cast);
  ASSERT_TRUE(cast->run_pass_sync().ok());
  EXPECT_EQ(evaluated(*cast) - before, 10u);
  before = evaluated(*cast);
  ASSERT_TRUE(cast->run_pass_sync().ok());  // UDF passes are incremental too
  EXPECT_EQ(evaluated(*cast), before);

  cast->disable_pushdown();
  before = evaluated(*cast);
  ASSERT_TRUE(cast->run_pass_sync().ok());
  EXPECT_EQ(evaluated(*cast) - before, 10u);
}

TEST_F(CastIncremental, SetCurrencyRatesInvalidatesMemos) {
  const std::map<std::string, double> defaults = {
      {"USD", 1.0},  {"EUR", 0.92}, {"GBP", 0.79}, {"JPY", 157.0},
      {"CAD", 1.37}, {"CHF", 0.90}, {"CNY", 7.25}, {"AUD", 1.50},
  };
  (void)src_->put_sync("svc", "state", Value::object({{"usd", 100}}));
  auto cast = make_cast(
      "Input:\n  A: src\n  B: dst\nDXG:\n  B:\n"
      "    eur: currency_convert(A.usd, \"USD\", \"EUR\")\n");
  converge(*cast);
  EXPECT_DOUBLE_EQ(dst_->peek("state")->data->get("eur")->as_number(), 92.0);
  auto rates = defaults;
  rates["EUR"] = 0.5;
  expr::FunctionRegistry::set_currency_rates(rates);
  converge(*cast);
  expr::FunctionRegistry::set_currency_rates(defaults);
  EXPECT_DOUBLE_EQ(dst_->peek("state")->data->get("eur")->as_number(), 50.0);
}

TEST_F(CastIncremental, ComprehensionVariablesShadowAliasesAndIt) {
  // Inside the comprehension `it` is the loop item, so get(A, it) is a
  // dynamic-key read of A (every key), not the instance's own key; and the
  // loop variable named A is an item, not the alias.
  (void)zones_->put_sync("svc", "peers",
                         Value::object({{"of", Value::array({"item/1",
                                                             "item/2"})}}));
  for (int i = 0; i < 3; ++i) {
    (void)src_->put_sync(
        "svc", "item/" + std::to_string(i),
        Value::object({{"v", i}, {"tags", Value::array({"x", "y"})}}));
  }
  auto cast = make_cast3(R"(Input:
  A: src
  B: dst
  Z: zones
DXG:
  B.*:
    $for: A item/
    peer_sum: 'sum([get(A, it).v for it in Z.peers.of])'
    tags: '[A for A in get(A, it).tags]'
)");
  converge(*cast);
  EXPECT_EQ(dst_->peek("item/0")->data->get("peer_sum")->as_int(), 3);
  EXPECT_EQ(dst_->peek("item/0")->data->get("tags")->as_array().size(), 2u);

  (void)src_->patch_sync("svc", "item/2", Value::object({{"v", 10}}));
  (void)src_->patch_sync("svc", "item/0",
                         Value::object({{"tags", Value::array({"z"})}}));
  converge(*cast);
  EXPECT_EQ(dst_->peek("item/0")->data->get("peer_sum")->as_int(), 11);
  EXPECT_EQ(dst_->peek("item/1")->data->get("peer_sum")->as_int(), 11);
  EXPECT_EQ(dst_->peek("item/0")->data->get("tags")->as_array(),
            Value::array({"z"}).as_array());
}

TEST_F(CastIncremental, NotReadyAndErrorOutcomesKeepTheirCounters) {
  for (int i = 0; i < 5; ++i) {
    (void)src_->put_sync("svc", "item/" + std::to_string(i),
                         Value::object({{"v", i}}));
  }
  auto cast = make_cast(
      "Input:\n  A: src\n  B: dst\nDXG:\n  B.*:\n    $for: A item/\n"
      "    out: get(A, it).v\n    later: get(A, it).missing\n"
      "    bad: get(A, it).v + \"str\"\n");
  converge(*cast);
  // Every quiet pass replays 5 not-ready and 5 error outcomes, exactly as
  // a full re-evaluation would count them.
  for (int pass = 0; pass < 3; ++pass) {
    const CastStats before = cast->stats();
    ASSERT_TRUE(cast->run_pass_sync().ok());
    const CastStats& after = cast->stats();
    EXPECT_EQ(after.fields_skipped_not_ready - before.fields_skipped_not_ready,
              5u);
    EXPECT_EQ(after.eval_errors - before.eval_errors, 5u);
    EXPECT_EQ(after.instances_evaluated, before.instances_evaluated);
    EXPECT_EQ(after.instances_skipped - before.instances_skipped, 15u);
  }
  // The dependency arrives: only its instance re-evaluates.
  (void)src_->patch_sync("svc", "item/3", Value::object({{"missing", 7}}));
  const CastStats before = cast->stats();
  converge(*cast);
  EXPECT_EQ(dst_->peek("item/3")->data->get("later")->as_int(), 7);
  EXPECT_LE(cast->stats().instances_evaluated - before.instances_evaluated,
            6u);
}

}  // namespace
}  // namespace knactor::core
