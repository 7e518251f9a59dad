// Chaos differential tests (the Fig. 8 experiment, §3.3): run the retail
// composition under hundreds of seeded fault plans and assert that the
// data-centric pipeline always converges to the fault-free oracle state
// once faults heal — while the API-centric RPC baseline is allowed to
// degrade and needs explicit timeout/retry configuration to survive.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/fleet_telemetry.h"
#include "apps/retail_knactor.h"
#include "apps/retail_rpc.h"
#include "apps/ride_hailing.h"
#include "core/runtime.h"
#include "de/log.h"
#include "net/broker.h"
#include "sim/fault.h"

#include "chaos_harness.h"

namespace knactor {
namespace {

using common::Value;

// ---------------------------------------------------------------------------
// Retail knactor trial
// ---------------------------------------------------------------------------

// The knactor composition exchanges through the Object DE, not the wire, so
// its chaos surface is the crash windows: the DE itself (durable profile,
// state kept across restart) and the three pipeline knactors. The integrator retries
// failed passes; reconcilers are resynced at heal time (the Kubernetes
// re-list pattern) — no other recovery logic exists anywhere.
struct RetailTrialResult {
  bool completed = false;       // order shipped during the chaos run
  bool converged = false;       // post-heal state == oracle
  std::string fingerprint;
  std::string schedule;         // serialized crash/restart fault records
  std::string sub_log;          // filtered-subscription deliveries, in order
  std::uint64_t sub_filtered = 0;  // commits the predicate rejected
  std::uint64_t failed_passes = 0;
  std::uint64_t cast_retries = 0;
};

const std::vector<std::string> kCrashTargets = {"de", "checkout", "payment",
                                                "shipping"};

sim::FaultPlan retail_plan(std::uint64_t seed) {
  sim::FaultPlan::RandomOptions opts;
  opts.horizon = sim::kSecond;
  opts.crash_targets = kCrashTargets;
  opts.max_crashes = 3;
  opts.min_window = 20 * sim::kMillisecond;
  opts.max_window = 250 * sim::kMillisecond;
  return sim::FaultPlan::random(seed, opts);
}

RetailTrialResult run_retail_trial(std::uint64_t seed, bool inject,
                                   sim::SimTime batch_window = 0,
                                   std::size_t shards = 1,
                                   bool filtered_sub = false) {
  core::Runtime runtime;
  apps::RetailKnactorOptions options;
  options.de_profile = de::ObjectDeProfile::apiserver();  // durable
  options.shipment_processing = sim::LatencyModel::constant_ms(10.0);
  options.payment_processing = sim::LatencyModel::constant_ms(1.0);
  options.integrator_retry = sim::RetryPolicy::standard(5);
  options.batch_window = batch_window;  // coalesced watch delivery
  options.shards = shards;
  auto app = apps::build_retail_knactor_app(runtime, options);

  // Optional filtered subscription riding through the fault corpus: a
  // coalescing content-filtered watch on the checkout store that only
  // matches the terminal "shipped" write. Crash windows roll pending
  // coalesce slots back with the epoch, so the delivery log is part of the
  // deterministic observable surface (compared serial vs sharded below).
  std::string sub_log;
  std::uint64_t sub_id = 0;
  if (filtered_sub) {
    de::SubscriptionSpec spec;
    spec.filter = "status == \"shipped\"";
    spec.qos.window = 10 * sim::kMillisecond;
    auto sub = app.checkout_store->subscribe_batch(
        "knactor:checkout", spec, [&sub_log](const de::WatchBatch& b) {
          sub_log += "[c" + std::to_string(b.commits) + "|";
          for (const auto& e : b.events) {
            sub_log +=
                e.object.key + ":" + std::to_string(e.object.version) + " ";
          }
          sub_log += "] ";
        });
    if (sub.ok()) sub_id = sub.value();
  }

  chaos::ChaosHooks hooks;
  hooks.add(
      "de", [&app]() { app.de->crash(); }, [&app]() { app.de->recover(); });
  for (const char* name : {"checkout", "payment", "shipping"}) {
    core::Knactor* kn = runtime.knactor(name);
    hooks.add(
        name, [kn]() { kn->stop(); }, [kn]() { kn->start(); });
  }
  chaos::CrashScheduler scheduler(runtime.clock(), hooks);
  if (inject) scheduler.arm(retail_plan(seed));

  auto shipped = [&app]() {
    const de::StateObject* obj = app.checkout_store->peek("order");
    if (obj == nullptr || !obj->data) return false;
    const Value* tracking = obj->data->get("trackingID");
    const Value* status = obj->data->get("status");
    return tracking != nullptr && !tracking->is_null() && status != nullptr &&
           status->is_string() && status->as_string() == "shipped";
  };

  chaos::ChaosTrial trial;
  trial.workload = [&runtime, &app, &shipped]() {
    // A real client retries a rejected write; the put lands as soon as the
    // DE is up, even if a crash window covers t=0.
    Value order = apps::sample_order();
    bool placed = false;
    for (int attempt = 0; attempt < 100 && !placed; ++attempt) {
      placed = app.checkout_store
                   ->put_sync("knactor:checkout", "order", order)
                   .ok();
      if (!placed) runtime.run_for(25 * sim::kMillisecond);
    }
    if (!placed) return false;
    runtime.run_until_idle();
    return shipped();
  };
  trial.heal = [&runtime, &app]() {
    // All windows closed (the scheduler's up events are ordinary clock
    // events, so run_until_idle fired them). Resync every reconciler and
    // run one exchange pass; repeat once for multi-hop cascades.
    runtime.run_until_idle();
    for (int round = 0; round < 2; ++round) {
      for (const char* name :
           {"frontend", "cart", "catalog", "currency", "checkout", "payment",
            "shipping", "email", "recommendation", "ad", "inventory"}) {
        core::Knactor* kn = runtime.knactor(name);
        if (kn == nullptr) continue;
        if (!kn->running()) kn->start();
        (void)kn->resync();
      }
      (void)app.integrator->run_pass_sync();
      runtime.run_until_idle();
    }
  };
  trial.fingerprint = [&app]() {
    return chaos::fingerprint_stores(
        {app.checkout_store, app.payment_store, app.shipping_store});
  };

  static const std::string oracle = [] {
    // Fault-free oracle: computed once; identical for every seed because
    // all latencies are constant and no fault plan is armed.
    RetailTrialResult nil;
    core::Runtime oracle_runtime;
    apps::RetailKnactorOptions oracle_options;
    oracle_options.de_profile = de::ObjectDeProfile::apiserver();
    oracle_options.shipment_processing = sim::LatencyModel::constant_ms(10.0);
    oracle_options.payment_processing = sim::LatencyModel::constant_ms(1.0);
    oracle_options.integrator_retry = sim::RetryPolicy::standard(5);
    auto oracle_app =
        apps::build_retail_knactor_app(oracle_runtime, oracle_options);
    auto put = oracle_app.checkout_store->put_sync("knactor:checkout", "order",
                                                   apps::sample_order());
    if (!put.ok()) return std::string("oracle-put-failed");
    oracle_runtime.run_until_idle();
    for (int round = 0; round < 2; ++round) {
      for (const char* name :
           {"frontend", "cart", "catalog", "currency", "checkout", "payment",
            "shipping", "email", "recommendation", "ad", "inventory"}) {
        core::Knactor* kn = oracle_runtime.knactor(name);
        if (kn != nullptr) (void)kn->resync();
      }
      (void)oracle_app.integrator->run_pass_sync();
      oracle_runtime.run_until_idle();
    }
    return chaos::fingerprint_stores({oracle_app.checkout_store,
                                      oracle_app.payment_store,
                                      oracle_app.shipping_store});
  }();

  auto outcome = trial.run(oracle);
  RetailTrialResult result;
  result.completed = outcome.workload_completed;
  result.converged = outcome.converged;
  result.fingerprint = outcome.fingerprint;
  result.schedule = chaos::serialize_schedule(scheduler.records());
  result.sub_log = sub_log;
  if (sub_id != 0) {
    const auto* info = app.de->kernel().find_subscription(sub_id);
    if (info != nullptr) result.sub_filtered = info->filtered;
  }
  result.failed_passes = runtime.metrics().get("cast.retail.failed_passes");
  result.cast_retries = runtime.metrics().get("cast.retail.retries");
  return result;
}

// ---------------------------------------------------------------------------
// Tentpole: >= 100 seeds, every one converges to the oracle
// ---------------------------------------------------------------------------

TEST(ChaosRetail, HundredSeedsAllConvergeToOracle) {
  const int kSeeds = 120;
  int completed_during_chaos = 0;
  std::uint64_t total_failed_passes = 0;
  std::uint64_t total_cast_retries = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto result = run_retail_trial(seed, /*inject=*/true);
    ASSERT_TRUE(result.converged)
        << "seed " << seed << " diverged from oracle.\nSchedule:\n"
        << result.schedule << "Plan: " << retail_plan(seed).describe();
    if (result.completed) ++completed_during_chaos;
    total_failed_passes += result.failed_passes;
    total_cast_retries += result.cast_retries;
  }
  // The suite must actually exercise chaos: most seeds still complete while
  // faults are active (that's the point of the data-centric design), and at
  // least some seeds must have forced failed passes and integrator retries.
  EXPECT_GT(completed_during_chaos, kSeeds / 2);
  EXPECT_GT(total_failed_passes, 0u);
  EXPECT_GT(total_cast_retries, 0u);
}

TEST(ChaosRetailBatched, HundredSeedsConvergeWithCoalescedWatch) {
  // Satellite to the watch-batching tentpole: the integrator now consumes a
  // coalesced WatchBatch per window instead of one pass per event. Batching
  // must not change what state the composition converges to — every seed of
  // the same 120-seed fault corpus still reaches the (unbatched) oracle.
  const int kSeeds = 120;
  int completed_during_chaos = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto result =
        run_retail_trial(seed, /*inject=*/true, 25 * sim::kMillisecond);
    ASSERT_TRUE(result.converged)
        << "batched seed " << seed << " diverged from oracle.\nSchedule:\n"
        << result.schedule << "Plan: " << retail_plan(seed).describe();
    if (result.completed) ++completed_during_chaos;
  }
  EXPECT_GT(completed_during_chaos, kSeeds / 2);
}

TEST(ChaosRetailBatched, FaultFreeBatchedTrialMatchesOracle) {
  auto result = run_retail_trial(0, /*inject=*/false, 25 * sim::kMillisecond);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.converged);
}

TEST(ChaosRetailSharded, ShardedRunsAreBitIdenticalToSerialUnderChaos) {
  // The same seeded fault corpus, run with 8 shards, must produce
  // byte-identical fault schedules and converged fingerprints to the
  // 1-shard trial — chaos recovery
  // (durable restart, retries, resync) included.
  const int kSeeds = 40;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto serial = run_retail_trial(seed, /*inject=*/true,
                                   25 * sim::kMillisecond);
    auto sharded = run_retail_trial(seed, /*inject=*/true,
                                    25 * sim::kMillisecond, /*shards=*/8);
    ASSERT_TRUE(sharded.converged)
        << "sharded seed " << seed << " diverged from oracle.\nSchedule:\n"
        << sharded.schedule;
    EXPECT_EQ(sharded.schedule, serial.schedule) << "seed " << seed;
    EXPECT_EQ(sharded.fingerprint, serial.fingerprint) << "seed " << seed;
    EXPECT_EQ(sharded.completed, serial.completed) << "seed " << seed;
    EXPECT_EQ(sharded.failed_passes, serial.failed_passes) << "seed " << seed;
    EXPECT_EQ(sharded.cast_retries, serial.cast_retries) << "seed " << seed;
  }
}

TEST(ChaosRetailFiltered, HundredSeedsConvergeWithFilteredSubscription) {
  // Unified-subscription satellite: the same 120-seed fault corpus with a
  // content-filtered coalescing subscription attached to the checkout
  // store. The filter must not perturb convergence, and across the corpus
  // it must both deliver (the shipped write) and reject (every earlier
  // commit) — i.e. the chaos runs genuinely exercise the filter path.
  const int kSeeds = 120;
  int seeds_with_delivery = 0;
  std::uint64_t total_filtered = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto result = run_retail_trial(seed, /*inject=*/true,
                                   25 * sim::kMillisecond, /*shards=*/1,
                                   /*filtered_sub=*/true);
    ASSERT_TRUE(result.converged)
        << "filtered seed " << seed << " diverged from oracle.\nSchedule:\n"
        << result.schedule << "Plan: " << retail_plan(seed).describe();
    if (!result.sub_log.empty()) ++seeds_with_delivery;
    total_filtered += result.sub_filtered;
  }
  EXPECT_GT(seeds_with_delivery, kSeeds / 2);
  EXPECT_GT(total_filtered, 0u);
}

TEST(ChaosRetailFiltered, FilteredDeliveryLogBitIdenticalSerialVsSharded) {
  // Determinism contract for filtered subscriptions under chaos: for the
  // same seed, the 8-shard run must produce a byte-identical filtered
  // delivery log (and reject count) to the 1-shard run — crash
  // rollback of filtered coalesce slots included.
  const int kSeeds = 40;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto serial = run_retail_trial(seed, /*inject=*/true,
                                   25 * sim::kMillisecond, /*shards=*/1,
                                   /*filtered_sub=*/true);
    auto sharded = run_retail_trial(seed, /*inject=*/true,
                                    25 * sim::kMillisecond, /*shards=*/8,
                                    /*filtered_sub=*/true);
    ASSERT_TRUE(sharded.converged)
        << "filtered sharded seed " << seed << " diverged.\nSchedule:\n"
        << sharded.schedule;
    EXPECT_EQ(sharded.sub_log, serial.sub_log) << "seed " << seed;
    EXPECT_EQ(sharded.sub_filtered, serial.sub_filtered) << "seed " << seed;
    EXPECT_EQ(sharded.fingerprint, serial.fingerprint) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Mid-epoch crash atomicity: a process dying between Phase B and the merge
// must not leak a half-merged epoch anywhere — state,
// stamps, audit, lineage, watches, or triggers.
// ---------------------------------------------------------------------------

TEST(ChaosEpochAtomicity, MidEpochCrashLeaksNothing) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::apiserver());  // durable
  de.enable_audit(1024);
  de.kernel().enable_provenance(1024);
  de.set_shards(8);
  de::ObjectStore& store = de.create_store("orders");

  int watch_events = 0;
  ASSERT_TRUE(store
                  .subscribe("observer", {},
                             [&](const de::WatchEvent&) { ++watch_events; })
                  .ok());
  std::vector<de::WatchBatch> batches;
  de::SubscriptionSpec windowed;
  windowed.qos.window = 200 * sim::kMillisecond;
  ASSERT_TRUE(store
                  .subscribe_batch(
                      "observer", windowed,
                      [&](const de::WatchBatch& b) { batches.push_back(b); })
                  .ok());

  // Baseline state committed through a healthy epoch.
  ASSERT_TRUE(store.put_sync("writer", "a", Value::object({{"v", 1}})).ok());
  ASSERT_TRUE(store.put_sync("writer", "b", Value::object({{"v", 2}})).ok());
  ASSERT_TRUE(store.put_sync("writer", "c", Value::object({{"v", 3}})).ok());
  while (clock.step()) {
  }

  // Leave one event pending in the batched watcher's buffer: commit a put
  // but stop the clock before its flush window expires. The crashing epoch
  // below coalesces into this event's slot, so rollback must restore the
  // slot's pre-epoch payload — not just truncate the epoch's appends.
  bool staged = false;
  store.put("writer", "a", Value::object({{"v", 5}}),
            [&](common::Result<std::uint64_t> r) { staged = r.ok(); });
  clock.run_until(clock.now() + 50 * sim::kMillisecond);
  ASSERT_TRUE(staged);

  const std::string before = chaos::fingerprint_stores({&store});
  const int events_before = watch_events;
  const std::size_t batches_before = batches.size();
  const std::size_t audit_before = de.audit_log().size();
  const std::size_t lineage_before = de.kernel().provenance().records().size();

  // Arm a one-shot mid-epoch crash: the hook fires after Phase B has
  // mutated shard state but before the merge publishes anything.
  bool crash_next = true;
  de.set_epoch_fault_hook([&crash_next] {
    bool fire = crash_next;
    crash_next = false;
    return fire;
  });

  std::vector<de::EpochWrite> writes;
  de::EpochWrite w1;
  w1.key = "a";
  w1.data = Value::object({{"v", 10}});
  de::EpochWrite w2;
  w2.key = "b";
  w2.remove = true;
  de::EpochWrite w3;
  w3.key = "d";
  w3.data = Value::object({{"v", 4}});
  writes.push_back(std::move(w1));
  writes.push_back(std::move(w2));
  writes.push_back(std::move(w3));
  auto results = store.put_epoch_sync("writer", std::move(writes));

  // Every op failed Unavailable; nothing about the epoch is observable.
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, common::Error::Code::kUnavailable);
  }
  EXPECT_FALSE(de.available());
  EXPECT_EQ(chaos::fingerprint_stores({&store}), before);
  EXPECT_EQ(watch_events, events_before);
  EXPECT_EQ(batches.size(), batches_before);
  EXPECT_EQ(de.audit_log().size(), audit_before);
  EXPECT_EQ(de.kernel().provenance().records().size(), lineage_before);

  // Recovery keeps the rolled-back state, which is exactly the pre-epoch
  // state.
  de.recover();
  while (clock.step()) {
  }
  EXPECT_EQ(chaos::fingerprint_stores({&store}), before);

  // The pending watch buffer flushed after recovery with exactly its
  // pre-epoch content: one event for "a" carrying the pre-crash payload.
  // The crashed epoch's coalesce into that slot and its appended events
  // ("b" delete, "d" add) were all rolled back.
  ASSERT_EQ(batches.size(), batches_before + 1);
  const de::WatchBatch& flushed = batches.back();
  ASSERT_EQ(flushed.events.size(), 1u);
  const de::WatchEvent& pending = flushed.events[0];
  EXPECT_EQ(pending.object.key, "a");
  EXPECT_EQ(pending.type, de::WatchEventType::kModified);
  ASSERT_TRUE(pending.object.data);
  ASSERT_NE(pending.object.data->get("v"), nullptr);
  EXPECT_EQ(pending.object.data->get("v")->as_int(), 5);

  // And the pipeline is healthy again: the retried epoch commits whole.
  de::EpochWrite retry;
  retry.key = "a";
  retry.data = Value::object({{"v", 10}});
  std::vector<de::EpochWrite> retry_writes;
  retry_writes.push_back(std::move(retry));
  auto retried = store.put_epoch_sync("writer", std::move(retry_writes));
  ASSERT_EQ(retried.size(), 1u);
  EXPECT_TRUE(retried[0].ok());
  EXPECT_NE(chaos::fingerprint_stores({&store}), before);
}

TEST(ChaosRetail, FaultFreeTrialMatchesOracleExactly) {
  auto result = run_retail_trial(0, /*inject=*/false);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.schedule.empty());
}

TEST(ChaosRetail, SameSeedIsBitIdentical) {
  // A random plan may legitimately draw zero crash windows; pick the first
  // seed whose schedule is non-trivial so the comparison means something.
  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 1; candidate <= 32; ++candidate) {
    if (!retail_plan(candidate).crashes.empty()) {
      seed = candidate;
      break;
    }
  }
  ASSERT_NE(seed, 0u) << "no seed in 1..32 drew a crash window";
  auto a = run_retail_trial(seed, /*inject=*/true);
  auto b = run_retail_trial(seed, /*inject=*/true);
  EXPECT_FALSE(a.schedule.empty());
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.completed, b.completed);
  // And the plan derivation itself is a pure function of the seed.
  EXPECT_EQ(retail_plan(seed).describe(), retail_plan(seed).describe());
}

TEST(ChaosRetail, DifferentSeedsProduceDifferentSchedules) {
  // Not every pair differs (a plan can draw zero crash windows), so look
  // for at least one differing pair across a small sample.
  std::vector<std::string> schedules;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    schedules.push_back(run_retail_trial(seed, true).schedule);
  }
  bool any_differ = false;
  for (std::size_t i = 1; i < schedules.size(); ++i) {
    if (schedules[i] != schedules[0]) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

// ---------------------------------------------------------------------------
// Ride-hailing trial (docs/WORKLOADS.md): the Cast-heavy hot-key
// composition under the same crash-window regime. The convergence surface
// is rides + dispatch decisions; the zone demand counters and driver
// lastRide stamps are deliberately excluded — a retried submit legitimately
// double-bumps a counter, and that benign divergence is exactly why the
// workload stays far below the surge threshold (surge pins at 1.0, so
// every quoted fare is still byte-deterministic).
// ---------------------------------------------------------------------------

struct RideTrialResult {
  bool completed = false;
  bool converged = false;
  std::string fingerprint;
  std::string schedule;
  std::uint64_t failed_passes = 0;
  std::uint64_t cast_retries = 0;
};

sim::FaultPlan ride_plan(std::uint64_t seed) {
  sim::FaultPlan::RandomOptions opts;
  opts.horizon = sim::kSecond;
  opts.crash_targets = {"de", "ride-zones", "ride-dispatch", "ride-match"};
  opts.max_crashes = 3;
  opts.min_window = 20 * sim::kMillisecond;
  opts.max_window = 250 * sim::kMillisecond;
  return sim::FaultPlan::random(seed, opts);
}

constexpr std::uint64_t kChaosRides = 12;  // <= 5 rides/hot zone: surge 1.0

// Mirrors RideHailingApp::submit_ride's payload; the trial needs its own
// copy because a chaos client must *retry* the put until the DE is back,
// and only bump the zone counter once the ride actually landed.
Value chaos_ride_payload(const apps::RideHailingApp& app, std::uint64_t id) {
  const std::string zone = app.zone_for(id);
  Value ride = Value::object();
  ride.set("rider", Value("rider-" + std::to_string(id)));
  ride.set("zone", Value(zone));
  ride.set("zoneKey", Value("zone/" + zone));
  ride.set("fare", Value(5.0 + static_cast<double>(id % 20)));
  ride.set("status", Value("requested"));
  return ride;
}

RideTrialResult run_ride_trial(std::uint64_t seed, bool inject,
                               std::size_t shards = 1) {
  core::Runtime runtime;
  apps::RideHailingOptions options;
  options.de_profile = de::ObjectDeProfile::apiserver();  // durable
  options.batch_window = 5 * sim::kMillisecond;
  options.integrator_retry = sim::RetryPolicy::standard(5);
  options.shards = shards;
  auto app = apps::build_ride_hailing_app(runtime, options);

  chaos::ChaosHooks hooks;
  hooks.add(
      "de", [&app]() { app.de->crash(); }, [&app]() { app.de->recover(); });
  for (const char* name : {"ride-zones", "ride-dispatch"}) {
    core::Knactor* kn = runtime.knactor(name);
    hooks.add(
        name, [kn]() { kn->stop(); }, [kn]() { (void)kn->start(); });
  }
  hooks.add(
      "ride-match", [&app]() { app.cast->stop(); },
      [&app]() { (void)app.cast->start(); });
  chaos::CrashScheduler scheduler(runtime.clock(), hooks);
  if (inject) scheduler.arm(ride_plan(seed));

  auto run_workload = [](core::Runtime& rt, apps::RideHailingApp& a) {
    for (std::uint64_t i = 0; i < kChaosRides; ++i) {
      const std::string key = "ride/" + std::to_string(i);
      bool placed = false;
      for (int attempt = 0; attempt < 100 && !placed; ++attempt) {
        placed = a.rides->put_sync("rider", key,
                                   chaos_ride_payload(a, i)).ok();
        if (!placed) rt.run_for(25 * sim::kMillisecond);
      }
      if (!placed) return false;
      // Best-effort demand bump (lost if a window opens here — the
      // counters are outside the convergence surface for that reason).
      std::int64_t demand = 0;
      const std::string zone_key = "zone/" + a.zone_for(i);
      const de::StateObject* obj = a.zones->peek(zone_key);
      if (obj != nullptr && obj->data) {
        const Value* d = obj->data->get("demand");
        if (d != nullptr && d->is_number()) {
          demand = static_cast<std::int64_t>(d->as_number());
        }
      }
      Value patch = Value::object();
      patch.set("demand", Value(demand + 1));
      a.zones->patch("rider", zone_key, std::move(patch),
                     [](common::Result<std::uint64_t>) {});
    }
    rt.run_until_idle();
    return a.assigned_count() == kChaosRides;
  };

  chaos::ChaosTrial trial;
  trial.workload = [&runtime, &app, &run_workload]() {
    return run_workload(runtime, app);
  };
  trial.heal = [&runtime, &app]() {
    runtime.run_until_idle();
    for (int round = 0; round < 2; ++round) {
      for (const char* name : {"ride-zones", "ride-dispatch"}) {
        core::Knactor* kn = runtime.knactor(name);
        if (kn == nullptr) continue;
        if (!kn->running()) (void)kn->start();
        (void)kn->resync();
      }
      if (!app.cast->running()) (void)app.cast->start();
      (void)app.cast->run_pass_sync();
      runtime.run_until_idle();
    }
  };
  trial.fingerprint = [&app]() {
    return chaos::fingerprint_stores({app.rides, app.dispatch});
  };

  static const std::string oracle = [&run_workload] {
    core::Runtime oracle_rt;
    apps::RideHailingOptions oracle_options;
    oracle_options.de_profile = de::ObjectDeProfile::apiserver();
    oracle_options.batch_window = 5 * sim::kMillisecond;
    oracle_options.integrator_retry = sim::RetryPolicy::standard(5);
    auto oracle_app = apps::build_ride_hailing_app(oracle_rt, oracle_options);
    if (!run_workload(oracle_rt, oracle_app)) {
      return std::string("oracle-workload-failed");
    }
    (void)oracle_app.cast->run_pass_sync();
    oracle_rt.run_until_idle();
    return chaos::fingerprint_stores({oracle_app.rides, oracle_app.dispatch});
  }();

  auto outcome = trial.run(oracle);
  RideTrialResult result;
  result.completed = outcome.workload_completed;
  result.converged = outcome.converged;
  result.fingerprint = outcome.fingerprint;
  result.schedule = chaos::serialize_schedule(scheduler.records());
  result.failed_passes = app.cast->stats().failed_passes;
  result.cast_retries = app.cast->stats().retries;
  return result;
}

TEST(ChaosRideHailing, HundredSeedsAllConvergeToOracle) {
  const int kSeeds = 120;
  int completed_during_chaos = 0;
  std::uint64_t total_failed_passes = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto result = run_ride_trial(seed, /*inject=*/true);
    ASSERT_TRUE(result.converged)
        << "ride seed " << seed << " diverged from oracle.\nSchedule:\n"
        << result.schedule << "Plan: " << ride_plan(seed).describe();
    if (result.completed) ++completed_during_chaos;
    total_failed_passes += result.failed_passes;
  }
  EXPECT_GT(completed_during_chaos, kSeeds / 2);
  EXPECT_GT(total_failed_passes, 0u);
}

TEST(ChaosRideHailing, ShardedTrialsAreBitIdenticalToSerial) {
  const int kSeeds = 24;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto serial = run_ride_trial(seed, /*inject=*/true);
    auto sharded = run_ride_trial(seed, /*inject=*/true, /*shards=*/8);
    ASSERT_TRUE(sharded.converged)
        << "sharded ride seed " << seed << " diverged.\nSchedule:\n"
        << sharded.schedule;
    EXPECT_EQ(sharded.schedule, serial.schedule) << "seed " << seed;
    EXPECT_EQ(sharded.fingerprint, serial.fingerprint) << "seed " << seed;
    EXPECT_EQ(sharded.completed, serial.completed) << "seed " << seed;
  }
}

TEST(ChaosRideHailing, FaultFreeTrialMatchesOracleExactly) {
  auto result = run_ride_trial(0, /*inject=*/false);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.schedule.empty());
}

// ---------------------------------------------------------------------------
// Fleet-telemetry trial: Sync-integrator crash windows only. The Log DE
// stays up (its recover() is a cold start that wipes records — crashing it
// would change the workload, not test convergence), so the chaos surface
// is the integrator's availability. Cursor-based rounds make the alert
// route exactly-once: the converged alerts pool is byte-identical to the
// oracle no matter where the windows fell. The rollup pool is excluded —
// its summarize barrier aggregates per round, so its contents legitimately
// depend on where round boundaries landed.
// ---------------------------------------------------------------------------

std::string fingerprint_pools(const std::vector<const de::LogPool*>& pools) {
  std::string out;
  for (const de::LogPool* pool : pools) {
    if (pool == nullptr) continue;
    out += pool->name();
    out += '{';
    for (const auto& rec : pool->records_after(0)) {
      if (!rec.data) continue;
      out += chaos::canonical_fingerprint(*rec.data);
      out += ';';
    }
    out += '}';
  }
  return out;
}

struct FleetTrialResult {
  bool completed = false;
  bool converged = false;
  std::string fingerprint;
  std::string schedule;
};

sim::FaultPlan fleet_plan(std::uint64_t seed) {
  sim::FaultPlan::RandomOptions opts;
  opts.horizon = sim::kSecond;
  opts.crash_targets = {"sync"};
  opts.max_crashes = 3;
  opts.min_window = 20 * sim::kMillisecond;
  opts.max_window = 250 * sim::kMillisecond;
  return sim::FaultPlan::random(seed, opts);
}

constexpr std::uint64_t kFleetReadings = 120;

FleetTrialResult run_fleet_trial(std::uint64_t seed, bool inject) {
  core::Runtime runtime;
  apps::FleetTelemetryOptions options;
  options.push = true;  // appends schedule rounds; downtime loses the wakeup
  options.sync_retry = sim::RetryPolicy::standard(5);
  auto app = apps::build_fleet_telemetry_app(runtime, options);

  chaos::ChaosHooks hooks;
  hooks.add(
      "sync", [&app]() { app.sync->stop(); },
      [&app]() { (void)app.sync->start(); });
  chaos::CrashScheduler scheduler(runtime.clock(), hooks);
  if (inject) scheduler.arm(fleet_plan(seed));

  // The fault-free alert count, replayed from the deterministic generator.
  std::size_t expected_alerts = 0;
  for (std::uint64_t i = 0; i < kFleetReadings; ++i) {
    if (app.reading_for(i).get("temp")->as_number() > 90) ++expected_alerts;
  }

  chaos::ChaosTrial trial;
  trial.workload = [&runtime, &app, expected_alerts]() {
    // Spread the appends across the fault horizon so crash windows land
    // between pushes, not after the workload finished.
    for (std::uint64_t i = 0; i < kFleetReadings; ++i) {
      runtime.clock().schedule_at(
          static_cast<sim::SimTime>(i) * 4 * sim::kMillisecond,
          [&app, i]() { app.emit_reading(i); });
    }
    runtime.run_until_idle();
    return app.alert_count() == expected_alerts;
  };
  trial.heal = [&runtime, &app]() {
    runtime.run_until_idle();
    if (!app.sync->running()) (void)app.sync->start();
    (void)app.run_rollup_round();  // the cursor drains the missed suffix
    runtime.run_until_idle();
  };
  trial.fingerprint = [&app]() {
    return fingerprint_pools({app.readings, app.alerts});
  };

  static const std::string oracle = [] {
    core::Runtime oracle_rt;
    apps::FleetTelemetryOptions oracle_options;
    oracle_options.push = true;
    oracle_options.sync_retry = sim::RetryPolicy::standard(5);
    auto oracle_app = apps::build_fleet_telemetry_app(oracle_rt,
                                                      oracle_options);
    for (std::uint64_t i = 0; i < kFleetReadings; ++i) {
      oracle_rt.clock().schedule_at(
          static_cast<sim::SimTime>(i) * 4 * sim::kMillisecond,
          [&oracle_app, i]() { oracle_app.emit_reading(i); });
    }
    oracle_rt.run_until_idle();
    (void)oracle_app.run_rollup_round();
    oracle_rt.run_until_idle();
    return fingerprint_pools({oracle_app.readings, oracle_app.alerts});
  }();

  auto outcome = trial.run(oracle);
  FleetTrialResult result;
  result.completed = outcome.workload_completed;
  result.converged = outcome.converged;
  result.fingerprint = outcome.fingerprint;
  result.schedule = chaos::serialize_schedule(scheduler.records());
  return result;
}

TEST(ChaosFleetTelemetry, HundredSeedsAllConvergeToOracle) {
  const int kSeeds = 120;
  int completed_during_chaos = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto result = run_fleet_trial(seed, /*inject=*/true);
    ASSERT_TRUE(result.converged)
        << "fleet seed " << seed << " diverged from oracle.\nSchedule:\n"
        << result.schedule << "Plan: " << fleet_plan(seed).describe();
    if (result.completed) ++completed_during_chaos;
  }
  EXPECT_GT(completed_during_chaos, kSeeds / 2);
}

TEST(ChaosFleetTelemetry, SameSeedIsBitIdentical) {
  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 1; candidate <= 32; ++candidate) {
    if (!fleet_plan(candidate).crashes.empty()) {
      seed = candidate;
      break;
    }
  }
  ASSERT_NE(seed, 0u) << "no seed in 1..32 drew a crash window";
  auto a = run_fleet_trial(seed, /*inject=*/true);
  auto b = run_fleet_trial(seed, /*inject=*/true);
  EXPECT_FALSE(a.schedule.empty());
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(ChaosFleetTelemetry, FaultFreeTrialMatchesOracleExactly) {
  auto result = run_fleet_trial(0, /*inject=*/false);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.schedule.empty());
}

// ---------------------------------------------------------------------------
// RPC baseline: degrades without retry, survives with it
// ---------------------------------------------------------------------------

sim::FaultPlan lossy_wire_plan(std::uint64_t seed) {
  sim::FaultPlan plan;
  plan.with_seed(seed).with_loss(0.15).with_duplication(0.05);
  return plan;
}

TEST(ChaosRpcBaseline, LossyNetworkNeedsRetryPolicy) {
  auto place_order = [](std::uint64_t seed, sim::RetryPolicy retry,
                        net::RpcChannel::Stats* stats_out,
                        std::uint64_t* dropped_out) {
    sim::VirtualClock clock;
    apps::RetailRpcOptions options;
    options.shipment_processing = sim::LatencyModel::constant_ms(10.0);
    options.payment_processing = sim::LatencyModel::constant_ms(1.0);
    apps::RetailRpcApp app(clock, options);
    app.network().set_fault_plan(lossy_wire_plan(seed));
    app.configure_channels(50 * sim::kMillisecond, retry);
    auto tracking = app.place_order_sync(120.0, {"keyboard"});
    if (stats_out != nullptr) *stats_out = app.channel_stats();
    if (dropped_out != nullptr) {
      *dropped_out = app.network().stats().dropped_fault;
    }
    return tracking.ok();
  };

  // Some seeds get lucky and lose no message on the critical call chain;
  // find one that doesn't (deterministic — the scan result never changes).
  std::uint64_t seed = 0;
  net::RpcChannel::Stats fragile;
  std::uint64_t dropped = 0;
  for (std::uint64_t candidate = 1; candidate <= 32; ++candidate) {
    if (!place_order(candidate, sim::RetryPolicy::none(), &fragile,
                     &dropped)) {
      seed = candidate;
      break;
    }
  }
  ASSERT_NE(seed, 0u) << "no seed in 1..32 failed the fragile baseline";
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(fragile.timeouts + fragile.failures, 0u);

  // The same chaos survived once the channels retry with backoff.
  net::RpcChannel::Stats resilient;
  EXPECT_TRUE(place_order(seed, sim::RetryPolicy::standard(6), &resilient,
                          nullptr));
  EXPECT_GT(resilient.retries, 0u);
  EXPECT_EQ(resilient.failures, 0u);
}

TEST(ChaosRpcBaseline, SameSeedSameWireSchedule) {
  auto run = [](std::uint64_t seed) {
    sim::VirtualClock clock;
    apps::RetailRpcOptions options;
    options.shipment_processing = sim::LatencyModel::constant_ms(10.0);
    options.payment_processing = sim::LatencyModel::constant_ms(1.0);
    apps::RetailRpcApp app(clock, options);
    app.network().set_fault_plan(lossy_wire_plan(seed));
    app.configure_channels(50 * sim::kMillisecond,
                           sim::RetryPolicy::standard(6));
    (void)app.place_order_sync(120.0, {"keyboard"});
    return chaos::serialize_schedule(app.network().fault_records());
  };
  std::string first = run(11);
  std::string second = run(11);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(run(12), first);
}

// ---------------------------------------------------------------------------
// Pub/Sub under chaos: at-least-once delivery + dedup = exactly-once effect
// ---------------------------------------------------------------------------

TEST(ChaosBroker, FlapHealsWithRetryExactlyOnce) {
  sim::VirtualClock clock;
  net::SimNetwork net(clock);
  net.set_default_latency(sim::LatencyModel::constant_ms(0.5));
  net.add_node("pub");
  net::Broker broker(net, "broker");
  broker.set_retry_policy(sim::RetryPolicy::standard(8));
  broker.set_delivery_timeout(5 * sim::kMillisecond);

  sim::FaultPlan plan;
  plan.with_seed(21).add_flap("broker", "sub1", 2 * sim::kMillisecond,
                              40 * sim::kMillisecond);
  net.set_fault_plan(plan);

  std::vector<std::string> got;
  broker.subscribe("orders", "sub1", [&](const std::string&, const Value& m) {
    got.push_back(m.get("n")->as_string());
  });
  const int kMessages = 10;
  for (int i = 0; i < kMessages; ++i) {
    clock.schedule_at(i * 6 * sim::kMillisecond, [&broker, i]() {
      (void)broker.publish("pub", "orders",
                           Value::object({{"n", std::to_string(i)}}));
    });
  }
  clock.run_all();
  // Every message arrives exactly once despite the 40 ms outage: deliveries
  // in the window are re-sent after it heals, duplicates are suppressed.
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kMessages));
  EXPECT_GT(broker.redeliveries(), 0u);
  EXPECT_EQ(broker.delivery_failures(), 0u);
}

TEST(ChaosBroker, FlapDropsMessagesWithoutRetry) {
  sim::VirtualClock clock;
  net::SimNetwork net(clock);
  net.set_default_latency(sim::LatencyModel::constant_ms(0.5));
  net.add_node("pub");
  net::Broker broker(net, "broker");  // fire-and-forget: no policy

  sim::FaultPlan plan;
  plan.with_seed(21).add_flap("broker", "sub1", 2 * sim::kMillisecond,
                              40 * sim::kMillisecond);
  net.set_fault_plan(plan);

  int got = 0;
  broker.subscribe("orders", "sub1",
                   [&](const std::string&, const Value&) { ++got; });
  const int kMessages = 10;
  for (int i = 0; i < kMessages; ++i) {
    clock.schedule_at(i * 6 * sim::kMillisecond, [&broker, i]() {
      (void)broker.publish("pub", "orders",
                           Value::object({{"n", std::to_string(i)}}));
    });
  }
  clock.run_all();
  EXPECT_LT(got, kMessages);  // the window's deliveries are simply gone
}

// ---------------------------------------------------------------------------
// Observability: every injected fault is a Metrics counter + Tracer span
// ---------------------------------------------------------------------------

TEST(ChaosObservability, RuntimeNetworkEmitsCountersAndSpans) {
  core::Runtime runtime;
  net::SimNetwork& net = runtime.network();  // auto-attaches the observer
  net.set_default_latency(sim::LatencyModel::constant_ms(0.5));
  net.add_node("a");
  net.add_node("b");
  net.set_handler("b", "ping", [](const net::Message&) {});

  sim::FaultPlan plan;
  plan.with_seed(5).with_loss(1.0);
  net.set_fault_plan(plan);
  for (int i = 0; i < 4; ++i) {
    net::Message m;
    m.src = "a";
    m.dst = "b";
    m.type = "ping";
    (void)net.send(std::move(m));
  }
  runtime.run_until_idle();

  EXPECT_EQ(runtime.metrics().get("chaos.fault"), 4u);
  EXPECT_EQ(runtime.metrics().get("chaos.fault.loss"), 4u);
  auto spans = runtime.tracer().by_name("chaos.fault");
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].attributes.at("kind"), "loss");
  EXPECT_EQ(spans[0].attributes.at("link"), "a->b");
}

}  // namespace
}  // namespace knactor
