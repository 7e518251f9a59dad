// Shard-determinism differential suite (`ctest -L shard`): for any fixed
// seed, an N-shard / M-worker run must be *observably identical* to the
// 1-shard serial oracle — byte-identical store state, watch-event order,
// batched-watch composition, DE stats, traces, and metrics. Only the
// scheduler's internal dispatch counters may vary with the configuration
// (they are deliberately not part of the observable surface; see
// docs/ARCHITECTURE.md).
//
// Three layers of evidence:
//   * ObjectDe differential — randomized CRUD workloads (100+ seeds)
//     against shards {1,2,8} x workers {1,4}.
//   * Chaos differential — the same equivalence with crash/recover windows
//     and a durable restart in the middle of the workload.
//   * Runtime differential — the full retail composition (Cast integrator,
//     batched watches) comparing state, stats, metrics, and trace shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/fleet_telemetry.h"
#include "apps/retail_knactor.h"
#include "apps/ride_hailing.h"
#include "common/worker_pool.h"
#include "core/runtime.h"
#include "de/log.h"
#include "de/object.h"

#include "../integration/chaos_harness.h"

namespace knactor {
namespace {

using common::Value;

struct ShardConfig {
  std::size_t shards = 1;
  int workers = 1;
};

// The matrix under test; index 0 is the serial oracle.
const ShardConfig kConfigs[] = {
    {1, 1}, {2, 1}, {2, 4}, {8, 1}, {8, 4},
};

std::string config_name(const ShardConfig& c) {
  return std::to_string(c.shards) + "s/" + std::to_string(c.workers) + "w";
}

// Everything a run exposes to an observer. Two runs are "observably
// identical" iff every field compares equal.
struct Observation {
  std::string state;      // canonical store fingerprint
  std::string watch_log;  // per-event watch deliveries, in delivery order
  std::string batch_log;  // batched-watch deliveries (boundaries + order)
  std::string sub_log;    // filtered+projected subscription deliveries
  std::string sub_batch_log;  // filtered batched subscription (QoS history)
  std::string sub_index_log;  // equality-indexed subscription deliveries
  std::string stats;      // ObjectDeStats digest
  std::string lists;      // list() results, in result order
};

std::string stats_digest(const de::ObjectDeStats& s) {
  std::ostringstream out;
  out << "r=" << s.reads << " w=" << s.writes << " d=" << s.deletes
      << " l=" << s.lists << " we=" << s.watch_events << " wb=" << s.watch_batches
      << " wc=" << s.watch_events_coalesced << " pd=" << s.permission_denials
      << " vc=" << s.version_conflicts << " ur=" << s.unavailable_rejections
      << " wf=" << s.watch_events_filtered << " wd=" << s.watch_events_dropped;
  return out.str();
}

char event_char(de::WatchEventType t) {
  switch (t) {
    case de::WatchEventType::kAdded: return 'A';
    case de::WatchEventType::kModified: return 'M';
    case de::WatchEventType::kDeleted: return 'D';
  }
  return '?';
}

// ---------------------------------------------------------------------------
// ObjectDe differential
// ---------------------------------------------------------------------------

// One randomized CRUD workload against a raw ObjectDe. All randomness comes
// from `seed` (workload choice) and the DE's own fixed-seed rng (latency
// sampling); neither depends on the shard/worker configuration, so every
// config must replay the identical event schedule.
Observation run_object_workload(std::uint32_t seed, const ShardConfig& config,
                                bool with_chaos) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, with_chaos ? de::ObjectDeProfile::apiserver()
                                    : de::ObjectDeProfile::redis());
  common::WorkerPool pool(config.workers);
  de.set_shards(config.shards);
  de.set_worker_pool(&pool);

  de::ObjectStore& orders = de.create_store("orders");
  de::ObjectStore& inventory = de.create_store("inventory");

  Observation obs;
  EXPECT_TRUE(orders
                  .subscribe("observer", {},
                             [&](const de::WatchEvent& e) {
                               obs.watch_log += event_char(e.type);
                               obs.watch_log += e.object.key;
                               obs.watch_log += ':';
                               obs.watch_log +=
                                   std::to_string(e.object.version);
                               obs.watch_log += ' ';
                             })
                  .ok());
  de::SubscriptionSpec windowed;
  windowed.qos.window = 5 * sim::kMillisecond;
  EXPECT_TRUE(orders
                  .subscribe_batch(
                      "observer", windowed,
                      [&](const de::WatchBatch& b) {
                        obs.batch_log += "[c" + std::to_string(b.commits) + "|";
                        for (const auto& e : b.events) {
                          obs.batch_log += event_char(e.type);
                          obs.batch_log += e.object.key;
                          obs.batch_log += ':';
                          obs.batch_log += std::to_string(e.object.version);
                          obs.batch_log += ' ';
                        }
                        obs.batch_log += "] ";
                      })
                  .ok());

  // Filtered + projected subscription: the predicate runs per shard inside
  // the parallel commit phase, so its accept/reject decisions and the
  // projected payloads are part of the observable surface under test.
  de::SubscriptionSpec sub_spec;
  sub_spec.filter = "qty > 25";
  sub_spec.project = {"qty"};
  (void)orders.subscribe("observer", sub_spec, [&](const de::WatchEvent& e) {
    obs.sub_log += event_char(e.type);
    obs.sub_log += e.object.key;
    obs.sub_log += ':';
    obs.sub_log += std::to_string(e.object.version);
    const Value* qty = e.object.data ? e.object.data->get("qty") : nullptr;
    obs.sub_log += '@';
    obs.sub_log += qty != nullptr ? std::to_string(qty->as_int()) : "-";
    obs.sub_log += ' ';
  });
  // Equality-indexed subscription (`qty in [...]` plus a residual): the
  // store's index decides per shard which commits run the predicate, so
  // its deliveries and counters ride the whole matrix too.
  de::SubscriptionSpec index_spec;
  index_spec.filter = "qty in [3, 7, 11, 30, 42] and op >= 0";
  auto index_id = orders.subscribe(
      "observer", index_spec, [&](const de::WatchEvent& e) {
        obs.sub_index_log += event_char(e.type);
        obs.sub_index_log += e.object.key;
        obs.sub_index_log += ':';
        obs.sub_index_log += std::to_string(e.object.version);
        obs.sub_index_log += ' ';
      });
  EXPECT_TRUE(index_id.ok());
  // Filtered batched subscription with a KEEP_LAST history cap: coalesced
  // slots, QoS drops, and crash-rollback of the coalesce buffer must all
  // replay identically in every configuration.
  de::SubscriptionSpec sub_batch_spec;
  sub_batch_spec.filter = "qty >= 10";
  sub_batch_spec.qos.window = 7 * sim::kMillisecond;
  sub_batch_spec.qos.history_depth = 3;
  (void)orders.subscribe_batch(
      "observer", sub_batch_spec, [&](const de::WatchBatch& b) {
        obs.sub_batch_log += "[c" + std::to_string(b.commits) + "|";
        for (const auto& e : b.events) {
          obs.sub_batch_log += event_char(e.type);
          obs.sub_batch_log += e.object.key;
          obs.sub_batch_log += ':';
          obs.sub_batch_log += std::to_string(e.object.version);
          obs.sub_batch_log += ' ';
        }
        obs.sub_batch_log += "] ";
      });

  std::mt19937 rng(seed);
  auto key = [&](const char* prefix) {
    return std::string(prefix) + "-" + std::to_string(rng() % 12);
  };

  if (with_chaos) {
    // One crash window mid-workload: in-flight ops fail with Unavailable,
    // recovery keeps the durable state. Identical in every configuration.
    sim::SimTime down = 20 * sim::kMillisecond +
                        static_cast<sim::SimTime>(rng() % 40) * sim::kMillisecond;
    sim::SimTime up = down + 15 * sim::kMillisecond;
    clock.schedule_at(down, [&de] { de.crash(); });
    clock.schedule_at(up, [&de] { de.recover(); });
  }

  const int ops = 40;
  for (int i = 0; i < ops; ++i) {
    de::ObjectStore& store = (rng() % 3 == 0) ? inventory : orders;
    switch (rng() % 4) {
      case 0:
        store.put(
            "writer", key("item"),
            Value::object({{"op", i}, {"qty", static_cast<int>(rng() % 50)}}),
            [](common::Result<std::uint64_t>) {});
        break;
      case 1:
        store.patch("writer", key("item"),
                    Value::object({{"patched", i}}),
                    [](common::Result<std::uint64_t>) {});
        break;
      case 2:
        store.remove("writer", key("item"), [](common::Status) {});
        break;
      case 3:
        store.list("reader", "item-",
                   [&obs](common::Result<std::vector<de::StateObject>> r) {
                     if (!r.ok()) {
                       obs.lists += "!";
                       return;
                     }
                     for (const auto& o : r.value()) {
                       obs.lists += o.key + ":" +
                                    std::to_string(o.version) + " ";
                     }
                     obs.lists += "| ";
                   });
        break;
    }
    // Interleave execution with submission so watches, flushes, and ops
    // overlap (the interesting ordering surface).
    if (rng() % 4 == 0) {
      for (int s = 0; s < 5 && clock.step(); ++s) {
      }
    }
  }
  while (clock.step()) {
  }

  obs.state = chaos::fingerprint_stores({&orders, &inventory});
  obs.stats = stats_digest(de.stats());
  if (const auto* info = de.kernel().find_subscription(index_id.value())) {
    obs.sub_index_log += "| m=" + std::to_string(info->matched) +
                         " f=" + std::to_string(info->filtered) +
                         " d=" + std::to_string(info->delivered) +
                         " e=" + std::to_string(info->evaluated);
  }
  return obs;
}

class ShardDeterminism : public ::testing::Test {};

TEST(ShardDeterminism, ObjectDeMatchesSerialOracleAcross100Seeds) {
  int seeds_with_filtered_deliveries = 0;
  int seeds_with_indexed_deliveries = 0;
  for (std::uint32_t seed = 1; seed <= 100; ++seed) {
    Observation oracle = run_object_workload(seed, kConfigs[0], false);
    // The workload must actually exercise the surfaces under test.
    ASSERT_FALSE(oracle.state.empty());
    ASSERT_FALSE(oracle.batch_log.empty()) << "seed " << seed;
    if (!oracle.sub_log.empty() && !oracle.sub_batch_log.empty()) {
      ++seeds_with_filtered_deliveries;
    }
    if (!oracle.sub_index_log.starts_with("|")) ++seeds_with_indexed_deliveries;
    for (std::size_t c = 1; c < std::size(kConfigs); ++c) {
      Observation got = run_object_workload(seed, kConfigs[c], false);
      const std::string where =
          "seed " + std::to_string(seed) + " config " + config_name(kConfigs[c]);
      EXPECT_EQ(got.state, oracle.state) << where;
      EXPECT_EQ(got.watch_log, oracle.watch_log) << where;
      EXPECT_EQ(got.batch_log, oracle.batch_log) << where;
      EXPECT_EQ(got.sub_log, oracle.sub_log) << where;
      EXPECT_EQ(got.sub_batch_log, oracle.sub_batch_log) << where;
      EXPECT_EQ(got.sub_index_log, oracle.sub_index_log) << where;
      EXPECT_EQ(got.stats, oracle.stats) << where;
      EXPECT_EQ(got.lists, oracle.lists) << where;
      if (got.state != oracle.state) return;  // one dump is enough
    }
  }
  // The corpus as a whole must exercise filtered delivery, even though an
  // individual seed's random workload may never satisfy the predicate.
  EXPECT_GT(seeds_with_filtered_deliveries, 50);
  EXPECT_GT(seeds_with_indexed_deliveries, 25);
}

TEST(ShardDeterminism, ChaosConvergenceMatchesSerialOracle) {
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    Observation oracle = run_object_workload(seed, kConfigs[0], true);
    for (std::size_t c = 1; c < std::size(kConfigs); ++c) {
      Observation got = run_object_workload(seed, kConfigs[c], true);
      const std::string where =
          "seed " + std::to_string(seed) + " config " + config_name(kConfigs[c]);
      EXPECT_EQ(got.state, oracle.state) << where;
      EXPECT_EQ(got.watch_log, oracle.watch_log) << where;
      EXPECT_EQ(got.batch_log, oracle.batch_log) << where;
      EXPECT_EQ(got.sub_log, oracle.sub_log) << where;
      EXPECT_EQ(got.sub_batch_log, oracle.sub_batch_log) << where;
      EXPECT_EQ(got.sub_index_log, oracle.sub_index_log) << where;
      EXPECT_EQ(got.stats, oracle.stats) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime differential: the full retail composition
// ---------------------------------------------------------------------------

struct RuntimeObservation {
  std::string order;    // the completed order object
  std::string state;    // store fingerprints
  std::string metrics;  // every runtime metric counter
  std::string traces;   // span names + timing, in emission order
  std::string stats;    // DE stats digest
};

RuntimeObservation run_retail(const ShardConfig& config, double cost) {
  core::Runtime rt;
  apps::RetailKnactorOptions options;
  options.batch_window = 2 * sim::kMillisecond;
  options.metrics = &rt.metrics();
  options.shards = config.shards;
  options.workers = config.workers;
  apps::RetailKnactorApp app = apps::build_retail_knactor_app(rt, options);

  RuntimeObservation obs;
  auto order = app.place_order_sync(apps::sample_order(cost));
  obs.order = order.ok() ? chaos::canonical_fingerprint(order.value())
                         : order.error().to_string();
  obs.state = chaos::fingerprint_stores(
      {app.checkout_store, app.shipping_store, app.payment_store});
  std::ostringstream metrics;
  for (const auto& [name, value] : rt.metrics().all()) {
    metrics << name << "=" << value << ";";
  }
  obs.metrics = metrics.str();
  std::ostringstream traces;
  for (const auto& span : rt.tracer().spans()) {
    traces << span.name << "@" << span.start << "-" << span.end << ";";
  }
  obs.traces = traces.str();
  obs.stats = stats_digest(app.de->stats());
  return obs;
}

TEST(ShardDeterminism, RetailCompositionMatchesSerialOracle) {
  for (double cost : {40.0, 120.0, 900.0}) {
    RuntimeObservation oracle = run_retail(kConfigs[0], cost);
    ASSERT_FALSE(oracle.state.empty());
    for (std::size_t c = 1; c < std::size(kConfigs); ++c) {
      RuntimeObservation got = run_retail(kConfigs[c], cost);
      const std::string where =
          "cost " + std::to_string(cost) + " config " + config_name(kConfigs[c]);
      EXPECT_EQ(got.order, oracle.order) << where;
      EXPECT_EQ(got.state, oracle.state) << where;
      EXPECT_EQ(got.metrics, oracle.metrics) << where;
      EXPECT_EQ(got.traces, oracle.traces) << where;
      EXPECT_EQ(got.stats, oracle.stats) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime differential: the two docs/WORKLOADS.md scenario compositions
// ---------------------------------------------------------------------------

// Ride-hailing: Cast fan-out with hot-key zone counters. The submit cadence
// is fixed (settle every 8 rides), so the peek+patch demand counters are a
// pure function of the workload — every shard config must replay them, the
// assignments, and the dispatch decisions byte-for-byte.
RuntimeObservation run_ride_hailing(const ShardConfig& config) {
  core::Runtime rt;
  apps::RideHailingOptions options;
  options.batch_window = 2 * sim::kMillisecond;
  options.shards = config.shards;
  options.workers = config.workers;
  auto app = apps::build_ride_hailing_app(rt, options);

  for (std::uint64_t i = 0; i < 48; ++i) {
    app.submit_ride((i * 999983ULL) % 1000000ULL);
    if (i % 8 == 7) app.settle();
  }
  app.settle();

  RuntimeObservation obs;
  obs.order = std::to_string(app.assigned_count());
  obs.state = chaos::fingerprint_stores(
      {app.rides, app.zones, app.dispatch, app.drivers});
  std::ostringstream traces;
  for (const auto& span : rt.tracer().spans()) {
    traces << span.name << "@" << span.start << "-" << span.end << ";";
  }
  obs.traces = traces.str();
  obs.stats = stats_digest(app.de->stats());
  return obs;
}

TEST(ShardDeterminism, RideHailingCompositionMatchesSerialOracle) {
  RuntimeObservation oracle = run_ride_hailing(kConfigs[0]);
  ASSERT_EQ(oracle.order, "48");  // every ride assigned in the oracle
  ASSERT_FALSE(oracle.state.empty());
  for (std::size_t c = 1; c < std::size(kConfigs); ++c) {
    RuntimeObservation got = run_ride_hailing(kConfigs[c]);
    const std::string where = "config " + config_name(kConfigs[c]);
    EXPECT_EQ(got.order, oracle.order) << where;
    EXPECT_EQ(got.state, oracle.state) << where;
    EXPECT_EQ(got.traces, oracle.traces) << where;
    EXPECT_EQ(got.stats, oracle.stats) << where;
  }
}

// Fleet telemetry: push-driven Sync rounds through the worker scheduler.
// Pools aren't key-sharded, but round scheduling rides the same scheduler
// the configs vary — rollup, alerts, and the readings stream must still be
// byte-identical to the serial oracle (rollup included: the push cadence,
// and with it every round boundary, is part of the deterministic surface).
std::string fleet_pool_digest(const de::LogPool& pool) {
  std::string out = pool.name() + "{";
  for (const auto& rec : pool.records_after(0)) {
    if (rec.data) out += chaos::canonical_fingerprint(*rec.data);
    out += ';';
  }
  return out + "}";
}

RuntimeObservation run_fleet_telemetry(const ShardConfig& config) {
  core::Runtime rt;
  apps::FleetTelemetryOptions options;
  options.push = true;
  options.shards = config.shards;
  options.workers = config.workers;
  auto app = apps::build_fleet_telemetry_app(rt, options);

  for (std::uint64_t i = 0; i < 150; ++i) {
    app.emit_reading(i);
    if (i % 10 == 9) app.settle();
  }
  app.settle();

  RuntimeObservation obs;
  obs.order = std::to_string(app.rollup_count()) + "/" +
              std::to_string(app.alert_count());
  obs.state = fleet_pool_digest(*app.readings) +
              fleet_pool_digest(*app.rollup) + fleet_pool_digest(*app.alerts);
  std::ostringstream traces;
  for (const auto& span : rt.tracer().spans()) {
    traces << span.name << "@" << span.start << "-" << span.end << ";";
  }
  obs.traces = traces.str();
  return obs;
}

TEST(ShardDeterminism, FleetTelemetryCompositionMatchesSerialOracle) {
  RuntimeObservation oracle = run_fleet_telemetry(kConfigs[0]);
  ASSERT_FALSE(oracle.state.empty());
  ASSERT_NE(oracle.order, "0/0");  // rounds actually moved data
  for (std::size_t c = 1; c < std::size(kConfigs); ++c) {
    RuntimeObservation got = run_fleet_telemetry(kConfigs[c]);
    const std::string where = "config " + config_name(kConfigs[c]);
    EXPECT_EQ(got.order, oracle.order) << where;
    EXPECT_EQ(got.state, oracle.state) << where;
    EXPECT_EQ(got.traces, oracle.traces) << where;
  }
}

// Re-running the *same* config twice must also be bit-stable (the serial
// determinism the differential above builds on).
TEST(ShardDeterminism, RepeatedRunsAreBitStable) {
  for (const auto& config : kConfigs) {
    Observation a = run_object_workload(42, config, false);
    Observation b = run_object_workload(42, config, false);
    EXPECT_EQ(a.state, b.state) << config_name(config);
    EXPECT_EQ(a.watch_log, b.watch_log) << config_name(config);
    EXPECT_EQ(a.batch_log, b.batch_log) << config_name(config);
    EXPECT_EQ(a.sub_log, b.sub_log) << config_name(config);
    EXPECT_EQ(a.sub_batch_log, b.sub_batch_log) << config_name(config);
    EXPECT_EQ(a.stats, b.stats) << config_name(config);
  }
}

}  // namespace
}  // namespace knactor
