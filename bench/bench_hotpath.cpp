// Hot-path wall-clock bench: batched vs. unbatched watch delivery (Cast)
// and consolidated vs. naive pipeline execution (Sync), at 1x/10x/100x
// object counts. Unlike the virtual-clock benches (bench_table*,
// bench_ablation), this one measures REAL elapsed time — it exists to
// gate the batching/consolidation hot path against perf regressions.
//
//   bench_hotpath [--smoke] [--out PATH] [--check PATH] [--section NAME]
//
//   --smoke   1x scales only (the ctest `bench`-label invocation)
//   --out     where to write the JSON report (default BENCH_hotpath.json)
//   --check   validate an existing report: well-formed JSON with the
//             expected sections, the machine field hardware_concurrency,
//             the recovery section's snapshot.max_stall_ms and the fanout
//             row's filtered.evaluated;
//             exits non-zero otherwise
//   --section run one section standalone (retail | home | stages | scaling |
//             commit_seq | recovery | fanout | openloop) and skip the JSON
//             report unless --out is given explicitly; gates attached to
//             the section still apply (e.g. `--section scaling` enforces
//             the epoch speedup)
//
// Retail workload: a fan-out DXG (orders -> shipments) on a redis-profile
// Object DE. Orders arrive spread over virtual time, so in unbatched mode
// every commit delivers its own watch event and triggers its own
// integrator pass. Each pass lists every object and diffs the listing
// against Cast's view (O(n) per event, O(n^2) total), but evaluates only
// the instances whose reads changed; each row reports the evaluated and
// replayed instance counts, and at 100x at most 10% may be evaluated.
// With a batch window, the DE coalesces a window of commits into one
// WatchBatch and one pass consumes the burst.
//
// Smart-home workload: a Sync route (motion -> house) over a zed-profile
// Log DE running the Fig. 4-style pipeline. Naive mode deep-copies the
// batch and runs the unfused plan (one pass per operator); consolidated
// mode pulls shared handles (copy-on-write) and runs the fused plan. Every
// row's moved and processed counts are gated exactly.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <thread>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "apps/fleet_telemetry.h"
#include "apps/ride_hailing.h"
#include "common/json.h"
#include "common/percentile.h"
#include "core/cast.h"
#include "core/runtime.h"
#include "core/sync.h"
#include "core/trace.h"
#include "core/trace_export.h"
#include "de/log.h"
#include "de/object.h"
#include "de/persist/engine.h"
#include "de/plan.h"
#include "sim/clock.h"
#include "sim/openloop.h"

namespace {

using knactor::common::Value;
using knactor::sim::SimTime;

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

// ---------------------------------------------------------------------------
// Retail: Cast watch batching.
// ---------------------------------------------------------------------------

constexpr const char* kRetailSpec = R"(Input:
  C: orders
  S: shipments
DXG:
  S.*:
    $for: C order/
    item: get(C, it).item
    cost: get(C, it).cost
    method: '"air" if get(C, it).cost > 1000 else "ground"'
)";

struct RetailRun {
  double wall_ms = 0;
  std::uint64_t passes = 0;
  std::uint64_t batches = 0;
  // Mapping instances Cast evaluated, and replayed from their memoized
  // outcome because none of their reads changed (exact counts).
  std::uint64_t instances_evaluated = 0;
  std::uint64_t instances_skipped = 0;
  double orders_per_s = 0;
  bool converged = false;
};

RetailRun run_retail(std::size_t orders, SimTime batch_window) {
  using namespace knactor;
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::redis());
  de::ObjectStore& order_store = de.create_store("orders");
  de::ObjectStore& ship_store = de.create_store("shipments");

  auto dxg = core::Dxg::parse(kRetailSpec);
  core::CastIntegrator::Options copts;
  copts.batch_window = batch_window;
  core::CastIntegrator cast("retail-hotpath", de, dxg.take(),
                            {{"C", &order_store}, {"S", &ship_store}}, copts);
  if (!cast.start().ok()) return {};

  // Orders arrive spread over virtual time (one every 4ms — wider than a
  // pass), so unbatched mode genuinely runs one pass per commit.
  constexpr SimTime kSpacing = 4 * sim::kMillisecond;
  for (std::size_t i = 0; i < orders; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "order/%05zu", i);
    Value order = Value::object();
    order.set("item", Value("item-" + std::to_string(i)));
    order.set("cost", Value(static_cast<std::int64_t>((i * 37) % 2000)));
    clock.schedule_at(static_cast<SimTime>(i) * kSpacing,
                      [&order_store, k = std::string(key),
                       order = std::move(order)]() mutable {
                        order_store.put("svc", k, std::move(order),
                                        [](common::Result<std::uint64_t>) {});
                      });
  }

  auto t0 = std::chrono::steady_clock::now();
  clock.run_all();
  RetailRun out;
  out.wall_ms = wall_ms_since(t0);
  out.passes = cast.stats().passes;
  out.batches = cast.stats().batches_consumed;
  out.instances_evaluated = cast.stats().instances_evaluated;
  out.instances_skipped = cast.stats().instances_skipped;
  out.converged = ship_store.size() == orders;
  out.orders_per_s =
      out.wall_ms > 0 ? static_cast<double>(orders) / (out.wall_ms / 1000.0)
                      : 0;
  cast.stop();
  return out;
}

// ---------------------------------------------------------------------------
// Fan-out: content-filtered subscriptions vs. broadcast watches.
// ---------------------------------------------------------------------------

// The retail order stream delivered to a large subscriber population.
// Broadcast mode registers plain watches — every commit reaches every
// subscriber, delivered volume = commits x subscribers. Filtered mode
// gives each subscriber a content filter matching ~1% of orders (its
// region bucket); the predicate runs pre-enqueue inside the commit
// pipeline, so a rejected commit never costs a delivery. Every filter is
// an equality, so the store's subscription index runs the predicate only
// for the subscribers whose bucket a commit hits. Three gates: delivered
// volume (≥10x below broadcast) and predicate evaluations (exactly the
// deliveries, since every candidate of a pure equality passes) are exact
// and machine-independent; in full mode the filtered run's wall time must
// also be ≥10x below the broadcast run's, measured in the same process.
//
// O(hits): the publish loop visits only a commit's candidate watchers, so
// subscribers a commit never hits must cost it nothing. A fourth gate (full
// mode) holds the delivered volume at 100 hitting subscribers, adds 9 900
// whose filter no commit satisfies (`bucket == 1000+i`), and requires the
// wall time with them to stay within 1.5x of the wall time without them.
struct FanoutRun {
  double wall_ms = 0;
  std::uint64_t delivered = 0;  // watch events that reached a callback
  std::uint64_t filtered = 0;   // commits rejected pre-enqueue
  std::uint64_t evaluated = 0;  // predicate evaluations (apply() calls)
};

FanoutRun run_fanout(std::size_t subscribers, std::size_t commits,
                     bool filtered, std::size_t idle = 0) {
  using namespace knactor;
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& orders = de.create_store("orders");

  std::uint64_t delivered = 0;
  auto count = [&delivered](const de::WatchEvent&) { ++delivered; };
  for (std::size_t i = 0; i < subscribers; ++i) {
    if (filtered) {
      // 100 region buckets; each subscriber cares about exactly one, so
      // with orders spread uniformly its selectivity is 1%.
      de::SubscriptionSpec spec;
      spec.filter = "bucket == " + std::to_string(i % 100);
      (void)orders.subscribe("svc", std::move(spec), count);
    } else {
      (void)orders.subscribe("svc", {}, count);
    }
  }
  for (std::size_t i = 0; i < idle; ++i) {
    de::SubscriptionSpec spec;
    spec.filter = "bucket == " + std::to_string(1000 + i);
    (void)orders.subscribe("svc", std::move(spec), count);
  }

  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < commits; ++c) {
    Value order = Value::object();
    order.set("bucket", Value(static_cast<std::int64_t>(c % 100)));
    order.set("cost", Value(static_cast<std::int64_t>((c * 37) % 2000)));
    orders.put("svc", "order/" + std::to_string(c), std::move(order),
               [](knactor::common::Result<std::uint64_t>) {});
    // Drain between commits so delivery work interleaves with commits the
    // way a live composition's would, instead of piling up one huge queue.
    clock.run_all();
  }
  FanoutRun out;
  out.wall_ms = wall_ms_since(t0);
  out.delivered = delivered;
  out.filtered = de.stats().watch_events_filtered;
  for (const auto& [id, info] : de.kernel().subscriptions()) {
    out.evaluated += info.evaluated;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Smart home: Sync operator consolidation + zero-copy exchange.
// ---------------------------------------------------------------------------

struct SyncRun {
  double wall_ms = 0;
  std::uint64_t records_processed = 0;
  std::size_t moved = 0;
  double records_per_s = 0;
};

SyncRun run_smart_home(std::size_t records, bool consolidate) {
  using namespace knactor;
  sim::VirtualClock clock;
  de::LogDe log(clock, de::LogDeProfile::zed());
  de::LogPool& motion = log.create_pool("motion");
  de::LogPool& house = log.create_pool("house");

  std::vector<Value> batch;
  batch.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    Value rec = Value::object();
    rec.set("room", Value("room-" + std::to_string(i % 8)));
    rec.set("triggered", Value(i % 3 != 0));
    rec.set("brightness", Value(static_cast<std::int64_t>(i % 100)));
    batch.push_back(std::move(rec));
  }
  if (!motion.append_batch_sync("svc", std::move(batch)).ok()) return {};

  // Fig. 4-style pipeline: record-local ops that fuse into one pass, then
  // a sort barrier.
  de::LogQuery pipeline;
  pipeline.push_back(de::LogOp::filter("triggered == true").value());
  pipeline.push_back(de::LogOp::rename({{"triggered", "motion"}}));
  pipeline.push_back(de::LogOp::map("lux", "brightness * 10").value());
  pipeline.push_back(de::LogOp::project({"room", "motion", "lux"}));
  pipeline.push_back(de::LogOp::sort("lux", true));

  core::SyncIntegrator::Options sopts;
  sopts.consolidate = consolidate;
  core::SyncIntegrator sync("home-hotpath", log, sopts);
  core::SyncRoute route;
  route.name = "motion-to-house";
  route.source = &motion;
  route.target = &house;
  route.pipeline = std::move(pipeline);
  if (!sync.add_route(std::move(route)).ok()) return {};
  if (!sync.start().ok()) return {};

  auto t0 = std::chrono::steady_clock::now();
  auto moved = sync.run_round_sync();
  SyncRun out;
  out.wall_ms = wall_ms_since(t0);
  out.records_processed = sync.stats().records_processed;
  out.moved = moved.ok() ? moved.value() : 0;
  out.records_per_s =
      out.wall_ms > 0 ? static_cast<double>(records) / (out.wall_ms / 1000.0)
                      : 0;
  sync.stop();
  return out;
}

// ---------------------------------------------------------------------------
// Commit scaling: batched epochs vs single-op epochs.
// ---------------------------------------------------------------------------

// CPU-bound open-loop commit workload. Latencies are virtual (the redis
// profile's sampled commit times cost zero wall time), so every measured
// microsecond is framework CPU: scheduler traffic, per-op closures,
// RBAC/watch matching, buffer staging, map commits. The whole workload is
// admitted up front and then drained to convergence — the load a service
// sees when writes arrive faster than they commit. Both modes commit
// through the same epoch pipeline. The baseline issues every write with
// put(), a single-op epoch: one scheduled commit (with its completion
// closure and sampled deadline) and one pipeline pass per in-flight write
// — `ops` scheduler entries sifting through the event heap. The batched
// mode keeps one per in-flight epoch (`ops / epoch_size` entries, stamps
// reserved once per epoch, ops committed by the commit loop and
// published by the publish loop). Both modes run the same batched watcher and must converge to
// the identical store and delivery outcome. Inputs
// (keys, payloads, epoch batches) are pre-built outside the timed region
// so the interval isolates commit machinery, not Value construction.
struct ScalingRun {
  double wall_ms = 0;
  double kops_per_s = 0;
  bool converged = false;
};

ScalingRun run_commit_scaling(std::size_t ops, std::size_t epoch_size,
                              bool use_epoch) {
  using namespace knactor;
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::redis());
  de::ObjectStore& store = de.create_store("events");
  std::uint64_t batches = 0;
  de::SubscriptionSpec windowed;
  windowed.qos.window = 5 * sim::kMillisecond;
  (void)store.subscribe_batch("observer", std::move(windowed),
                              [&batches](const de::WatchBatch&) { ++batches; });

  // Load-generator exclusion: all keys and payloads (and, for the epoch
  // mode, the assembled write batches) are built before the timed region
  // starts; both modes receive identical ready-made inputs.
  std::vector<std::string> keys(ops);
  std::vector<Value> payloads(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    char key[24];
    std::snprintf(key, sizeof(key), "e-%04zu", i % 1024);
    keys[i] = key;
    Value v = Value::object();
    v.set("seq", Value(static_cast<std::int64_t>(i)));
    v.set("source", Value("svc-" + std::to_string(i % 7)));
    v.set("level", Value(static_cast<std::int64_t>(i % 5)));
    payloads[i] = std::move(v);
  }
  std::size_t committed = 0;
  double wall_ms = 0;
  if (use_epoch) {
    std::vector<std::vector<de::EpochWrite>> epochs;
    epochs.reserve((ops + epoch_size - 1) / epoch_size);
    for (std::size_t base = 0; base < ops; base += epoch_size) {
      const std::size_t end = std::min(ops, base + epoch_size);
      std::vector<de::EpochWrite> writes;
      writes.reserve(end - base);
      for (std::size_t i = base; i < end; ++i) {
        de::EpochWrite w;
        w.key = std::move(keys[i]);
        w.data = std::move(payloads[i]);
        writes.push_back(std::move(w));
      }
      epochs.push_back(std::move(writes));
    }
    auto t0 = std::chrono::steady_clock::now();
    for (auto& writes : epochs) {
      store.put_epoch(
          "svc", std::move(writes),
          [&committed](std::vector<common::Result<std::uint64_t>> results) {
            for (const auto& r : results) {
              if (r.ok()) ++committed;
            }
          });
    }
    clock.run_all();
    wall_ms = wall_ms_since(t0);
  } else {
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      store.put("svc", keys[i], std::move(payloads[i]),
                [&committed](common::Result<std::uint64_t> r) {
                  if (r.ok()) ++committed;
                });
    }
    clock.run_all();
    wall_ms = wall_ms_since(t0);
  }
  ScalingRun out;
  out.wall_ms = wall_ms;
  out.converged = committed == ops && batches > 0 &&
                  store.size() == std::min<std::size_t>(ops, 1024);
  out.kops_per_s = out.wall_ms > 0
                       ? static_cast<double>(ops) / out.wall_ms
                       : 0;
  return out;
}

ScalingRun run_commit_scaling_best(std::size_t ops, std::size_t epoch_size,
                                   bool use_epoch, int repeats) {
  ScalingRun best = run_commit_scaling(ops, epoch_size, use_epoch);
  for (int i = 1; i < repeats; ++i) {
    ScalingRun r = run_commit_scaling(ops, epoch_size, use_epoch);
    if (r.wall_ms < best.wall_ms) best = r;
  }
  return best;
}

Value scaling_run_value(const ScalingRun& r) {
  Value v = Value::object();
  v.set("wall_ms", Value(r.wall_ms));
  v.set("kops_per_s", Value(r.kops_per_s));
  v.set("converged", Value(r.converged));
  return v;
}

// Commit-seq allocation: the old design bumped the kernel-global counter
// once per op from wherever the op committed; the epoch pipeline reserves
// a whole per-epoch domain in one serial bump and hands each op its seq as
// base + index. Measures both allocation disciplines (same totals, so the
// counters land in the same place).
Value commit_seq_section(bool smoke) {
  using namespace knactor;
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  const std::size_t total = smoke ? 1'000'000 : 20'000'000;
  const std::size_t domain = 256;

  // Both loops fold their stamps into a volatile-published sink so the
  // allocation work itself stays observable to the optimizer.
  auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < total; ++i) {
    sink += de.kernel().reserve_commit_seqs(1);  // per-op global bump
  }
  const double per_op_ms = wall_ms_since(t0);

  t0 = std::chrono::steady_clock::now();
  for (std::size_t base = 0; base < total; base += domain) {
    const std::uint64_t seq_base = de.kernel().reserve_commit_seqs(domain);
    for (std::size_t i = 0; i < domain; ++i) sink += seq_base + i;
  }
  const double reserved_ms = wall_ms_since(t0);

  Value v = Value::object();
  v.set("allocations", Value(static_cast<std::int64_t>(total)));
  v.set("domain", Value(static_cast<std::int64_t>(domain)));
  v.set("per_op_ms", Value(per_op_ms));
  v.set("reserved_ms", Value(reserved_ms));
  v.set("per_op_mops_per_s",
        Value(per_op_ms > 0 ? total / per_op_ms / 1000.0 : 0));
  v.set("reserved_mops_per_s",
        Value(reserved_ms > 0 ? total / reserved_ms / 1000.0 : 0));
  v.set("sink", Value(static_cast<std::int64_t>(sink % 97)));  // keep the loop
  std::printf(
      "commit_seq %zu allocs: per-op %8.1fms  domain-reserved %8.1fms\n",
      total, per_op_ms, reserved_ms);
  return v;
}

// ---------------------------------------------------------------------------
// Recovery: snapshot+delta vs full-WAL replay (de/persist).
// ---------------------------------------------------------------------------

// Durable-recovery cost at a deep history. The same op stream is journaled
// through the persistence tier twice: once with snapshots disabled, so
// recovery must replay the entire WAL, and once with the periodic snapshot
// cadence, so recovery loads the newest snapshot and replays only the
// journal suffix. Keys wrap (1024 live objects), which is the regime the
// snapshot design targets: live state stays small while the WAL grows
// without bound. The gate asserts the design's point — at a 100k-op
// history, snapshot+delta recovery is >=5x faster than full replay — and
// both recoveries must land on the bit-identical image.
struct RecoverTiming {
  bool ok = false;
  double wall_ms = 0;
  std::uint64_t frames = 0;
  std::string image_bytes;  // canonical serialization of the result
};

double build_recovery_history(const std::string& dir, std::size_t ops,
                              std::uint64_t snapshot_every,
                              std::uint64_t* snapshots_out) {
  using namespace knactor;
  std::filesystem::remove_all(dir);
  sim::VirtualClock clock;
  de::ObjectDeProfile profile = de::ObjectDeProfile::instant();
  profile.durable = true;
  de::ObjectDe de(clock, profile);
  de::persist::Engine engine(de::persist::EngineOptions{dir, snapshot_every});
  if (!de.enable_persistence(&engine).ok()) return -1;
  de::ObjectStore& store = de.create_store("events");
  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    char key[24];
    std::snprintf(key, sizeof(key), "e-%05zu", i % 1024);
    Value v = Value::object();
    v.set("seq", Value(static_cast<std::int64_t>(i)));
    v.set("level", Value(static_cast<std::int64_t>(i % 5)));
    if (!store.put_sync("svc", key, std::move(v)).ok()) return -1;
  }
  *snapshots_out = engine.stats().snapshots;
  return wall_ms_since(t0);
}

RecoverTiming time_recovery(const std::string& dir, int repeats) {
  using namespace knactor::de::persist;
  RecoverTiming out;
  for (int i = 0; i < repeats; ++i) {
    Engine engine(EngineOptions{dir, 0});
    auto t0 = std::chrono::steady_clock::now();
    auto image = engine.recover();
    const double ms = wall_ms_since(t0);
    if (!image.ok()) return out;
    if (i == 0) {
      out.wall_ms = ms;
      out.frames = engine.stats().frames_replayed;
      out.image_bytes = encode_snapshot(image.value(), 0);
    } else if (ms < out.wall_ms) {
      out.wall_ms = ms;
    }
  }
  out.ok = true;
  return out;
}

// Snapshot stall: how long one snapshot pauses the commit path. An
// Object DE holding `objects` objects shaped like perfbench
// durable_ingest's payload takes a synchronous snapshot_now() (the whole
// pause, as when snapshots ran inline), then a sliced one: the cut
// (capture plus journal rotation) and each bounded slice are timed
// separately, and the longest of them is the stall a commit can see.
// Fastest of `repeats` runs, per figure.
struct SnapshotStall {
  bool ok = false;
  std::uint64_t bytes = 0;
  double sync_ms = 0;
  std::uint64_t slices = 0;
  double cut_ms = 0;
  double max_slice_ms = 0;
  double max_stall_ms = 0;
};

SnapshotStall time_snapshot_stall(const std::string& dir, std::size_t objects,
                                  int repeats) {
  using namespace knactor;
  SnapshotStall out;
  std::filesystem::remove_all(dir);
  sim::VirtualClock clock;
  de::ObjectDeProfile profile = de::ObjectDeProfile::instant();
  profile.durable = true;
  de::ObjectDe de(clock, profile);
  de::persist::Engine engine(de::persist::EngineOptions{dir, 0});
  if (!de.enable_persistence(&engine).ok()) return out;
  de::ObjectStore& store = de.create_store("devices");
  for (std::size_t k = 0; k < objects; ++k) {
    Value v = Value::object();
    v.set("device", Value("device-" + std::to_string(k)));
    v.set("seq", Value(static_cast<std::int64_t>(k)));
    v.set("bucket", Value(static_cast<std::int64_t>(k % 100)));
    v.set("reading", Value(static_cast<double>((k * 31 + 17) % 1000) / 10.0));
    v.set("status", Value("ok"));
    if (!store.put_sync("loader", "dev/" + std::to_string(k), std::move(v))
             .ok()) {
      return out;
    }
  }
  for (int r = 0; r < repeats; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    if (!de.snapshot_now().ok()) return out;
    const double sync_ms = wall_ms_since(t0);
    out.bytes = std::filesystem::file_size(
        engine.snapshot_path(engine.generation()));

    t0 = std::chrono::steady_clock::now();
    if (!de.begin_snapshot().ok()) return out;
    const double cut_ms = wall_ms_since(t0);
    double max_slice_ms = 0;
    std::uint64_t slices = 0;
    while (engine.snapshot_pending()) {
      t0 = std::chrono::steady_clock::now();
      if (!engine.snapshot_slice().ok()) return out;
      max_slice_ms = std::max(max_slice_ms, wall_ms_since(t0));
      ++slices;
    }
    const double stall_ms = std::max(cut_ms, max_slice_ms);
    if (r == 0 || sync_ms < out.sync_ms) out.sync_ms = sync_ms;
    if (r == 0 || stall_ms < out.max_stall_ms) {
      out.max_stall_ms = stall_ms;
      out.cut_ms = cut_ms;
      out.max_slice_ms = max_slice_ms;
    }
    out.slices = slices;
    (void)engine.gc();
  }
  out.ok = true;
  return out;
}

Value recovery_section(bool smoke, double* speedup_out,
                       bool* converged_out, double* stall_share_out) {
  const std::size_t ops = smoke ? 3000 : 100000;
  // Deliberately does not divide the op count: the history must end
  // mid-generation so the timed recovery includes a real journal-suffix
  // replay, not just the snapshot load.
  const std::uint64_t cadence = smoke ? 128 : 4096;
  const int repeats = smoke ? 1 : 3;
  // Per-process directories: the smoke test and the CI script may run
  // this binary concurrently.
  const std::string base =
      std::filesystem::temp_directory_path().string() + "/kn_bench_recovery_" +
      std::to_string(static_cast<long>(::getpid()));
  const std::string full_dir = base + "_full";
  const std::string delta_dir = base + "_delta";

  std::uint64_t full_snaps = 0;
  std::uint64_t delta_snaps = 0;
  const double full_build_ms =
      build_recovery_history(full_dir, ops, /*snapshot_every=*/0,
                             &full_snaps);
  const double delta_build_ms =
      build_recovery_history(delta_dir, ops, cadence, &delta_snaps);
  Value v = Value::object();
  if (full_build_ms < 0 || delta_build_ms < 0) {
    *converged_out = false;
    return v;
  }
  const RecoverTiming full = time_recovery(full_dir, repeats);
  const RecoverTiming delta = time_recovery(delta_dir, repeats);
  std::filesystem::remove_all(full_dir);
  std::filesystem::remove_all(delta_dir);
  const std::string stall_dir = base + "_snapshot";
  const SnapshotStall stall =
      time_snapshot_stall(stall_dir, smoke ? 1024 : 8192, smoke ? 1 : 3);
  std::filesystem::remove_all(stall_dir);
  *stall_share_out = stall.ok && stall.sync_ms > 0
                         ? stall.max_stall_ms / stall.sync_ms
                         : 1.0;
  const double speedup = full.ok && delta.ok && full.wall_ms > 0 &&
                                 delta.wall_ms > 0
                             ? full.wall_ms / delta.wall_ms
                             : 0;
  const bool converged = full.ok && delta.ok &&
                         !full.image_bytes.empty() &&
                         full.image_bytes == delta.image_bytes;
  *speedup_out = speedup;
  *converged_out = converged;

  v.set("ops", Value(static_cast<std::int64_t>(ops)));
  v.set("snapshot_cadence", Value(static_cast<std::int64_t>(cadence)));
  Value full_v = Value::object();
  full_v.set("build_ms", Value(full_build_ms));
  full_v.set("recover_ms", Value(full.wall_ms));
  full_v.set("frames_replayed", Value(static_cast<std::int64_t>(full.frames)));
  v.set("full_replay", std::move(full_v));
  Value delta_v = Value::object();
  delta_v.set("build_ms", Value(delta_build_ms));
  delta_v.set("recover_ms", Value(delta.wall_ms));
  delta_v.set("frames_replayed",
              Value(static_cast<std::int64_t>(delta.frames)));
  delta_v.set("snapshots", Value(static_cast<std::int64_t>(delta_snaps)));
  v.set("snapshot_delta", std::move(delta_v));
  v.set("speedup", Value(speedup));
  v.set("converged", Value(converged));
  Value snapshot_v = Value::object();
  snapshot_v.set("objects", Value(static_cast<std::int64_t>(smoke ? 1024 : 8192)));
  snapshot_v.set("bytes", Value(static_cast<std::int64_t>(stall.bytes)));
  snapshot_v.set("sync_ms", Value(stall.sync_ms));
  snapshot_v.set("slices", Value(static_cast<std::int64_t>(stall.slices)));
  snapshot_v.set("cut_ms", Value(stall.cut_ms));
  snapshot_v.set("max_slice_ms", Value(stall.max_slice_ms));
  snapshot_v.set("max_stall_ms", Value(stall.max_stall_ms));
  v.set("snapshot", std::move(snapshot_v));
  std::printf(
      "recovery %6zu ops: full-replay %8.1fms (%6llu frames)  "
      "snapshot+delta %8.1fms (%5llu frames, %llu snapshots)  "
      "speedup %.2fx%s\n",
      ops, full.wall_ms, static_cast<unsigned long long>(full.frames),
      delta.wall_ms, static_cast<unsigned long long>(delta.frames),
      static_cast<unsigned long long>(delta_snaps), speedup,
      converged ? "" : "  DIVERGED");
  std::printf(
      "snapshot %6zu objects (%llu bytes): sync %6.2fms  sliced: cut %5.2fms, "
      "%llu slices, max slice %5.2fms  stall/sync %.2f%s\n",
      static_cast<std::size_t>(smoke ? 1024 : 8192),
      static_cast<unsigned long long>(stall.bytes), stall.sync_ms,
      stall.cut_ms, static_cast<unsigned long long>(stall.slices),
      stall.max_slice_ms, *stall_share_out, stall.ok ? "" : "  FAILED");
  return v;
}

// Separate traced run for per-stage attribution (C-I / I / I-S, virtual-
// clock µs). Tracing is kept out of the timed runs above so the gate
// measures the untraced hot path; this run only feeds the
// "stage_attribution" report section (and docs/OBSERVABILITY.md).
Value stage_attribution_value(std::size_t orders, SimTime batch_window) {
  using namespace knactor;
  sim::VirtualClock clock;
  core::Tracer tracer(clock);
  de::ObjectDe de(clock, de::ObjectDeProfile::redis());
  de::ObjectStore& order_store = de.create_store("orders");
  de::ObjectStore& ship_store = de.create_store("shipments");
  auto dxg = core::Dxg::parse(kRetailSpec);
  core::CastIntegrator::Options copts;
  copts.batch_window = batch_window;
  core::CastIntegrator cast("retail-hotpath", de, dxg.take(),
                            {{"C", &order_store}, {"S", &ship_store}}, copts,
                            nullptr, &tracer);
  Value rows = Value::array();
  if (!cast.start().ok()) return rows;
  constexpr SimTime kSpacing = 4 * sim::kMillisecond;
  for (std::size_t i = 0; i < orders; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "order/%05zu", i);
    Value order = Value::object();
    order.set("item", Value("item-" + std::to_string(i)));
    order.set("cost", Value(static_cast<std::int64_t>((i * 37) % 2000)));
    clock.schedule_at(static_cast<SimTime>(i) * kSpacing,
                      [&order_store, k = std::string(key),
                       order = std::move(order)]() mutable {
                        order_store.put("svc", k, std::move(order),
                                        [](common::Result<std::uint64_t>) {});
                      });
  }
  clock.run_all();
  cast.stop();
  for (const auto& [stage, stat] : core::stage_breakdown(tracer.spans())) {
    if (stage == "-") continue;  // unattributed helper spans
    Value row = Value::object();
    row.set("stage", Value(stage));
    row.set("count", Value(static_cast<std::int64_t>(stat.count)));
    row.set("total_us", Value(static_cast<std::int64_t>(stat.total)));
    row.set("mean_us", Value(stat.mean()));
    rows.as_array().push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Open-loop traffic: saturation knees for the composition workloads.
// ---------------------------------------------------------------------------

// Open-loop runs of the two full compositions (docs/WORKLOADS.md): the
// ride-hailing match/dispatch app (Object DE, Cast fan-out, hot zone keys)
// and the IoT fleet-telemetry rollup (Log DE, push-mode Sync with the
// windowed-aggregation pipeline). The generator (sim/openloop.h) fires
// arrivals on the virtual clock per an arrival schedule and bounds
// concurrency with an admission gate, so past capacity the arrival queue
// grows and tail latency climbs — the saturation knee.
//
// Everything reported here is virtual time (SimTime microseconds) or a
// deterministic count; no wall-clock values are allowed in this section.
// Two runs of the same build must serialize it byte-identically — the
// openloop determinism regression test diffs the JSON.

using OpenLoopResult = knactor::sim::OpenLoopRunner::RunResult;
using OpenLoopFn = std::function<OpenLoopResult(
    const knactor::sim::ArrivalSchedule&, std::uint64_t, std::uint64_t)>;

void set_percentiles(Value& v, const knactor::common::LatencyRecorder& rec) {
  v.set("p50_ms", Value(static_cast<double>(rec.p50()) / 1000.0));
  v.set("p99_ms", Value(static_cast<double>(rec.p99()) / 1000.0));
  v.set("p999_ms", Value(static_cast<double>(rec.p999()) / 1000.0));
}

// One open-loop run against a fresh ride-hailing composition. A request is
// "complete" when the dispatch assignment has flowed back into the ride
// object — observed through a content-filtered subscription, the same
// mechanism the composition itself uses.
OpenLoopResult run_ride_openloop(const knactor::sim::ArrivalSchedule& schedule,
                                 std::uint64_t requests,
                                 std::uint64_t max_in_flight) {
  using namespace knactor;
  core::Runtime runtime;
  apps::RideHailingOptions opts;
  opts.batch_window = 5 * sim::kMillisecond;
  apps::RideHailingApp app = apps::build_ride_hailing_app(runtime, opts);
  if (app.cast == nullptr || app.rides == nullptr) return {};

  std::unordered_map<std::string, std::function<void()>> waiting;
  de::SubscriptionSpec spec;
  spec.prefix = "ride/";
  spec.filter = "status == \"assigned\"";
  (void)app.rides->subscribe(
      "bench", std::move(spec), [&waiting](const de::WatchEvent& event) {
        auto it = waiting.find(event.object.key);
        if (it == waiting.end()) return;
        auto done = std::move(it->second);
        waiting.erase(it);
        done();
      });

  sim::OpenLoopRunner::Options lopts;
  lopts.schedule = schedule;
  lopts.total_requests = requests;
  lopts.max_in_flight = max_in_flight;
  return sim::OpenLoopRunner::run(
      runtime.clock(), lopts,
      [&app, &waiting](std::uint64_t index, std::function<void()> done) {
        // 999983 is prime (coprime to the 1M key space), so distinct
        // request indexes land on distinct ride ids spread over the space.
        const std::uint64_t ride_id = (index * 999983ULL) % 1000000ULL;
        waiting.emplace("ride/" + std::to_string(ride_id), std::move(done));
        app.submit_ride(ride_id);
      });
}

// One open-loop run against a fresh fleet-telemetry composition. The
// request is a reading ingest (append commit == completion); rollup and
// alert rounds ride behind the appends in push mode, inside the same
// drained virtual-time run.
OpenLoopResult run_fleet_openloop(
    const knactor::sim::ArrivalSchedule& schedule, std::uint64_t requests,
    std::uint64_t max_in_flight) {
  using namespace knactor;
  core::Runtime runtime;
  apps::FleetTelemetryOptions opts;
  opts.push = true;
  apps::FleetTelemetryApp app = apps::build_fleet_telemetry_app(runtime, opts);
  if (app.readings == nullptr) return {};

  sim::OpenLoopRunner::Options lopts;
  lopts.schedule = schedule;
  lopts.total_requests = requests;
  lopts.max_in_flight = max_in_flight;
  return sim::OpenLoopRunner::run(
      runtime.clock(), lopts,
      [&app](std::uint64_t index, std::function<void()> done) {
        app.readings->append(
            "vehicle", app.reading_for(index),
            [done = std::move(done)](common::Result<std::uint64_t>) {
              done();
            });
      });
}

struct OpenLoopScenario {
  Value report;
  bool ok = true;
  std::string why;  // first gate failure, for the FAIL message
  double knee_rps = 0;
};

// Calibrates the scenario's capacity, sweeps constant offered loads across
// the knee, then runs one ramp and one step schedule. Gates (deterministic,
// so they apply in smoke mode too): every run completes, percentiles are
// well-formed (0 < p50 <= p99 <= p999), the lowest offered load is served
// at its offered rate, the highest is not (the knee exists), and tail
// latency past the knee exceeds tail latency below it.
OpenLoopScenario openloop_scenario(const char* label, const OpenLoopFn& run,
                                   std::uint64_t requests,
                                   std::uint64_t max_in_flight) {
  using knactor::sim::ArrivalSchedule;
  OpenLoopScenario out;
  auto fail = [&out](const std::string& why) {
    if (out.ok) out.why = why;
    out.ok = false;
  };

  // Calibration trickle: arrivals 100ms apart dwarf any service time, so
  // measured latency is pure service time and capacity follows from
  // Little's law on the admission gate's slots.
  const std::uint64_t calib_n = std::max<std::uint64_t>(16, requests / 8);
  OpenLoopResult calib =
      run(ArrivalSchedule::constant(10.0), calib_n, max_in_flight);
  if (calib.completed != calib_n || calib.service_latency.empty()) {
    fail("calibration run did not complete");
  }
  const double mean_service_us = calib.service_latency.mean();
  const double capacity_rps =
      mean_service_us > 0
          ? static_cast<double>(max_in_flight) * 1e6 / mean_service_us
          : 0;
  if (capacity_rps <= 0) fail("zero capacity estimate");
  std::printf(
      "openloop %-16s capacity %8.1f rps (mean service %6.2fms, "
      "%llu slots)\n",
      label, capacity_rps, mean_service_us / 1000.0,
      static_cast<unsigned long long>(max_in_flight));

  Value v = Value::object();
  v.set("requests", Value(static_cast<std::int64_t>(requests)));
  v.set("max_in_flight", Value(static_cast<std::int64_t>(max_in_flight)));
  Value base = Value::object();
  base.set("mean_ms", Value(mean_service_us / 1000.0));
  set_percentiles(base, calib.service_latency);
  v.set("base_service", std::move(base));
  v.set("capacity_rps", Value(capacity_rps));

  // Require well-formed percentiles on every run this scenario makes.
  auto check_percentiles = [&](const char* what,
                               const knactor::common::LatencyRecorder& rec) {
    const auto p50 = rec.p50();
    const auto p99 = rec.p99();
    const auto p999 = rec.p999();
    if (p50 <= 0 || p99 < p50 || p999 < p99) {
      fail(std::string(what) + ": malformed percentiles");
    }
  };
  check_percentiles("calibration", calib.service_latency);

  // Knee sweep: constant offered loads at fractions/multiples of the
  // estimated capacity.
  const double multipliers[] = {0.25, 0.5, 1.0, 2.0, 4.0};
  Value sweep = Value::array();
  double knee_x = 0;
  double first_ratio = 0;
  double last_ratio = 0;
  double first_p99 = 0;
  double last_p99 = 0;
  for (double x : multipliers) {
    OpenLoopResult r =
        run(ArrivalSchedule::constant(capacity_rps * x), requests,
            max_in_flight);
    if (r.completed != requests) {
      fail("sweep " + std::to_string(x) + "x lost requests");
    }
    check_percentiles("sweep", r.latency);
    const double ratio =
        r.offered_rps > 0 ? r.achieved_rps / r.offered_rps : 0;
    if (knee_x == 0 && ratio < 0.9) knee_x = x;
    if (x == multipliers[0]) {
      first_ratio = ratio;
      first_p99 = static_cast<double>(r.latency.p99());
    }
    last_ratio = ratio;
    last_p99 = static_cast<double>(r.latency.p99());
    Value row = Value::object();
    row.set("offered_x", Value(x));
    row.set("offered_rps", Value(r.offered_rps));
    row.set("achieved_rps", Value(r.achieved_rps));
    row.set("completed", Value(static_cast<std::int64_t>(r.completed)));
    row.set("max_queue_depth",
            Value(static_cast<std::int64_t>(r.max_queue_depth)));
    set_percentiles(row, r.latency);
    std::printf(
        "openloop %-16s %4.2fx %8.1f rps -> %8.1f rps  p50 %8.2fms  "
        "p99 %8.2fms  p999 %8.2fms  queue %llu\n",
        label, x, r.offered_rps, r.achieved_rps,
        static_cast<double>(r.latency.p50()) / 1000.0,
        static_cast<double>(r.latency.p99()) / 1000.0,
        static_cast<double>(r.latency.p999()) / 1000.0,
        static_cast<unsigned long long>(r.max_queue_depth));
    sweep.as_array().push_back(std::move(row));
  }
  v.set("sweep", std::move(sweep));
  v.set("knee_offered_x", Value(knee_x));
  out.knee_rps = knee_x * capacity_rps;
  v.set("knee_rps", Value(out.knee_rps));
  if (first_ratio < 0.9) {
    fail("unsaturated point not served at offered rate");
  }
  if (last_ratio > 0.75) fail("no saturation at 4x capacity (no knee)");
  if (knee_x <= 0) fail("knee not found in sweep");
  if (last_p99 <= first_p99) fail("tail latency flat across the knee");

  // Shaped schedules: a ramp sweeping through the knee in one run and a
  // mid-run traffic spike. Recorded for the report; gated only on
  // completion and percentile shape (their aggregate latency mixes the
  // pre- and post-knee regimes).
  auto shaped = [&](const ArrivalSchedule& s) {
    OpenLoopResult r = run(s, requests, max_in_flight);
    if (r.completed != requests) {
      fail(std::string(s.kind_name()) + " run lost requests");
    }
    check_percentiles(s.kind_name(), r.latency);
    Value sv = Value::object();
    sv.set("schedule", Value(s.kind_name()));
    sv.set("start_rps", Value(s.start_rps));
    sv.set("end_rps", Value(s.end_rps));
    sv.set("offered_rps", Value(r.offered_rps));
    sv.set("achieved_rps", Value(r.achieved_rps));
    sv.set("completed", Value(static_cast<std::int64_t>(r.completed)));
    sv.set("max_queue_depth",
           Value(static_cast<std::int64_t>(r.max_queue_depth)));
    set_percentiles(sv, r.latency);
    std::printf(
        "openloop %-16s %-5s %8.1f..%8.1f rps -> %8.1f rps  "
        "p99 %8.2fms  queue %llu\n",
        label, s.kind_name(), s.start_rps, s.end_rps, r.achieved_rps,
        static_cast<double>(r.latency.p99()) / 1000.0,
        static_cast<unsigned long long>(r.max_queue_depth));
    return sv;
  };
  v.set("ramp",
        shaped(ArrivalSchedule::ramp(0.25 * capacity_rps,
                                     4.0 * capacity_rps)));
  Value step = shaped(
      ArrivalSchedule::step(0.5 * capacity_rps, 3.0 * capacity_rps, 0.5));
  const Value* step_queue = step.get("max_queue_depth");
  if (step_queue == nullptr || step_queue->as_int() < 1) {
    fail("step spike built no backlog");
  }
  v.set("step", std::move(step));

  out.report = std::move(v);
  return out;
}

// ---------------------------------------------------------------------------
// Report assembly / validation.
// ---------------------------------------------------------------------------

Value retail_run_value(const RetailRun& r) {
  Value v = Value::object();
  v.set("wall_ms", Value(r.wall_ms));
  v.set("passes", Value(static_cast<std::int64_t>(r.passes)));
  v.set("batches", Value(static_cast<std::int64_t>(r.batches)));
  v.set("instances_evaluated",
        Value(static_cast<std::int64_t>(r.instances_evaluated)));
  v.set("instances_skipped",
        Value(static_cast<std::int64_t>(r.instances_skipped)));
  v.set("orders_per_s", Value(r.orders_per_s));
  v.set("converged", Value(r.converged));
  return v;
}

Value sync_run_value(const SyncRun& r) {
  Value v = Value::object();
  v.set("wall_ms", Value(r.wall_ms));
  v.set("records_processed",
        Value(static_cast<std::int64_t>(r.records_processed)));
  v.set("moved", Value(static_cast<std::int64_t>(r.moved)));
  v.set("records_per_s", Value(r.records_per_s));
  return v;
}

int check_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_hotpath: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = knactor::common::parse_json(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench_hotpath: %s is not valid JSON: %s\n",
                 path.c_str(), parsed.error().to_string().c_str());
    return 1;
  }
  const Value& report = parsed.value();
  const Value* cores = report.get("hardware_concurrency");
  if (cores == nullptr || !cores->is_int()) {
    std::fprintf(stderr,
                 "bench_hotpath: %s: missing integer field "
                 "'hardware_concurrency'\n",
                 path.c_str());
    return 1;
  }
  for (const char* key :
       {"retail", "smart_home", "stage_attribution", "scaling", "fanout"}) {
    const Value* section = report.get(key);
    if (section == nullptr || !section->is_array() ||
        section->as_array().empty()) {
      std::fprintf(stderr,
                   "bench_hotpath: %s: missing/empty section '%s'\n",
                   path.c_str(), key);
      return 1;
    }
  }
  for (const char* key : {"commit_seq", "recovery", "openloop"}) {
    const Value* section = report.get(key);
    if (section == nullptr || !section->is_object()) {
      std::fprintf(stderr, "bench_hotpath: %s: missing section '%s'\n",
                   path.c_str(), key);
      return 1;
    }
  }
  // The recovery section carries the snapshot stall figures.
  const Value* snapshot = report.get("recovery")->get("snapshot");
  const Value* stall =
      snapshot != nullptr ? snapshot->get("max_stall_ms") : nullptr;
  if (stall == nullptr || !stall->is_number()) {
    std::fprintf(stderr,
                 "bench_hotpath: %s: recovery section missing numeric "
                 "'snapshot.max_stall_ms'\n",
                 path.c_str());
    return 1;
  }
  // The fanout row carries the subscription-index evaluation count.
  const Value* fanout_filtered =
      report.get("fanout")->as_array().front().get("filtered");
  const Value* evaluated =
      fanout_filtered != nullptr ? fanout_filtered->get("evaluated") : nullptr;
  if (evaluated == nullptr || !evaluated->is_int()) {
    std::fprintf(stderr,
                 "bench_hotpath: %s: fanout row missing integer "
                 "'filtered.evaluated'\n",
                 path.c_str());
    return 1;
  }
  // The openloop section carries the latency-percentile contract: both
  // scenario subsections must be present, each with a non-empty knee sweep
  // whose rows all carry numeric offered/achieved rates and p50/p99/p999.
  const Value* openloop = report.get("openloop");
  for (const char* scenario : {"ride_hailing", "fleet_telemetry"}) {
    const Value* scen = openloop->get(scenario);
    if (scen == nullptr || !scen->is_object()) {
      std::fprintf(stderr,
                   "bench_hotpath: %s: openloop missing scenario '%s'\n",
                   path.c_str(), scenario);
      return 1;
    }
    const Value* sweep = scen->get("sweep");
    if (sweep == nullptr || !sweep->is_array() || sweep->as_array().empty()) {
      std::fprintf(stderr,
                   "bench_hotpath: %s: openloop.%s: missing/empty sweep\n",
                   path.c_str(), scenario);
      return 1;
    }
    for (const Value& row : sweep->as_array()) {
      for (const char* field : {"offered_rps", "achieved_rps", "p50_ms",
                                "p99_ms", "p999_ms"}) {
        const Value* cell = row.get(field);
        if (cell == nullptr || !cell->is_number()) {
          std::fprintf(
              stderr,
              "bench_hotpath: %s: openloop.%s: sweep row missing numeric "
              "'%s'\n",
              path.c_str(), scenario, field);
          return 1;
        }
      }
    }
  }
  std::printf("bench_hotpath: %s OK\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool out_explicit = false;
  std::string out_path = "BENCH_hotpath.json";
  std::string section;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
      out_explicit = true;
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      return check_report(argv[++i]);
    } else if (std::strcmp(argv[i], "--section") == 0 && i + 1 < argc) {
      section = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_hotpath [--smoke] [--out PATH] "
                   "[--check PATH] [--section retail|home|stages|"
                   "scaling|commit_seq|recovery|fanout|openloop]\n");
      return 2;
    }
  }
  const bool all_sections = section.empty();
  auto want = [&](const char* name) {
    return all_sections || section == name;
  };
  if (!all_sections && !want("retail") && !want("home") && !want("stages") && !want("scaling") && !want("commit_seq") &&
      !want("recovery") && !want("fanout") && !want("openloop")) {
    std::fprintf(stderr, "bench_hotpath: unknown section '%s'\n",
                 section.c_str());
    return 2;
  }

  // A batch window of 40ms over 4ms-spaced commits coalesces ~10 events
  // per delivery.
  constexpr SimTime kWindow = 40 * knactor::sim::kMillisecond;
  const std::vector<std::pair<std::string, std::size_t>> retail_scales =
      smoke ? std::vector<std::pair<std::string, std::size_t>>{{"1x", 4}}
            : std::vector<std::pair<std::string, std::size_t>>{
                  {"1x", 4}, {"10x", 40}, {"100x", 400}};
  const std::vector<std::pair<std::string, std::size_t>> home_scales =
      smoke ? std::vector<std::pair<std::string, std::size_t>>{{"1x", 500}}
            : std::vector<std::pair<std::string, std::size_t>>{
                  {"1x", 500}, {"10x", 5000}, {"100x", 50000}};

  Value report = Value::object();
  // The machine the wall-clock rows were measured on (every row runs on
  // one thread; the core count is context for the wall times).
  const unsigned cores = std::thread::hardware_concurrency();
  report.set("hardware_concurrency", Value(static_cast<std::int64_t>(cores)));
  Value retail = Value::array();
  double retail_100x_speedup = 0;
  // Incremental Cast passes: at 100x, at most this share of the mapping
  // instances a pass visits may be evaluated rather than replayed. Counts
  // are exact, so the gate cannot flake.
  constexpr double kMaxEvaluatedShare = 0.10;
  auto evaluated_share = [](const RetailRun& r) {
    const double total =
        static_cast<double>(r.instances_evaluated + r.instances_skipped);
    return total > 0 ? static_cast<double>(r.instances_evaluated) / total : 1.0;
  };
  double retail_100x_share_unbatched = 0;
  double retail_100x_share_batched = 0;
  if (want("retail")) for (const auto& [label, orders] : retail_scales) {
    RetailRun unbatched = run_retail(orders, 0);
    RetailRun batched = run_retail(orders, kWindow);
    double speedup = unbatched.wall_ms > 0 && batched.wall_ms > 0
                         ? unbatched.wall_ms / batched.wall_ms
                         : 0;
    if (label == "100x") {
      retail_100x_speedup = speedup;
      retail_100x_share_unbatched = evaluated_share(unbatched);
      retail_100x_share_batched = evaluated_share(batched);
    }
    Value row = Value::object();
    row.set("scale", Value(label));
    row.set("orders", Value(static_cast<std::int64_t>(orders)));
    row.set("unbatched", retail_run_value(unbatched));
    row.set("batched", retail_run_value(batched));
    row.set("speedup", Value(speedup));
    std::printf(
        "retail %-4s %5zu orders: unbatched %8.1fms (%5llu passes)  "
        "batched %8.1fms (%5llu passes, %llu batches)  speedup %.2fx\n",
        label.c_str(), orders, unbatched.wall_ms,
        static_cast<unsigned long long>(unbatched.passes), batched.wall_ms,
        static_cast<unsigned long long>(batched.passes),
        static_cast<unsigned long long>(batched.batches), speedup);
    std::printf(
        "retail %-4s instances evaluated/skipped: unbatched %llu/%llu  "
        "batched %llu/%llu\n",
        label.c_str(),
        static_cast<unsigned long long>(unbatched.instances_evaluated),
        static_cast<unsigned long long>(unbatched.instances_skipped),
        static_cast<unsigned long long>(batched.instances_evaluated),
        static_cast<unsigned long long>(batched.instances_skipped));
    retail.as_array().push_back(std::move(row));
  }
  report.set("retail", std::move(retail));

  Value home = Value::array();
  // Exact-count gate on every home row (deterministic, so it cannot flake):
  // both modes move the same records; the naive round charges each of the
  // pipeline's five operators a pass over the whole batch, the
  // consolidated round one fused pass over it plus the sort barrier over
  // the records that survive the filter.
  std::string home_count_error;
  if (want("home")) for (const auto& [label, records] : home_scales) {
    SyncRun naive = run_smart_home(records, false);
    SyncRun fused = run_smart_home(records, true);
    if (home_count_error.empty() &&
        (naive.moved != fused.moved ||
         naive.records_processed != 5 * records ||
         fused.records_processed != records + fused.moved)) {
      home_count_error =
          label + ": moved " + std::to_string(naive.moved) + " naive / " +
          std::to_string(fused.moved) + " consolidated, processed " +
          std::to_string(naive.records_processed) + " naive (want " +
          std::to_string(5 * records) + ") / " +
          std::to_string(fused.records_processed) + " consolidated (want " +
          std::to_string(records + fused.moved) + ")";
    }
    double speedup = naive.wall_ms > 0 && fused.wall_ms > 0
                         ? naive.wall_ms / fused.wall_ms
                         : 0;
    Value row = Value::object();
    row.set("scale", Value(label));
    row.set("records", Value(static_cast<std::int64_t>(records)));
    row.set("naive", sync_run_value(naive));
    row.set("consolidated", sync_run_value(fused));
    row.set("speedup", Value(speedup));
    std::printf(
        "home   %-4s %5zu records: naive %8.1fms (%7llu processed)  "
        "consolidated %8.1fms (%7llu processed)  speedup %.2fx\n",
        label.c_str(), records, naive.wall_ms,
        static_cast<unsigned long long>(naive.records_processed),
        fused.wall_ms, static_cast<unsigned long long>(fused.records_processed),
        speedup);
    home.as_array().push_back(std::move(row));
  }
  report.set("smart_home", std::move(home));

  if (want("stages")) {
    Value stages = stage_attribution_value(smoke ? 4 : 400, kWindow);
    for (const Value& row : stages.as_array()) {
      std::printf("stage  %-4s %6lld spans  total %8lld us  mean %8.1f us\n",
                  row.get("stage")->as_string().c_str(),
                  static_cast<long long>(row.get("count")->as_int()),
                  static_cast<long long>(row.get("total_us")->as_int()),
                  row.get("mean_us")->as_double());
    }
    report.set("stage_attribution", std::move(stages));
  }

  // CPU-bound commit scaling: batched epochs against single-op epochs (the
  // "legacy" run: one put() per write), both under open-loop load (the
  // full workload in flight at once). Batching (one scheduler entry + one
  // pipeline pass per epoch instead of per op) must at least double commit
  // throughput.
  double scaling_speedup = 0;
  bool scaling_converged = true;
  if (want("scaling")) {
    const std::size_t scaling_ops = smoke ? 2000 : 20000;
    const std::size_t epoch_size = 250;
    // Single-core CI boxes show ±25% run-to-run wall noise; best-of-5
    // keeps the gate comparing steady-state machinery, not scheduler luck.
    const int repeats = smoke ? 1 : 5;
    ScalingRun legacy = run_commit_scaling_best(
        scaling_ops, epoch_size, /*use_epoch=*/false, repeats);
    ScalingRun r = run_commit_scaling_best(scaling_ops, epoch_size,
                                           /*use_epoch=*/true, repeats);
    scaling_converged = legacy.converged && r.converged;
    scaling_speedup =
        legacy.wall_ms > 0 && r.wall_ms > 0 ? legacy.wall_ms / r.wall_ms : 0;
    std::printf(
        "scaling legacy %6zu ops: %8.1fms (%7.1f kops/s)%s\n", scaling_ops,
        legacy.wall_ms, legacy.kops_per_s, legacy.converged ? "" : "  DIVERGED");
    std::printf(
        "scaling epoch  %6zu ops: %8.1fms (%7.1f kops/s)  vs legacy %.2fx%s\n",
        scaling_ops, r.wall_ms, r.kops_per_s, scaling_speedup,
        r.converged ? "" : "  DIVERGED");
    Value row = Value::object();
    row.set("ops", Value(static_cast<std::int64_t>(scaling_ops)));
    row.set("epoch_size", Value(static_cast<std::int64_t>(epoch_size)));
    row.set("legacy", scaling_run_value(legacy));
    row.set("epoch", scaling_run_value(r));
    row.set("speedup_vs_legacy", Value(scaling_speedup));
    Value scaling = Value::array();
    scaling.as_array().push_back(std::move(row));
    report.set("scaling", std::move(scaling));
  }

  // Subscriber fan-out: 10k subscribers at 1% selectivity over the retail
  // order stream. The content filter must cut delivered-record volume by
  // at least 10x vs broadcast, and the subscription index must run the
  // predicate exactly once per delivery; both counts are deterministic, so
  // those gates apply in smoke mode too. In full mode the filtered wall
  // time must also be ≥10x below broadcast, and 9 900 never-hit
  // subscribers may cost at most 1.5x the wall of 100 hitting ones.
  double fanout_volume_ratio = 0;
  double fanout_wall_ratio = 0;
  double fanout_idle_ratio = 0;
  std::uint64_t fanout_evaluated = 0;
  std::uint64_t fanout_delivered = 0;
  if (want("fanout")) {
    const std::size_t fan_subscribers = smoke ? 1000 : 10000;
    const std::size_t fan_commits = smoke ? 20 : 100;
    FanoutRun broadcast = run_fanout(fan_subscribers, fan_commits, false);
    FanoutRun selective = run_fanout(fan_subscribers, fan_commits, true);
    fanout_volume_ratio =
        selective.delivered > 0
            ? static_cast<double>(broadcast.delivered) /
                  static_cast<double>(selective.delivered)
            : 0;
    fanout_wall_ratio = selective.wall_ms > 0
                            ? broadcast.wall_ms / selective.wall_ms
                            : 0;
    fanout_evaluated = selective.evaluated;
    fanout_delivered = selective.delivered;
    Value fanout = Value::array();
    Value row = Value::object();
    row.set("subscribers", Value(static_cast<std::int64_t>(fan_subscribers)));
    row.set("commits", Value(static_cast<std::int64_t>(fan_commits)));
    Value b = Value::object();
    b.set("wall_ms", Value(broadcast.wall_ms));
    b.set("delivered", Value(static_cast<std::int64_t>(broadcast.delivered)));
    row.set("broadcast", std::move(b));
    Value f = Value::object();
    f.set("wall_ms", Value(selective.wall_ms));
    f.set("delivered", Value(static_cast<std::int64_t>(selective.delivered)));
    f.set("rejected_pre_enqueue",
          Value(static_cast<std::int64_t>(selective.filtered)));
    f.set("evaluated", Value(static_cast<std::int64_t>(selective.evaluated)));
    row.set("filtered", std::move(f));
    row.set("volume_ratio", Value(fanout_volume_ratio));
    row.set("wall_ratio", Value(fanout_wall_ratio));
    // O(hits): the same 100 hitting subscribers, then 9 900 more that no
    // commit hits. Fastest of three alternating runs per side (one in
    // smoke mode, which skips the wall gate).
    const std::size_t hit_subscribers = 100;
    const std::size_t idle_subscribers = 9900;
    const std::size_t hit_commits = smoke ? 200 : 5000;
    double hits_only_ms = 0;
    double with_idle_ms = 0;
    std::uint64_t hits_delivered = 0;
    for (int rep = 0; rep < (smoke ? 1 : 3); ++rep) {
      FanoutRun only = run_fanout(hit_subscribers, hit_commits, true);
      FanoutRun idle = run_fanout(hit_subscribers, hit_commits, true,
                                  idle_subscribers);
      if (rep == 0 || only.wall_ms < hits_only_ms) hits_only_ms = only.wall_ms;
      if (rep == 0 || idle.wall_ms < with_idle_ms) with_idle_ms = idle.wall_ms;
      hits_delivered = idle.delivered;
    }
    fanout_idle_ratio = hits_only_ms > 0 ? with_idle_ms / hits_only_ms : 0;
    Value o_hits = Value::object();
    o_hits.set("hitting_subscribers",
               Value(static_cast<std::int64_t>(hit_subscribers)));
    o_hits.set("idle_subscribers",
               Value(static_cast<std::int64_t>(idle_subscribers)));
    o_hits.set("commits", Value(static_cast<std::int64_t>(hit_commits)));
    o_hits.set("delivered", Value(static_cast<std::int64_t>(hits_delivered)));
    o_hits.set("hits_only_wall_ms", Value(hits_only_ms));
    o_hits.set("with_idle_wall_ms", Value(with_idle_ms));
    o_hits.set("idle_ratio", Value(fanout_idle_ratio));
    row.set("o_hits", std::move(o_hits));
    std::printf(
        "fanout %5zu subs %4zu commits: broadcast %8llu delivered "
        "(%8.1fms)  filtered %8llu delivered %8llu evaluated (%8.1fms)  "
        "volume %.1fx  wall %.1fx\n",
        fan_subscribers, fan_commits,
        static_cast<unsigned long long>(broadcast.delivered),
        broadcast.wall_ms,
        static_cast<unsigned long long>(selective.delivered),
        static_cast<unsigned long long>(selective.evaluated),
        selective.wall_ms, fanout_volume_ratio, fanout_wall_ratio);
    std::printf(
        "fanout o(hits) %zu hitting subs %zu commits: %8.1fms alone, "
        "%8.1fms with %zu idle subs  (%.2fx)\n",
        hit_subscribers, hit_commits, hits_only_ms, with_idle_ms,
        idle_subscribers, fanout_idle_ratio);
    fanout.as_array().push_back(std::move(row));
    report.set("fanout", std::move(fanout));
  }

  // Open-loop saturation knees for the two composition workloads. Scale
  // here is requests per run, not key-space size — the compositions draw
  // ids from their ~1M spaces either way. All metrics are virtual-time, so
  // the gate applies in smoke mode too (it is deterministic, like fanout).
  bool openloop_ok = true;
  std::string openloop_why;
  double openloop_ride_knee = 0;
  double openloop_fleet_knee = 0;
  if (want("openloop")) {
    const std::uint64_t ol_requests = smoke ? 48 : 240;
    const std::uint64_t ol_in_flight = 4;
    OpenLoopScenario ride = openloop_scenario(
        "ride_hailing", run_ride_openloop, ol_requests, ol_in_flight);
    OpenLoopScenario fleet = openloop_scenario(
        "fleet_telemetry", run_fleet_openloop, ol_requests, ol_in_flight);
    openloop_ok = ride.ok && fleet.ok;
    if (!ride.ok) {
      openloop_why = "ride_hailing: " + ride.why;
    } else if (!fleet.ok) {
      openloop_why = "fleet_telemetry: " + fleet.why;
    }
    openloop_ride_knee = ride.knee_rps;
    openloop_fleet_knee = fleet.knee_rps;
    Value openloop = Value::object();
    openloop.set("ride_hailing", std::move(ride.report));
    openloop.set("fleet_telemetry", std::move(fleet.report));
    report.set("openloop", std::move(openloop));
  }

  if (want("commit_seq")) {
    report.set("commit_seq", commit_seq_section(smoke));
  }

  // Durable-recovery gate: snapshot+delta must beat full-WAL replay by 5x
  // at the deep-history scale (smoke runs exercise the path but skip the
  // wall-clock gate; convergence — bit-identical recovered images — is
  // enforced everywhere).
  double recovery_speedup = 0;
  bool recovery_converged = true;
  double snapshot_stall_share = 0;
  if (want("recovery")) {
    report.set("recovery",
               recovery_section(smoke, &recovery_speedup,
                                &recovery_converged, &snapshot_stall_share));
  }

  constexpr double kRequiredScalingSpeedup = 2.0;
  constexpr double kRequiredRecoverySpeedup = 5.0;
  // Snapshot stall gate: the longest single commit-path pause of a sliced
  // snapshot (the cut or any one slice) is at most a quarter of the
  // synchronous snapshot's.
  constexpr double kMaxSnapshotStallShare = 0.25;
  constexpr double kRequiredFanoutRatio = 10.0;
  constexpr double kRequiredFanoutWallRatio = 10.0;
  constexpr double kMaxFanoutIdleRatio = 1.5;
  bool incremental_gate_ok =
      !want("retail") || smoke ||
      (retail_100x_share_unbatched <= kMaxEvaluatedShare &&
       retail_100x_share_batched <= kMaxEvaluatedShare);
  bool fanout_gate_ok =
      !want("fanout") || fanout_volume_ratio >= kRequiredFanoutRatio;
  bool fanout_index_gate_ok =
      !want("fanout") || fanout_evaluated == fanout_delivered;
  bool fanout_wall_gate_ok = !want("fanout") || smoke ||
                             fanout_wall_ratio >= kRequiredFanoutWallRatio;
  bool fanout_idle_gate_ok = !want("fanout") || smoke ||
                             fanout_idle_ratio <= kMaxFanoutIdleRatio;
  bool scaling_gate_ok =
      scaling_converged &&
      (smoke || !want("scaling") ||
       scaling_speedup >= kRequiredScalingSpeedup);
  bool recovery_gate_ok =
      recovery_converged &&
      (smoke || !want("recovery") ||
       recovery_speedup >= kRequiredRecoverySpeedup);
  bool snapshot_stall_gate_ok = smoke || !want("recovery") ||
                                snapshot_stall_share <= kMaxSnapshotStallShare;
  if (all_sections) {
    Value gate = Value::object();
    gate.set("retail_100x_speedup", Value(retail_100x_speedup));
    gate.set("required_speedup", Value(2.0));
    gate.set("retail_100x_evaluated_share_unbatched",
             Value(retail_100x_share_unbatched));
    gate.set("retail_100x_evaluated_share_batched",
             Value(retail_100x_share_batched));
    gate.set("max_evaluated_share", Value(kMaxEvaluatedShare));
    gate.set("scaling_speedup", Value(scaling_speedup));
    gate.set("required_scaling_speedup", Value(kRequiredScalingSpeedup));
    gate.set("scaling_converged", Value(scaling_converged));
    gate.set("recovery_speedup", Value(recovery_speedup));
    gate.set("required_recovery_speedup", Value(kRequiredRecoverySpeedup));
    gate.set("recovery_converged", Value(recovery_converged));
    gate.set("snapshot_stall_share", Value(snapshot_stall_share));
    gate.set("max_snapshot_stall_share", Value(kMaxSnapshotStallShare));
    gate.set("fanout_volume_ratio", Value(fanout_volume_ratio));
    gate.set("required_fanout_ratio", Value(kRequiredFanoutRatio));
    gate.set("fanout_evaluated",
             Value(static_cast<std::int64_t>(fanout_evaluated)));
    gate.set("fanout_delivered",
             Value(static_cast<std::int64_t>(fanout_delivered)));
    gate.set("fanout_wall_ratio", Value(fanout_wall_ratio));
    gate.set("required_fanout_wall_ratio", Value(kRequiredFanoutWallRatio));
    gate.set("fanout_idle_ratio", Value(fanout_idle_ratio));
    gate.set("max_fanout_idle_ratio", Value(kMaxFanoutIdleRatio));
    gate.set("openloop_ride_knee_rps", Value(openloop_ride_knee));
    gate.set("openloop_fleet_knee_rps", Value(openloop_fleet_knee));
    gate.set("openloop_ok", Value(openloop_ok));
    gate.set("home_counts_exact", Value(home_count_error.empty()));
    gate.set("pass", Value((smoke || retail_100x_speedup >= 2.0) &&
                           home_count_error.empty() &&
                           incremental_gate_ok && scaling_gate_ok &&
                           recovery_gate_ok && snapshot_stall_gate_ok &&
                           fanout_gate_ok &&
                           fanout_index_gate_ok && fanout_wall_gate_ok &&
                           fanout_idle_gate_ok && openloop_ok));
    report.set("gate", std::move(gate));
  }

  if (all_sections || out_explicit) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "bench_hotpath: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    out << knactor::common::to_json_pretty(report) << "\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (want("retail") && !smoke && retail_100x_speedup < 2.0) {
    std::fprintf(stderr,
                 "bench_hotpath: FAIL: retail 100x speedup %.2fx < 2.0x\n",
                 retail_100x_speedup);
    return 1;
  }
  if (!home_count_error.empty()) {
    std::fprintf(stderr, "bench_hotpath: FAIL: home %s\n",
                 home_count_error.c_str());
    return 1;
  }
  if (!incremental_gate_ok) {
    std::fprintf(stderr,
                 "bench_hotpath: FAIL: retail 100x evaluated %.3f unbatched / "
                 "%.3f batched of its mapping instances (max %.2f)\n",
                 retail_100x_share_unbatched, retail_100x_share_batched,
                 kMaxEvaluatedShare);
    return 1;
  }
  if (want("scaling") && !scaling_gate_ok) {
    std::fprintf(stderr,
                 "bench_hotpath: FAIL: commit scaling %s (epoch speedup "
                 "%.2fx, required %.2fx)\n",
                 scaling_converged ? "below the gate" : "diverged",
                 scaling_speedup, kRequiredScalingSpeedup);
    return 1;
  }
  if (want("recovery") && !recovery_gate_ok) {
    std::fprintf(stderr,
                 "bench_hotpath: FAIL: durable recovery %s (snapshot+delta "
                 "speedup %.2fx, required %.2fx)\n",
                 recovery_converged ? "below the gate"
                                    : "diverged from full replay",
                 recovery_speedup, kRequiredRecoverySpeedup);
    return 1;
  }
  if (!snapshot_stall_gate_ok) {
    std::fprintf(stderr,
                 "bench_hotpath: FAIL: snapshot stall %.2f of the synchronous "
                 "snapshot (max %.2f)\n",
                 snapshot_stall_share, kMaxSnapshotStallShare);
    return 1;
  }
  if (!fanout_gate_ok) {
    std::fprintf(stderr,
                 "bench_hotpath: FAIL: fanout volume ratio %.1fx < %.1fx "
                 "(filtered subscriptions vs broadcast)\n",
                 fanout_volume_ratio, kRequiredFanoutRatio);
    return 1;
  }
  if (!fanout_index_gate_ok) {
    std::fprintf(stderr,
                 "bench_hotpath: FAIL: fanout evaluated %llu predicates for "
                 "%llu deliveries (the equality index must run exactly one "
                 "per delivery)\n",
                 static_cast<unsigned long long>(fanout_evaluated),
                 static_cast<unsigned long long>(fanout_delivered));
    return 1;
  }
  if (!fanout_wall_gate_ok) {
    std::fprintf(stderr,
                 "bench_hotpath: FAIL: fanout filtered wall only %.1fx below "
                 "broadcast (required %.1fx)\n",
                 fanout_wall_ratio, kRequiredFanoutWallRatio);
    return 1;
  }
  if (!fanout_idle_gate_ok) {
    std::fprintf(stderr,
                 "bench_hotpath: FAIL: fanout with 9900 never-hit subscribers "
                 "took %.2fx the wall of 100 hitting ones alone (max %.1fx; "
                 "the publish loop must cost O(hits))\n",
                 fanout_idle_ratio, kMaxFanoutIdleRatio);
    return 1;
  }
  if (want("openloop") && !openloop_ok) {
    std::fprintf(stderr, "bench_hotpath: FAIL: openloop %s\n",
                 openloop_why.c_str());
    return 1;
  }
  return 0;
}
