// Wall-clock benchmark over the composition workloads (see NOTES.md).
//
// A workload is built fresh for every round through the public app and DE
// APIs. The generator (round.cpp) fires arrivals at times fixed in virtual
// time (a pure function of the seed), admits at most `max_in_flight`
// requests into the composition at once, and drives the virtual clock one
// event at a time with VirtualClock::step(). Every virtual-time latency
// and every count is therefore exact for a seed; the wall-clock numbers
// measure only the framework's CPU work.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/percentile.h"
#include "sim/clock.h"

namespace perfbench {

using knactor::sim::SimTime;

/// Static description of one workload run.
struct WorkloadConfig {
  std::string name;
  std::uint64_t requests = 0;  // per round
  double rate_rps = 0;         // offered load, requests per virtual second
  std::uint64_t max_in_flight = 1;
  /// kPoisson: exponential gaps. kJittered: the mean gap times a seeded
  /// factor in [0.95, 1.05), so no two arrivals come closer than 0.95 of
  /// the mean gap (see NOTES.md, fleet_telemetry). kEven: constant gaps.
  enum class Arrivals { kPoisson, kJittered, kEven };
  Arrivals arrivals = Arrivals::kPoisson;
  std::size_t shards = 1;
  int workers = 1;
  /// Scratch directory for on-disk state (durable_ingest's journal).
  std::string data_dir;
  /// fleet_telemetry only: a reading completes on its append ack instead
  /// of on its rollup row (the fleet burst probe; see NOTES.md).
  bool ack_completes = false;
};

/// The configuration each named workload runs with at `scale` (1.0 = the
/// benchmark's size; the self-tests use smaller scales). Returns false for
/// an unknown name.
bool workload_config(const std::string& name, double scale,
                     const std::string& data_dir, WorkloadConfig* out);
const std::vector<std::string>& workload_names();

/// Public counters of every layer, read between clock steps (traced run).
/// Fields a workload does not run stay 0.
struct Counters {
  // core/cast
  std::uint64_t cast_passes = 0;
  std::uint64_t cast_fields_written = 0;
  std::uint64_t cast_store_objects = 0;  // objects in the aliased stores
  std::uint64_t cast_instances = 0;      // mapping instances one pass runs
  // core/sync
  std::uint64_t sync_rounds = 0;
  std::uint64_t sync_processed = 0;
  std::uint64_t sync_moved = 0;
  // de/log
  std::uint64_t log_appends = 0;
  std::uint64_t log_queries = 0;
  std::uint64_t log_scanned = 0;
  std::uint64_t log_scan_saved = 0;
  std::uint64_t log_pool_records = 0;
  // de/object
  std::uint64_t de_writes = 0;
  std::uint64_t de_reads = 0;
  std::uint64_t de_lists = 0;
  std::uint64_t de_watch_events = 0;
  std::uint64_t de_watch_batches = 0;
  std::uint64_t de_batched_events = 0;  // events carried by those batches
  std::uint64_t de_coalesced = 0;
  // de/subscription (kernel SubscriptionInfo registry, all DEs)
  std::uint64_t sub_matched = 0;
  std::uint64_t sub_filtered = 0;
  std::uint64_t sub_delivered = 0;
  std::uint64_t sub_filtered_matched = 0;  // matched, filtered subs only
  std::uint64_t sub_filtered_passed = 0;   // passed, filtered subs only
  // de/persist
  std::uint64_t persist_frames = 0;
  std::uint64_t persist_snapshots = 0;
  // common/worker_pool (via core::SchedulerStats)
  std::uint64_t pool_barriers = 0;
  std::uint64_t pool_inline_runs = 0;
  std::uint64_t pool_epoch_tasks = 0;
};

/// Micro-timings of pure public entry points, taken on the live state.
/// Each value is nanoseconds per call; 0 when the workload has no such
/// entry point.
struct Probes {
  double expr_eval_ns = 0;
  double sub_apply_ns = 0;
  double plan_run_ns = 0;
  double span_pair_ns = 0;
  double persist_append_ns = 0;
};

/// One composition under test.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the composition and pre-populates its state (the `setup_s`
  /// interval).
  virtual void setup() = 0;
  virtual knactor::sim::VirtualClock& clock() = 0;
  /// Issues request `index`; `done` runs exactly once when it completes.
  virtual void issue(std::uint64_t index, std::function<void()> done) = 0;
  /// Runs after the clock drained: drops every completion callback still
  /// pending (the generator that owns them is gone after the round),
  /// compares the composition's output with the benchmark's own reference
  /// and returns the number of mismatches, appending a line per kind of
  /// mismatch to `why`.
  virtual std::uint64_t check(std::vector<std::string>* why) = 0;
  /// Corrupts the output the way the self-tests expect check() to catch.
  virtual void doctor() = 0;

  virtual void read_counters(Counters* out) = 0;
  virtual void probe(Probes* out) = 0;
  /// Spans recorded by the composition's runtime tracer.
  virtual std::uint64_t tracer_spans() = 0;
  /// Workload-specific exact counts (e.g. fleet rollup rows).
  virtual std::map<std::string, double> extra_counts() { return {}; }
};

std::unique_ptr<Workload> make_workload(const WorkloadConfig& config,
                                        std::uint64_t seed);

/// Per-step callback for the traced run. `wall_ns` is the step's wall time;
/// `generator_ran` is set when an arrival or completion callback of the
/// generator ran inside the step.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  /// Set-up finished; the first arrival is still ahead.
  virtual void on_start() = 0;
  virtual void on_step(double wall_ns, bool generator_ran,
                       std::uint64_t request_id) = 0;
  /// A request was handed to the composition (`wall_ns` is how long the
  /// issue call took) or completed (`wall_ns` is 0). Runs inside a step.
  virtual void on_request(bool issued, std::uint64_t request_id,
                          double wall_ns) = 0;
  /// Called between steps each time another quarter of the requests has
  /// completed (1..4); time spent here is not part of any step.
  virtual void on_quarter(int quarter) = 0;
};

/// Everything one round measured.
struct RoundResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::string> why;
  double setup_s = 0;
  double wall_s = 0;  // first arrival -> last completion
  double cpu_s = 0;   // process CPU (user + sys) over the same interval
  std::vector<double> wall_us;                // per completed request
  knactor::common::LatencyRecorder virt_us;   // per completed request
  std::uint64_t steps = 0;
  std::uint64_t max_backlog = 0;
  // Traced rounds only: the sum of timed steps, and the whole step loop
  // (first step to drained clock) less the time spent in probes.
  double stepped_wall_ns = 0;
  double loop_s = 0;

  [[nodiscard]] std::uint64_t failed() const {
    const std::uint64_t missing = issued - completed;
    const std::uint64_t bad = missing + mismatches;
    return bad > issued ? issued : bad;
  }
};

/// Builds `workload` (timed as set-up), runs one open-loop round of
/// `config.requests` requests, drains the clock and checks the output.
/// With an observer, every step is timed and reported to it.
RoundResult run_round(Workload& workload, const WorkloadConfig& config,
                      std::uint64_t seed, StepObserver* observer);

/// Arrival offsets (virtual µs from the first arrival) for a round.
std::vector<SimTime> arrival_offsets(const WorkloadConfig& config,
                                     std::uint64_t seed);

/// SplitMix64: the benchmark's only source of randomness, so inputs are a
/// pure function of the seed on every platform.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
/// Uniform double in [0, 1).
inline double unit_double(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// FNV-1a, the ride-hailing dispatch policy's hash (reference model).
std::uint64_t fnv1a(const std::string& s);

}  // namespace perfbench
