// Self-tests of the benchmark itself, on reduced-size runs:
//   * two runs with the same seed give identical virtual-time metrics and
//     counts, and another seed gives other inputs;
//   * every workload's output check passes on an undisturbed run;
//   * every output check rejects a doctored output (a wrong driver, a
//     doubled rollup row, a missing delivery).
//
//   perfbench_selftest [data-dir]
//
// Exits 0 when every test passes, 1 otherwise.
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "bench.h"

namespace {

using perfbench::Counters;
using perfbench::RoundResult;
using perfbench::Workload;
using perfbench::WorkloadConfig;

/// Scale per workload: big enough to exercise every layer, small enough to
/// finish in a few seconds.
double test_scale(const std::string& name) {
  if (name == "ride_hailing") return 0.6;     // 30 rides
  if (name == "fleet_telemetry") return 0.4;  // 400 readings
  return 0.2;                                 // 2 000 puts
}

/// Everything about a round that must repeat exactly for a seed.
std::string fingerprint(const RoundResult& r, Workload& workload) {
  Counters c;
  workload.read_counters(&c);
  std::ostringstream out;
  out << "issued=" << r.issued << " completed=" << r.completed
      << " mismatches=" << r.mismatches << " steps=" << r.steps
      << " backlog=" << r.max_backlog
      << " virt_p50=" << r.virt_us.percentile(50)
      << " virt_p90=" << r.virt_us.percentile(90)
      << " virt_p99=" << r.virt_us.percentile(99)
      << " virt_max=" << r.virt_us.max() << " virt_mean=" << r.virt_us.mean()
      << " cast=" << c.cast_passes << "/" << c.cast_fields_written
      << " sync=" << c.sync_rounds << "/" << c.sync_processed << "/"
      << c.sync_moved << " log=" << c.log_appends << "/" << c.log_queries
      << "/" << c.log_scanned << " de=" << c.de_writes << "/" << c.de_lists
      << "/" << c.de_watch_batches << "/" << c.de_coalesced
      << " sub=" << c.sub_matched << "/" << c.sub_filtered << "/"
      << c.sub_delivered << " persist=" << c.persist_frames << "/"
      << c.persist_snapshots << " pool=" << c.pool_barriers << "/"
      << c.pool_inline_runs << "/" << c.pool_epoch_tasks;
  for (const auto& [name, value] : workload.extra_counts()) {
    out << " " << name << "=" << value;
  }
  return out.str();
}

struct Run {
  RoundResult round;
  std::string print;
  std::uint64_t doctored_mismatches = 0;
};

Run run_once(const WorkloadConfig& config, std::uint64_t seed) {
  std::unique_ptr<Workload> workload = perfbench::make_workload(config, seed);
  Run run;
  run.round = perfbench::run_round(*workload, config, seed, nullptr);
  run.print = fingerprint(run.round, *workload);
  workload->doctor();
  std::vector<std::string> why;
  run.doctored_mismatches = workload->check(&why);
  return run;
}

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string data_dir = argc > 1 ? argv[1] : ".perfbench_selftest";
  std::error_code ec;
  std::filesystem::create_directories(data_dir, ec);
  for (const std::string& name : perfbench::workload_names()) {
    WorkloadConfig config;
    if (!perfbench::workload_config(name, test_scale(name), data_dir,
                                    &config)) {
      expect(false, name + ": known workload");
      continue;
    }
    const Run a = run_once(config, 7);
    const Run b = run_once(config, 7);
    const Run other = run_once(config, 8);

    expect(a.round.completed == a.round.issued &&
               a.round.issued == config.requests,
           name + ": every request completes");
    expect(a.round.failed() == 0 && b.round.failed() == 0 &&
               other.round.failed() == 0,
           name + ": fail_ratio is 0 on an undisturbed run");
    for (const auto& w : a.round.why) std::printf("  check: %s\n", w.c_str());
    expect(a.print == b.print,
           name + ": same seed, identical virt metrics and counts");
    if (a.print != b.print) {
      std::printf("  run 1: %s\n  run 2: %s\n", a.print.c_str(),
                  b.print.c_str());
    }
    expect(a.print != other.print, name + ": another seed, other inputs");
    expect(a.doctored_mismatches > 0,
           name + ": output check rejects a doctored output");
  }
  std::filesystem::remove_all(data_dir, ec);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
