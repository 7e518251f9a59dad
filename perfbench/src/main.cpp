// perfbench: runs one workload for a fixed wall-clock budget and prints
// every metric by name with its unit, then one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir <dir>] [--scale <x>] [--spans-out <file>]
//
// --trace 0 reports the end-to-end metrics (untraced rounds); --trace 1
// reports the per-layer metrics of traced rounds, with the tracing
// overhead against untraced rounds of the same seed. See NOTES.md.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "traced.h"

namespace perfbench {
namespace {

using WallClock = std::chrono::steady_clock;

// Set-up-only builds before each untraced round, in the round's process:
// at least one, and up to 20 while they take under 50 ms in total.
constexpr std::size_t kMinSetupSamples = 1;
constexpr std::size_t kMaxSetupSamples = 20;
constexpr double kSetupBudgetS = 0.05;

// Wall-clock and CPU figures are the 10th percentile over a run's rounds
// (the 90th for throughput), not the median. A shared host switches
// between a fast state and one about 1.5x slower every few seconds; a
// median over rounds lands in whichever state held most of the run, so it
// jumps between the two from run to run. The fast rounds are steady.
constexpr double kFastPercentile = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string data_dir = ".perfbench_data";
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args* out) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      out->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--scale") {
      out->scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--data-dir") {
      out->data_dir = value;
    } else if (flag == "--spans-out") {
      out->spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && out->seconds > 0 && out->scale > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Nearest-rank percentile (same rule as common::LatencyRecorder).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::min(n, std::ceil(p / 100.0 * n))));
  return v[rank - 1];
}

/// The highest of p80, p90, p99, p99.9, ... with at least ten samples
/// beyond it (p50 below 50 samples).
double tail_percentile(std::uint64_t samples) {
  double tail = 50;
  for (double p : {80.0, 90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(samples) * (100 - p) / 100 >= 10 - 1e-9) tail = p;
  }
  return tail;
}

std::string format_number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

/// Peak resident memory of this process and of every round's process.
double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

const char* arrivals_name(WorkloadConfig::Arrivals a) {
  switch (a) {
    case WorkloadConfig::Arrivals::kPoisson:
      return "poisson";
    case WorkloadConfig::Arrivals::kJittered:
      return "even+-5%";
    case WorkloadConfig::Arrivals::kEven:
      return "even";
  }
  return "?";
}

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

/// What the parent keeps of one round (run in a child process).
struct RoundSummary {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_samples_s;  // the round's own set-up first
  double wall_s = 0;
  double throughput_rps = 0;
  double cpu_us_per_req = 0;
  double wall_p50_us = 0;
  double wall_tail_us = 0;
  double virt_p50_ms = 0;
  double virt_tail_ms = 0;
  std::vector<std::string> why;
  Metrics layers;  // traced rounds only
};

RoundSummary summarize(const RoundResult& r, double tail) {
  RoundSummary s;
  s.issued = r.issued;
  s.completed = r.completed;
  s.failed = r.failed();
  s.setup_samples_s.push_back(r.setup_s);
  s.wall_s = r.wall_s;
  s.throughput_rps =
      r.wall_s > 0 ? static_cast<double>(r.completed) / r.wall_s : 0;
  s.cpu_us_per_req =
      r.completed == 0 ? 0 : r.cpu_s * 1e6 / static_cast<double>(r.completed);
  s.wall_p50_us = percentile(r.wall_us, 50);
  s.wall_tail_us = percentile(r.wall_us, tail);
  s.virt_p50_ms = static_cast<double>(r.virt_us.percentile(50)) / 1e3;
  s.virt_tail_ms = static_cast<double>(r.virt_us.percentile(tail)) / 1e3;
  s.why = r.why;
  return s;
}

/// Line-based encoding of a RoundSummary for the pipe from the child.
std::string encode(const RoundSummary& s) {
  std::string out;
  auto field = [&out](const char* key, double v) {
    out += std::string(key) + " " + format_number(v) + "\n";
  };
  field("issued", static_cast<double>(s.issued));
  field("completed", static_cast<double>(s.completed));
  field("failed", static_cast<double>(s.failed));
  for (double v : s.setup_samples_s) field("setup_s", v);
  field("wall_s", s.wall_s);
  field("throughput_rps", s.throughput_rps);
  field("cpu_us_per_req", s.cpu_us_per_req);
  field("wall_p50_us", s.wall_p50_us);
  field("wall_tail_us", s.wall_tail_us);
  field("virt_p50_ms", s.virt_p50_ms);
  field("virt_tail_ms", s.virt_tail_ms);
  for (const auto& w : s.why) out += "why " + w + "\n";
  for (const Metric& m : s.layers) {
    out += "metric " + m.name + " " + format_number(m.value) + " " + m.unit +
           "\n";
  }
  return out;
}

RoundSummary decode(const std::string& text) {
  RoundSummary s;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const std::string rest = line.substr(space + 1);
    if (key == "why") {
      s.why.push_back(rest);
      continue;
    }
    if (key == "metric") {
      std::istringstream parts(rest);
      Metric m;
      parts >> m.name >> m.value >> m.unit;
      s.layers.push_back(m);
      continue;
    }
    const double v = std::strtod(rest.c_str(), nullptr);
    if (key == "issued") s.issued = static_cast<std::uint64_t>(v);
    if (key == "completed") s.completed = static_cast<std::uint64_t>(v);
    if (key == "failed") s.failed = static_cast<std::uint64_t>(v);
    if (key == "setup_s") s.setup_samples_s.push_back(v);
    if (key == "wall_s") s.wall_s = v;
    if (key == "throughput_rps") s.throughput_rps = v;
    if (key == "cpu_us_per_req") s.cpu_us_per_req = v;
    if (key == "wall_p50_us") s.wall_p50_us = v;
    if (key == "wall_tail_us") s.wall_tail_us = v;
    if (key == "virt_p50_ms") s.virt_p50_ms = v;
    if (key == "virt_tail_ms") s.virt_tail_ms = v;
  }
  return s;
}

/// Runs `fn` in a forked child and returns its summary. Every round gets a
/// fresh process: the speed of a process on a shared machine varies with
/// state it keeps for its whole life (which physical pages back its heap,
/// how fragmented the heap is), so rounds in separate processes sample
/// that variation instead of inheriting one draw. The caller is single-
/// threaded here; worker threads only ever exist inside a child.
RoundSummary isolated(const WorkloadConfig& config,
                      const std::function<RoundSummary()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) return fn();
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return fn();
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string text = encode(fn());
      std::size_t off = 0;
      while (off < text.size()) {
        const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
        if (n <= 0) {
          code = 1;
          break;
        }
        off += static_cast<std::size_t>(n);
      }
    } catch (...) {
      code = 1;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  while (true) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    RoundSummary dead;
    dead.issued = dead.failed = config.requests;
    dead.why.push_back("round process did not finish");
    return dead;
  }
  return decode(text);
}

/// Reads the counters a round starts from (after set-up).
class Baseline : public StepObserver {
 public:
  explicit Baseline(Workload& workload) : workload_(workload) {}
  void on_start() override {
    workload_.read_counters(&counters);
    rollup_rows = workload_.extra_counts().at("rollup_rows");
  }
  void on_step(double, bool, std::uint64_t) override {}
  void on_request(bool, std::uint64_t, double) override {}
  void on_quarter(int) override {}

  Counters counters;
  double rollup_rows = 0;

 private:
  Workload& workload_;
};

/// Fleet burst probe: 400 readings at 4x the workload's rate, evenly
/// spaced and completing on their append acks, to count how much work
/// push-mode Sync repeats when its rounds overlap. Its output is known to
/// hold duplicate rollup rows, so its check does not count as a failure.
Metrics fleet_burst_probe(const Args& args, const WorkloadConfig& base) {
  WorkloadConfig config = base;
  config.requests = 400;
  config.rate_rps = 4 * base.rate_rps;
  config.arrivals = WorkloadConfig::Arrivals::kEven;
  config.ack_completes = true;
  std::unique_ptr<Workload> workload = make_workload(config, args.seed);
  Baseline start(*workload);
  (void)run_round(*workload, config, args.seed, &start);
  Counters end;
  workload->read_counters(&end);
  const double readings = static_cast<double>(config.requests);
  return {{"burst.sync.processed_per_reading",
           static_cast<double>(end.sync_processed -
                               start.counters.sync_processed) /
               readings,
           "count/req"},
          {"burst.sync.rollup_rows_per_reading",
           (workload->extra_counts().at("rollup_rows") - start.rollup_rows) /
               readings,
           "count/req"}};
}

void print_metric(const Metric& m) {
  std::printf("  %-36s %16s %s\n", m.name.c_str(),
              format_number(m.value).c_str(), m.unit.c_str());
}

int run(const Args& args) {
  WorkloadConfig config;
  if (!workload_config(args.workload, args.scale, args.data_dir, &config)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.data_dir.c_str());
    return 2;
  }

  const double tail = tail_percentile(config.requests);
  std::printf("perfbench workload=%s seed=%llu trace=%d\n",
              config.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0);
  std::printf(
      "  hardware_concurrency=%u build_type=%s compiler=%s git_commit=%s\n",
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, PERFBENCH_GIT_COMMIT);
  std::printf(
      "  requests_per_round=%llu offered_rps=%s arrivals=%s max_in_flight=%llu "
      "shards=%zu workers=%d tail=p%s\n",
      static_cast<unsigned long long>(config.requests),
      format_number(config.rate_rps).c_str(), arrivals_name(config.arrivals),
      static_cast<unsigned long long>(config.max_in_flight), config.shards,
      config.workers, format_number(tail).c_str());

  const auto started = WallClock::now();
  std::vector<RoundSummary> plain;
  std::vector<RoundSummary> traced;
  // Untraced rounds until the budget is spent (at least two); traced runs
  // stop before a pair that would end past it (at least one pair).
  while (true) {
    const auto round_start = WallClock::now();
    plain.push_back(isolated(config, [&] {
      // Set-up alone, a few times, so setup_s is a percentile over many
      // samples even when only a few rounds fit in the budget.
      std::vector<double> setups;
      double spent = 0;
      while (setups.size() < kMinSetupSamples ||
             (setups.size() < kMaxSetupSamples && spent < kSetupBudgetS)) {
        std::unique_ptr<Workload> workload = make_workload(config, args.seed);
        const auto t0 = WallClock::now();
        workload->setup();
        setups.push_back(seconds_since(t0));
        spent += setups.back();
      }
      std::unique_ptr<Workload> workload = make_workload(config, args.seed);
      RoundSummary summary =
          summarize(run_round(*workload, config, args.seed, nullptr), tail);
      summary.setup_samples_s.insert(summary.setup_samples_s.end(),
                                     setups.begin(), setups.end());
      return summary;
    }));
    if (args.trace) {
      const bool write_spans = traced.empty() && !args.spans_out.empty();
      traced.push_back(isolated(config, [&] {
        std::unique_ptr<Workload> workload = make_workload(config, args.seed);
        Attribution observer(*workload);
        const RoundResult round =
            run_round(*workload, config, args.seed, &observer);
        RoundSummary summary = summarize(round, tail);
        observer.add_metrics(round, &summary.layers);
        if (write_spans) (void)observer.write_spans(args.spans_out);
        return summary;
      }));
    }
    const double elapsed = seconds_since(started);
    const double next_end = args.trace ? elapsed + seconds_since(round_start)
                                       : elapsed;
    const std::size_t min_rounds = args.trace ? 1 : 2;
    if (plain.size() >= min_rounds && next_end >= args.seconds) break;
    if (plain.size() >= 1000) break;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> why;
  for (const auto* rounds : {&plain, &traced}) {
    for (const RoundSummary& r : *rounds) {
      attempted += r.issued;
      failed += r.failed;
      for (const auto& w : r.why) {
        if (std::find(why.begin(), why.end(), w) == why.end()) why.push_back(w);
      }
    }
  }
  if (attempted == 0) {  // nothing ran: report the run as failed
    attempted = 1;
    failed = 1;
  }

  auto values_of = [](const std::vector<RoundSummary>& rounds,
                      double RoundSummary::*field) {
    std::vector<double> values;
    for (const RoundSummary& r : rounds) values.push_back(r.*field);
    return values;
  };
  auto median_of = [&](const std::vector<RoundSummary>& rounds,
                       double RoundSummary::*field) {
    return median(values_of(rounds, field));
  };
  auto fast_of = [&](const std::vector<RoundSummary>& rounds,
                     double RoundSummary::*field) {
    return percentile(values_of(rounds, field), kFastPercentile);
  };
  Metrics metrics;
  if (!args.trace) {
    std::vector<double> setups;
    for (const RoundSummary& r : plain) {
      setups.insert(setups.end(), r.setup_samples_s.begin(),
                    r.setup_samples_s.end());
    }
    metrics = {
        {"throughput_rps",
         percentile(values_of(plain, &RoundSummary::throughput_rps),
                    100 - kFastPercentile),
         "req/s"},
        {"wall_p50_us", fast_of(plain, &RoundSummary::wall_p50_us), "us"},
        {"wall_tail_us", fast_of(plain, &RoundSummary::wall_tail_us), "us"},
        {"virt_p50_ms", median_of(plain, &RoundSummary::virt_p50_ms), "ms"},
        {"virt_tail_ms", median_of(plain, &RoundSummary::virt_tail_ms), "ms"},
        {"cpu_us_per_req", fast_of(plain, &RoundSummary::cpu_us_per_req),
         "us"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"setup_s", percentile(setups, kFastPercentile), "s"},
    };
  } else {
    // Per-layer metrics: the median of each over the traced rounds (the
    // counts are identical in every round of a seed).
    const Metrics& first = traced.front().layers;
    for (std::size_t i = 0; i < first.size(); ++i) {
      std::vector<double> values;
      for (const RoundSummary& r : traced) {
        if (i < r.layers.size()) values.push_back(r.layers[i].value);
      }
      metrics.push_back({first[i].name, median(values), first[i].unit});
    }
    const double base = median_of(plain, &RoundSummary::wall_s);
    metrics.push_back(
        {"trace.overhead_pct",
         base > 0 ? (median_of(traced, &RoundSummary::wall_s) / base - 1) * 100
                  : 0,
         "%"});
    Metrics burst;
    if (config.name == "fleet_telemetry") {
      burst = fleet_burst_probe(args, config);
    } else {
      burst = {{"burst.sync.processed_per_reading", 0, "count/req"},
               {"burst.sync.rollup_rows_per_reading", 0, "count/req"}};
    }
    metrics.insert(metrics.end(), burst.begin(), burst.end());
  }

  std::printf("  rounds=%zu traced_rounds=%zu attempted=%llu failed=%llu "
              "fail_ratio=%s\n",
              plain.size(), traced.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              format_number(static_cast<double>(failed) /
                            static_cast<double>(attempted))
                  .c_str());
  for (const auto& w : why) std::printf("  check failed: %s\n", w.c_str());
  if (args.trace && !args.spans_out.empty()) {
    std::printf("  spans of the first traced round: %s\n",
                args.spans_out.c_str());
  }
  for (const Metric& m : metrics) print_metric(m);

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            format_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--data-dir <dir>] [--scale <x>] "
                 "[--spans-out <file>]\n");
    return 2;
  }
  return perfbench::run(args);
}
