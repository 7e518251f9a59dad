// The open-loop generator and the step loop shared by every workload.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <deque>

#include "bench.h"

namespace perfbench {

namespace {

using WallClock = std::chrono::steady_clock;

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double seconds_between(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Fires arrivals at their fixed virtual times, admits at most
/// `max_in_flight` requests at once (the rest wait FIFO), and records each
/// request's wall and virtual latency. Arrival i schedules arrival i+1, so
/// the event queue holds one pending arrival instead of the whole schedule.
class Generator {
 public:
  Generator(Workload& workload, const WorkloadConfig& config,
            std::vector<SimTime> due, RoundResult& result,
            StepObserver* observer)
      : workload_(workload),
        clock_(workload.clock()),
        config_(config),
        due_(std::move(due)),
        started_(due_.size()),
        result_(result),
        observer_(observer) {
    result_.wall_us.reserve(due_.size());
  }

  void start() {
    if (due_.empty()) return;
    clock_.schedule_at(due_[0], [this] { arrive(0); });
  }

  /// Set by arrival and completion callbacks; the step loop clears it.
  bool ran = false;
  std::uint64_t request_id = 0;  // 1-based id of the last request touched

  WallClock::time_point first_arrival{};
  WallClock::time_point last_completion{};
  double cpu_at_first_arrival = 0;
  double cpu_at_last_completion = -1;

 private:
  void arrive(std::uint64_t i) {
    ran = true;
    request_id = i + 1;
    started_[i] = WallClock::now();
    if (i == 0) {
      first_arrival = started_[i];
      cpu_at_first_arrival = cpu_seconds();
    }
    ++result_.issued;
    if (i + 1 < due_.size()) {
      clock_.schedule_at(due_[i + 1], [this, next = i + 1] { arrive(next); });
    }
    if (in_flight_ < config_.max_in_flight) {
      admit(i);
    } else {
      backlog_.push_back(i);
      if (backlog_.size() > result_.max_backlog) {
        result_.max_backlog = backlog_.size();
      }
    }
  }

  void admit(std::uint64_t i) {
    ++in_flight_;
    if (observer_ == nullptr) {
      workload_.issue(i, [this, i] { complete(i); });
      return;
    }
    const auto before = WallClock::now();
    workload_.issue(i, [this, i] { complete(i); });
    observer_->on_request(
        true, i + 1,
        std::chrono::duration<double, std::nano>(WallClock::now() - before)
            .count());
  }

  void complete(std::uint64_t i) {
    ran = true;
    request_id = i + 1;
    const auto now = WallClock::now();
    result_.wall_us.push_back(
        std::chrono::duration<double, std::micro>(now - started_[i]).count());
    result_.virt_us.record(clock_.now() - due_[i]);
    ++result_.completed;
    last_completion = now;
    if (observer_ != nullptr) observer_->on_request(false, i + 1, 0);
    if (result_.completed == due_.size()) {
      cpu_at_last_completion = cpu_seconds();
    }
    --in_flight_;
    if (!backlog_.empty()) {
      const std::uint64_t next = backlog_.front();
      backlog_.pop_front();
      admit(next);
    }
  }

  Workload& workload_;
  knactor::sim::VirtualClock& clock_;
  const WorkloadConfig& config_;
  std::vector<SimTime> due_;
  std::vector<WallClock::time_point> started_;
  std::deque<std::uint64_t> backlog_;
  std::uint64_t in_flight_ = 0;
  RoundResult& result_;
  StepObserver* observer_;
};

}  // namespace

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<SimTime> arrival_offsets(const WorkloadConfig& config,
                                     std::uint64_t seed) {
  std::uint64_t state = seed * 0x2545F4914F6CDD1DULL + 0xA77;
  const double mean_gap_us =
      static_cast<double>(knactor::sim::kSecond) / config.rate_rps;
  std::vector<SimTime> out;
  out.reserve(config.requests);
  double t = 0;
  for (std::uint64_t i = 0; i < config.requests; ++i) {
    out.push_back(static_cast<SimTime>(std::llround(t)));
    const double u = unit_double(state);
    switch (config.arrivals) {
      case WorkloadConfig::Arrivals::kPoisson:
        t += -std::log1p(-u) * mean_gap_us;
        break;
      case WorkloadConfig::Arrivals::kJittered:
        t += mean_gap_us * (0.95 + 0.1 * u);
        break;
      case WorkloadConfig::Arrivals::kEven:
        t += mean_gap_us;
        break;
    }
  }
  return out;
}

RoundResult run_round(Workload& workload, const WorkloadConfig& config,
                      std::uint64_t seed, StepObserver* observer) {
  RoundResult result;
  const auto setup_start = WallClock::now();
  workload.setup();
  result.setup_s = seconds_between(setup_start, WallClock::now());

  knactor::sim::VirtualClock& clock = workload.clock();
  // Arrivals start one virtual millisecond after set-up settled.
  const SimTime start = clock.now() + knactor::sim::kMillisecond;
  std::vector<SimTime> due = arrival_offsets(config, seed);
  for (SimTime& t : due) t += start;
  Generator generator(workload, config, std::move(due), result, observer);
  if (observer != nullptr) observer->on_start();
  generator.start();

  const std::uint64_t total = config.requests;
  double paused_s = 0;
  if (observer == nullptr) {
    while (clock.step()) ++result.steps;
  } else {
    const auto loop_start = WallClock::now();
    double paused_all_s = 0;
    int next_quarter = 1;
    while (true) {
      generator.ran = false;
      generator.request_id = 0;
      const auto before = WallClock::now();
      const bool stepped = clock.step();
      const auto after = WallClock::now();
      if (!stepped) break;
      ++result.steps;
      const double ns =
          std::chrono::duration<double, std::nano>(after - before).count();
      result.stepped_wall_ns += ns;
      observer->on_step(ns, generator.ran, generator.request_id);
      while (next_quarter <= 4 &&
             result.completed * 4 >= static_cast<std::uint64_t>(next_quarter) *
                                          total) {
        const auto paused = WallClock::now();
        observer->on_quarter(next_quarter++);
        const double probe_s = seconds_between(paused, WallClock::now());
        paused_all_s += probe_s;
        // Probes taken before the last completion are not request time.
        if (result.completed < total) paused_s += probe_s;
      }
    }
    result.loop_s =
        seconds_between(loop_start, WallClock::now()) - paused_all_s;
    while (next_quarter <= 4) observer->on_quarter(next_quarter++);
  }

  if (result.completed > 0) {
    result.wall_s =
        seconds_between(generator.first_arrival, generator.last_completion) -
        paused_s;
  }
  const double cpu_end = generator.cpu_at_last_completion >= 0
                             ? generator.cpu_at_last_completion
                             : cpu_seconds();
  result.cpu_s = cpu_end - generator.cpu_at_first_arrival;
  result.mismatches = workload.check(&result.why);
  return result;
}

}  // namespace perfbench
