// Exact-percentile latency recorder for the open-loop bench harness.
// Samples are virtual-time durations (sim::SimTime microseconds), so every
// quantile is a deterministic function of the seed — two same-seed runs
// must serialize byte-identically into BENCH_*.json. That rules out
// approximate sketches: the recorder keeps every sample and computes exact
// nearest-rank percentiles on demand.
//
// Recorders merge losslessly (merge() concatenates samples), so several
// generators can record locally and combine at report time with the same
// result as one global recorder.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace knactor::common {

/// Append-only duration recorder with exact nearest-rank percentiles.
/// record() is O(1) amortized; percentile() sorts lazily (O(n log n) once
/// per batch of inserts) — fine off the hot path, where benches query
/// quantiles after the run.
class LatencyRecorder {
 public:
  void record(std::int64_t sample) {
    samples_.push_back(sample);
    sorted_ = false;
  }

  /// Lossless merge of another recorder's samples (per-worker reservoirs
  /// combining into the run-wide distribution).
  void merge(const LatencyRecorder& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  [[nodiscard]] std::int64_t min() const {
    sort_if_needed();
    return samples_.empty() ? 0 : samples_.front();
  }
  [[nodiscard]] std::int64_t max() const {
    sort_if_needed();
    return samples_.empty() ? 0 : samples_.back();
  }
  [[nodiscard]] double mean() const {
    if (samples_.empty()) return 0.0;
    double sum = 0;
    for (std::int64_t s : samples_) sum += static_cast<double>(s);
    return sum / static_cast<double>(samples_.size());
  }

  /// Nearest-rank percentile: the ceil(p/100 * N)-th smallest sample
  /// (1-indexed), clamped to [1, N]. p = 0 returns the minimum, p = 100
  /// the maximum. Returns 0 on an empty recorder.
  [[nodiscard]] std::int64_t percentile(double p) const {
    if (samples_.empty()) return 0;
    sort_if_needed();
    const auto n = static_cast<double>(samples_.size());
    auto rank = static_cast<std::size_t>(
        std::max(1.0, std::min(n, std::ceil(p / 100.0 * n))));
    return samples_[rank - 1];
  }

  [[nodiscard]] std::int64_t p50() const { return percentile(50.0); }
  [[nodiscard]] std::int64_t p99() const { return percentile(99.0); }
  [[nodiscard]] std::int64_t p999() const { return percentile(99.9); }

  void clear() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  void sort_if_needed() const {
    if (sorted_) return;
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }

  // Mutable so the const accessors can sort lazily; the recorder is not
  // thread-safe (per-worker instances merge into one for reporting).
  mutable std::vector<std::int64_t> samples_;
  mutable bool sorted_ = false;
};

}  // namespace knactor::common
