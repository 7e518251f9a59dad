// Span-based tracing for data exchanges (§5 "observability ... monitoring
// knactor SLOs through distributed tracing"). Because composition is
// explicit in Knactor, every exchange pass and store operation can be
// traced at the framework level without touching service code — this
// module is what the Table 2 bench uses to attribute time to the paper's
// C-I / I / I-S / S stages.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "sim/clock.h"

namespace knactor::core {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  std::map<std::string, std::string> attributes;

  [[nodiscard]] sim::SimTime duration() const { return end - start; }
};

/// Collects spans. `spans()` returns a *snapshot copy* — never a reference
/// into the live vector — so spans opened or finished after the call do not
/// appear in it (see docs/OBSERVABILITY.md).
class Tracer {
 public:
  explicit Tracer(sim::VirtualClock& clock) : clock_(clock) {}

  /// Opens a span; returns its id. Pass parent=0 for a root span.
  std::uint64_t begin(const std::string& name, std::uint64_t parent = 0);
  void annotate(std::uint64_t span_id, const std::string& key,
                const std::string& value);
  void end(std::uint64_t span_id);

  /// Snapshot of all spans recorded so far, in emission order.
  [[nodiscard]] std::vector<Span> spans() const { return spans_; }
  /// All finished spans with the given name.
  [[nodiscard]] std::vector<Span> by_name(const std::string& name) const;
  /// All finished spans carrying attribute `key` == `value` (e.g.
  /// stage="I" for the paper's integrator-compute stage).
  [[nodiscard]] std::vector<Span> by_attribute(const std::string& key,
                                               const std::string& value) const;
  /// Sum of durations of finished spans with the given name.
  [[nodiscard]] sim::SimTime total_duration(const std::string& name) const;
  void clear() { spans_.clear(); }

 private:
  /// The span with `span_id`, or nullptr.
  Span* find(std::uint64_t span_id);

  sim::VirtualClock& clock_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span: opens on construction, closes when the scope exits — so a
/// span around a multi-exit operation (e.g. persistence snapshot/recovery)
/// always closes, including on early error returns. Null-tracer tolerant:
/// with `tracer == nullptr` every call is a no-op, which lets optional
/// observability sinks stay optional at the call site.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             std::uint64_t parent = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->begin(name, parent);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void annotate(const std::string& key, const std::string& value) {
    if (tracer_ != nullptr) tracer_->annotate(id_, key, value);
  }
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Monotonic counters + gauges for framework internals.
class Metrics {
 public:
  void inc(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  [[nodiscard]] std::uint64_t get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& all() const {
    return counters_;
  }
  void clear() { counters_.clear(); }

 private:
  std::map<std::string, std::uint64_t> counters_;
};

/// Snapshots a batch-size histogram into Metrics counters
/// ("<prefix>.count", "<prefix>.sum", "<prefix>.max", "<prefix>.le_8",
/// ...). Overwrites rather than accumulates, so it is safe to call
/// repeatedly (e.g. per scrape) with a monotonically growing histogram.
inline void export_histogram(Metrics& metrics, const std::string& prefix,
                             const common::SizeHistogram& hist) {
  hist.export_counters(prefix,
                       [&](const std::string& name, std::uint64_t value) {
                         metrics.inc(name, value - metrics.get(name));
                       });
}

}  // namespace knactor::core
