// Span-based tracing for data exchanges (§5 "observability ... monitoring
// knactor SLOs through distributed tracing"). Because composition is
// explicit in Knactor, every exchange pass and store operation can be
// traced at the framework level without touching service code — this
// module is what the Table 2 bench uses to attribute time to the paper's
// C-I / I / I-S / S stages.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
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

/// Collects spans. Every accessor is safe to call at any time, including
/// while shard workers are emitting spans: mutations are serialized by a
/// mutex, and `spans()` returns a *snapshot copy* taken under that mutex
/// — never a reference into the live vector. The snapshot is immutable
/// and self-contained; spans opened or finished after the call do not
/// appear in it. (Framework code that wants stable span ordering should
/// still read between barriers, but that is a determinism concern, not a
/// memory-safety one — see docs/OBSERVABILITY.md.)
class Tracer {
 public:
  explicit Tracer(sim::VirtualClock& clock) : clock_(clock) {}

  /// Opens a span; returns its id. Pass parent=0 for a root span.
  std::uint64_t begin(const std::string& name, std::uint64_t parent = 0);
  void annotate(std::uint64_t span_id, const std::string& key,
                const std::string& value);
  void end(std::uint64_t span_id);

  /// Snapshot of all spans recorded so far, in emission order.
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard lock(mutex_);
    return spans_;
  }
  /// All finished spans with the given name.
  [[nodiscard]] std::vector<Span> by_name(const std::string& name) const;
  /// All finished spans carrying attribute `key` == `value` (e.g.
  /// stage="I" for the paper's integrator-compute stage).
  [[nodiscard]] std::vector<Span> by_attribute(const std::string& key,
                                               const std::string& value) const;
  /// Sum of durations of finished spans with the given name.
  [[nodiscard]] sim::SimTime total_duration(const std::string& name) const;
  void clear() {
    std::lock_guard lock(mutex_);
    spans_.clear();
  }

  class SpanBuffer;
  /// Merges a worker-local span buffer: re-stamps every buffered span with
  /// globally sequential ids (preserving the buffer's parent links) and
  /// appends them in buffer order. Callers merge buffers in a
  /// deterministic order (e.g. shard index at an epoch boundary), which
  /// makes the resulting span log identical to a serial emission — same
  /// count, same names, same stage attributes. The buffer is drained.
  void merge(SpanBuffer& buffer);

  /// A worker-local span sink: begin/annotate/end with zero shared-state
  /// contention (no mutex, no shared id counter — ids are local until
  /// merge re-stamps them). Workers emitting spans on the epoch hot path
  /// fill one buffer each; the epoch merge folds them into the Tracer at
  /// the boundary.
  class SpanBuffer {
   public:
    std::uint64_t begin(const std::string& name, sim::SimTime now,
                        std::uint64_t parent = 0) {
      Span span;
      span.id = next_local_id_++;
      span.parent = parent;
      span.name = name;
      span.start = now;
      spans_.push_back(std::move(span));
      return spans_.back().id;
    }
    void annotate(std::uint64_t span_id, const std::string& key,
                  const std::string& value) {
      if (Span* s = find(span_id)) s->attributes[key] = value;
    }
    void end(std::uint64_t span_id, sim::SimTime now) {
      if (Span* s = find(span_id)) s->end = now;
    }
    [[nodiscard]] std::size_t size() const { return spans_.size(); }
    [[nodiscard]] bool empty() const { return spans_.empty(); }

   private:
    friend class Tracer;
    Span* find(std::uint64_t span_id) {
      for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
        if (it->id == span_id) return &*it;
      }
      return nullptr;
    }
    std::vector<Span> spans_;
    std::uint64_t next_local_id_ = 1;
  };

 private:
  /// The span with `span_id`, or nullptr; caller holds mutex_.
  Span* find_locked(std::uint64_t span_id);

  sim::VirtualClock& clock_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

inline void Tracer::merge(SpanBuffer& buffer) {
  std::lock_guard lock(mutex_);
  // Local id -> global id, so parent links survive the re-stamp.
  std::map<std::uint64_t, std::uint64_t> remap;
  for (Span& span : buffer.spans_) {
    const std::uint64_t global = next_id_++;
    remap[span.id] = global;
    span.id = global;
  }
  for (Span& span : buffer.spans_) {
    if (span.parent == 0) continue;
    // Parent links must reference spans in the same buffer (or 0): local
    // ids only have meaning within their buffer.
    auto it = remap.find(span.parent);
    if (it != remap.end()) span.parent = it->second;
  }
  spans_.insert(spans_.end(),
                std::make_move_iterator(buffer.spans_.begin()),
                std::make_move_iterator(buffer.spans_.end()));
  buffer.spans_.clear();
  buffer.next_local_id_ = 1;
}

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

/// Monotonic counters + gauges for framework internals. inc/get/clear are
/// mutex-serialized (safe from shard workers); `all()` returns the map by
/// reference and must only be read between barriers.
class Metrics {
 public:
  void inc(const std::string& name, std::uint64_t delta = 1) {
    std::lock_guard lock(mutex_);
    counters_[name] += delta;
  }
  [[nodiscard]] std::uint64_t get(const std::string& name) const {
    std::lock_guard lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& all() const {
    return counters_;
  }
  void clear() {
    std::lock_guard lock(mutex_);
    counters_.clear();
  }

  /// A worker-local counter sink: inc() touches no shared state (no mutex
  /// acquisition per bump). Workers on the epoch hot path fill one Delta
  /// each; merge() folds them into the shared counters at the epoch
  /// boundary under a single lock. Counter addition commutes, so any merge
  /// order yields the same totals as serial inc() calls.
  class Delta {
   public:
    void inc(const std::string& name, std::uint64_t delta = 1) {
      counters_[name] += delta;
    }
    [[nodiscard]] bool empty() const { return counters_.empty(); }

   private:
    friend class Metrics;
    std::map<std::string, std::uint64_t> counters_;
  };

  /// Folds a worker-local Delta into the shared counters (one lock for the
  /// whole batch) and drains it.
  void merge(Delta& delta) {
    if (delta.counters_.empty()) return;
    std::lock_guard lock(mutex_);
    for (const auto& [name, value] : delta.counters_) {
      counters_[name] += value;
    }
    delta.counters_.clear();
  }

 private:
  mutable std::mutex mutex_;
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
