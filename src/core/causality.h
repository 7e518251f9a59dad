// Causal trace context + record-level lineage (§5 "monitoring knactor
// SLOs through distributed tracing"). Because integration is explicit in
// Knactor, causality can be threaded at the framework level: every DE
// commit stamps a TraceContext onto the watch events it fires, batched
// delivery carries the context through the window flush, and an
// integrator pass opens child spans whose derived writes inherit the
// trace. Alongside the span tree, the Kernel keeps a bounded provenance
// ring that maps each derived write to the exact (store, key/seq) inputs
// it was computed from — the data-lineage half of observability
// (Zed-style provenance over the paper's Dapper-style propagation).
//
// The types here are intentionally inline and dependency-light (common +
// sim only) so `de/` can embed contexts and the ring without linking
// kn_core; the DAG walk below is implemented in causality.cpp (kn_core),
// and exporters live in core/trace_export.h.
//
// Determinism contract: trace ids are derived from DE commit sequence
// numbers and spans are only emitted from the main event loop, so the
// full trace — ids, ordering, timing — is a pure function of the seed
// (pinned by tests/property/golden_history_test.cpp).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "sim/clock.h"

namespace knactor::core {

/// Causal context carried by a DE commit and every watch event it fires.
/// A zero trace_id means "no trace yet": the commit that fires with a
/// zero id becomes a trace root and adopts its own commit-seq as the
/// trace id (deterministic — commit seqs are allocated in commit order on
/// the main loop). parent_span points at the span that caused the write
/// (an integrator's write stage, a bridge hop), 0 for service writes.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  std::uint64_t commit_seq = 0;  // stamped by the DE at fire time

  [[nodiscard]] bool active() const { return trace_id != 0; }
};

/// One endpoint of a lineage edge: a versioned record in a store (object
/// stores use `version`, log pools use the record seq in the same field).
/// `data` snapshots the record's payload at that version (zero-copy
/// shared buffer) so a lineage chain can be replayed without the store —
/// the differential test rebuilds the derived record from exactly these
/// inputs.
struct LineageRef {
  std::string store;
  std::string key;            // object key, or decimal seq for log records
  std::uint64_t version = 0;  // object version / log seq
  common::SharedValue data;   // payload snapshot at that version
};

/// One derived write: output record, the complete input set it was
/// computed from, and the operator that produced it. `span_id` links into
/// the span tree (the integrator pass span), letting `knctl explain`
/// print per-stage latencies next to the derivation chain.
struct LineageRecord {
  LineageRef output;
  std::vector<LineageRef> inputs;
  std::string op;     // "cast:<name>", "sync:<route>", "bridge:<node>"
  std::string stage;  // paper stage of the producing hop (usually "I-S")
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  // integrator pass span; 0 = untraced
  sim::SimTime time = 0;      // commit time of the derived write
};

/// Bounded ring of lineage records (mirrors the Kernel's audit ring):
/// capacity 0 disables recording entirely — the hot path then skips input
/// snapshotting. Lookups scan from the newest record backwards, which is
/// fine for tooling (`knctl explain`, tests); the ring is not a hot-path
/// index.
class ProvenanceRing {
 public:
  /// Sets the maximum number of retained records; 0 disables the ring.
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    trim();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool enabled() const { return capacity_ > 0; }

  void record(LineageRecord rec) {
    if (capacity_ == 0) return;
    records_.push_back(std::move(rec));
    trim();
  }

  [[nodiscard]] const std::deque<LineageRecord>& records() const {
    return records_;
  }

  /// Newest record whose output matches store/key (any version).
  [[nodiscard]] const LineageRecord* latest_for(const std::string& store,
                                                const std::string& key) const {
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
      if (it->output.store == store && it->output.key == key) return &*it;
    }
    return nullptr;
  }

  /// Newest record whose output matches store/key at an exact version.
  [[nodiscard]] const LineageRecord* find(const std::string& store,
                                          const std::string& key,
                                          std::uint64_t version) const {
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
      if (it->output.store == store && it->output.key == key &&
          it->output.version == version) {
        return &*it;
      }
    }
    return nullptr;
  }

  void clear() { records_.clear(); }

 private:
  void trim() {
    while (records_.size() > capacity_) records_.pop_front();
  }

  std::size_t capacity_ = 0;
  std::deque<LineageRecord> records_;
};

/// One node of a flattened lineage DAG: a record reference, the lineage
/// record that produced it (nullptr = source record with no recorded
/// producer — a service write or an input that aged out of the ring), and
/// its depth in the derivation-chain walk (0 = the queried output).
struct LineageDagNode {
  LineageRef ref;
  const LineageRecord* producer = nullptr;
  std::size_t depth = 0;
};

/// Walks the derivation chain of (store, key) backwards through the ring:
/// depth-first from the newest record for the key, recursing into each
/// input that itself has a recorded producer (matched by exact version;
/// version-0 inputs match the newest record for that key). Deterministic
/// order
/// (inputs in recorded order), cycle-safe. Pointers are into `ring`;
/// don't mutate it while holding the result.
std::vector<LineageDagNode> lineage_dag(const ProvenanceRing& ring,
                                        const std::string& store,
                                        const std::string& key);

/// Renders a lineage DAG as an indented text tree (one line per node:
/// store/key@version, producing operator and stage, trace id).
std::string format_lineage(const std::vector<LineageDagNode>& dag);

}  // namespace knactor::core
