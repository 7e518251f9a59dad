// Trace exporters (§5 observability): turn a Tracer's span snapshot into
// artifacts a human or an external tool can consume —
//
//   * export_chrome_trace: Chrome trace-event JSON (load in
//     chrome://tracing or Perfetto; complete "X" events, ts/dur in µs);
//   * export_text_summary: flamegraph-style aggregation by span name,
//     per-stage totals over the paper's C-I / I / I-S attribution, and
//     the critical path through the deepest trace;
//   * explain: the derivation chain of one record (lineage DAG from the
//     provenance ring) annotated with the producing pass's per-stage
//     span latencies — what `knctl explain <store>/<key>` prints.
//
// All output is deterministic given the same spans/ring (no wall-clock,
// no pointers), which is what lets the lineage differential test require
// byte-identical traces across shard counts.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/causality.h"
#include "core/trace.h"

namespace knactor::core {

/// Aggregate of finished spans carrying the same "stage" attribute.
struct StageStat {
  std::uint64_t count = 0;
  sim::SimTime total = 0;  // summed span durations, µs

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(total) / count;
  }
};

/// Groups finished spans by their "stage" attribute (C-I / I / I-S / S).
/// Spans with no stage attribute are aggregated under "-".
std::map<std::string, StageStat> stage_breakdown(
    const std::vector<Span>& spans);

/// Chrome trace-event JSON for the given spans (finished spans become
/// complete "X" events; still-open spans become begin "B" events). Spans
/// are emitted in id order; attributes ride in "args".
std::string export_chrome_trace(const std::vector<Span>& spans);

/// Human-readable summary: span-name flame table (count, total, mean),
/// per-stage breakdown, and the critical path (the chain of nested spans
/// with the largest summed duration, starting from a root span).
std::string export_text_summary(const std::vector<Span>& spans);

/// Renders the derivation chain of (store, key): the lineage DAG from
/// `ring`, then for each producing hop the per-stage latencies of its
/// pass span (the span's children grouped by their "stage" attribute).
/// Returns a "no lineage recorded" message when the ring has no entry.
std::string explain(const ProvenanceRing& ring, const std::vector<Span>& spans,
                    const std::string& store, const std::string& key);

}  // namespace knactor::core
