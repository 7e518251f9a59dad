// Pipeline planner for Log queries (§3.3 operator consolidation): fuses
// adjacent record-local operators (filter, rename, cut/project, drop, put/
// map) into a single per-record pass, keeps barrier operators (sort, head,
// tail, summarize) as their own passes, and derives scan hints that push
// head/tail limits into the Log scan itself:
//
//   where kwh > 0.5 | put wh := kwh*1000 | cut device, wh | head 5
//     -> stage 0: fused {filter, map, project}   (one record pass)
//        stage 1: head 5                          (barrier)
//        early_stop = 5  (the scan stops once 5 records survive stage 0)
//
// Execution is copy-on-write over shared record buffers (common/cow.h):
// records that pass through unmutated move as handles, and a mutation
// (rename/map/...) clones at most once per record regardless of how many
// fused operators touch it. An unfused plan (one stage per operator, no
// scan hints) is the naive side of the consolidation ablation; fused and
// unfused plans give bit-identical results on total pipelines — the
// differential equivalence suite in tests/property enforces this.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "common/cow.h"
#include "common/result.h"
#include "de/log.h"

namespace knactor::de {

constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

/// One execution pass: either a fused run of record-local operators or a
/// single barrier operator.
struct PlanStage {
  std::vector<LogOp> fused;  // record-local segment (empty for barriers)
  LogOp barrier;             // meaningful iff is_barrier
  bool is_barrier = false;
};

struct QueryPlan {
  std::vector<PlanStage> stages;

  /// Scan hints for the Log DE (kNoLimit = none):
  /// * scan_head: the pipeline starts with `head N` — the scan only needs
  ///   the first N matching records.
  /// * scan_tail: the pipeline starts with `tail N` — only the last N.
  /// * early_stop: stage 0 is a fused segment immediately followed by
  ///   `head N` — execution stops once N records survive stage 0.
  std::size_t scan_head = kNoLimit;
  std::size_t scan_tail = kNoLimit;
  std::size_t early_stop = kNoLimit;

  /// Record passes this plan costs (the consolidation ablation surface):
  /// one per stage.
  [[nodiscard]] std::size_t passes() const { return stages.size(); }
};

/// Plans a query. Pure function of the pipeline; cheap enough to run per
/// round (ops are copied by value, compiled expressions are shared).
/// Unfused (`fuse` false), every operator is its own stage and the plan
/// carries no scan hints, so it reads every record and surfaces the first
/// error an operator-at-a-time run meets.
QueryPlan plan_query(const LogQuery& q, bool fuse = true);

/// Static per-stage record-count upper bounds for `input_records` entering
/// the plan: entry i is the worst-case number of records entering stage i,
/// and the final extra entry is the output estimate. Mirrors the clamping
/// run_plan actually performs (scan_head/scan_tail/early_stop, head/tail
/// barriers); filters and aggregates keep the upper bound. This is the
/// cost model behind `knctl analyze --cost`.
std::vector<std::size_t> estimate_stage_inputs(const QueryPlan& plan,
                                               std::size_t input_records);

/// Executes a plan over copy-on-write record handles. `stats`, when given,
/// receives the per-stage record counts actually processed (the charging
/// basis for consolidated Sync rounds) and how many input records the
/// first stage consumed before an early stop.
struct PlanRunStats {
  std::vector<std::size_t> stage_inputs;  // records entering each stage
  std::size_t consumed = 0;               // stage-0 inputs actually read
  [[nodiscard]] std::size_t total_processed() const {
    std::size_t total = 0;
    for (std::size_t n : stage_inputs) total += n;
    return total;
  }
};
common::Result<std::vector<common::CowValue>> run_plan(
    const QueryPlan& plan, std::vector<common::CowValue> records,
    PlanRunStats* stats = nullptr);

}  // namespace knactor::de
