// Sync: the built-in integrator for Log data exchanges (§3.2). Moves
// records between log pools through a dataflow-operator pipeline (filter,
// rename, project, sort, aggregate, map, head/tail) — e.g. the smart-home
// app renames Motion's "triggered" field to "motion" before loading the
// records into House's pool (Fig. 4).
//
// A Sync route is (source pool, pipeline, target pool); the integrator
// tracks a cursor per route and periodically (or on demand) queries new
// records, runs the pipeline, and appends the results. Routes can be
// added, removed, or re-piped at run-time (§3.3).
//
// Operator consolidation (§3.3 optimization 3): adjacent compatible
// operators are fused into fewer passes. `Options::consolidate` (or
// `reconfigure({"consolidate": false})`) turns it off for the ablation
// bench: routes then run the unfused plan over deep-copied batches.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/causality.h"
#include "core/integrator.h"
#include "core/trace.h"
#include "de/log.h"
#include "de/plan.h"
#include "sim/clock.h"
#include "sim/random.h"
#include "sim/retry.h"

namespace knactor::core {

struct SyncRoute {
  std::string name;
  de::LogPool* source = nullptr;
  de::LogPool* target = nullptr;
  de::LogQuery pipeline;
  std::uint64_t cursor = 0;  // highest source seq already synced
};

struct SyncStats {
  std::uint64_t rounds = 0;
  std::uint64_t records_moved = 0;
  std::uint64_t pipeline_errors = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t route_failures = 0;  // route errors within rounds
  std::uint64_t retries = 0;         // rounds re-run by the retry policy
  /// Records entering pipeline passes, summed over rounds — the cost the
  /// consolidation ablation measures (fused plans process fewer).
  std::uint64_t records_processed = 0;
};

class SyncIntegrator : public Integrator {
 public:
  struct Options {
    /// Interval between sync rounds (0 = manual run_round_sync only).
    sim::SimTime interval = 0;
    /// Push-driven rounds through the unified subscription layer
    /// (de/subscription.h): subscribe to each route's source pool, and run
    /// a round when a record is delivered. The subscription's content
    /// filter is the route pipeline's leading `where` clause (predicate
    /// push-down), so an append the pipeline would discard anyway never
    /// schedules a round. Composes with `interval` (both can trigger).
    bool push = false;
    /// Fuse adjacent record-local operators into a single pass.
    bool consolidate = true;
    /// Round retry: when any route fails (e.g. its DE is crashed), re-run
    /// the round after backoff. A failed route never advances its cursor,
    /// so replays re-pull exactly the unsynced suffix — no duplicates.
    /// Disabled by default.
    sim::RetryPolicy retry;
    /// Optional counters sink ("sync.<name>.route_failures" / ".retries").
    Metrics* metrics = nullptr;
  };

  SyncIntegrator(std::string name, de::LogDe& de, Options options,
                 Tracer* tracer = nullptr);
  /// Default options.
  SyncIntegrator(std::string name, de::LogDe& de);

  [[nodiscard]] const std::string& name() const override { return name_; }

  common::Status add_route(SyncRoute route);
  common::Status remove_route(const std::string& route_name);
  /// Replaces a route's pipeline at run-time.
  common::Status set_pipeline(const std::string& route_name,
                              de::LogQuery pipeline);

  common::Status start() override;
  void stop() override;
  [[nodiscard]] bool running() const override { return running_; }

  /// Reconfigure with a Value of shape {"route": <name>, "pipeline": ...}
  /// is not supported generically; Sync exposes typed reconfiguration via
  /// set_pipeline/add_route. This override only toggles {"consolidate"}.
  common::Status reconfigure(const common::Value& config) override;

  /// Runs one sync round over all routes synchronously. Returns records
  /// moved.
  common::Result<std::size_t> run_round_sync();

  [[nodiscard]] const SyncStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<SyncRoute>& routes() const { return routes_; }

 private:
  common::Result<std::size_t> run_route(SyncRoute& route);
  /// Records lineage for the records a route just appended: `raw` is the
  /// consumed source window, `appended` the target seqs of this append.
  /// Record-local pipelines attribute each output to exactly the one
  /// source record that produced it (verified by replaying `plan` over
  /// each record alone); plans with a barrier stage (sort/head/tail/
  /// aggregate) attribute each output to the whole consumed window — the
  /// minimal correct input set, since a barrier output depends on every
  /// record in the batch.
  void record_route_lineage(const SyncRoute& route, const de::QueryPlan& plan,
                            const std::vector<de::LogRecord>& raw,
                            std::uint64_t last_seq, std::size_t appended,
                            std::uint64_t span_id);
  void schedule_tick();
  void maybe_schedule_retry();
  /// Installs/removes the push-mode source subscriptions (one per route).
  void install_subscriptions();
  void remove_subscriptions();
  /// Schedules one push round after the current clock step.
  void schedule_push_round();

 public:
  /// Number of record passes a pipeline costs: the stages of its plan.
  /// Unconsolidated, one pass per operator; consolidated, adjacent
  /// record-local operators (filter, rename, project, drop, map) fuse into
  /// a single pass, while barrier operators (sort, aggregate, head, tail)
  /// each cost their own. Exposed for the ablation bench; results are
  /// identical either way.
  static std::size_t count_passes(const de::LogQuery& pipeline,
                                  bool consolidated);

 private:

  std::string name_;
  de::LogDe& de_;
  Options options_;
  Tracer* tracer_;
  std::vector<SyncRoute> routes_;
  /// Push-mode subscription ids, paired with the pool they live on.
  std::vector<std::pair<de::LogPool*, std::uint64_t>> subscriptions_;
  bool running_ = false;
  /// Push: a round is scheduled or running. It stays set while the round
  /// runs, because the round drives the clock and appends can land
  /// mid-round; those set `followup_` instead of nesting a second round
  /// from the same cursor.
  bool round_pending_ = false;
  bool followup_ = false;  // push: an append landed mid-round
  int round_attempt_ = 0;  // consecutive failed rounds (retry bookkeeping)
  sim::SimTime round_first_attempt_ = 0;
  sim::Rng retry_rng_{0x53594e43};
  SyncStats stats_;
};

}  // namespace knactor::core
