// Cast: the built-in integrator for Object data exchanges (§3.2). Executes
// a data exchange graph (DXG) by watching the referenced stores, snapshot-
// reading source state, evaluating mapping expressions, and patching target
// objects' fields. Converges in passes: a mapping whose dependencies are
// not yet present evaluates to null and is skipped until a later pass.
//
// Modes:
//   * watch-driven (default): a pass runs after any referenced store
//     changes (client reads/writes pay DE round-trip latency);
//   * polling: a pass every `poll_interval`;
//   * push-down (§3.3): the DXG pass is compiled into a UDF registered on
//     the DE with write triggers on the source stores — reads/writes then
//     run at engine latency inside the DE (Table 2 "K-redis-udf").
//
// Run-time reconfiguration (§3.3): `reconfigure` atomically swaps the DXG.
//
// Writes are per patch: a client-side pass issues one `patch` per target
// object it changes, each committed by the DE as a single-op epoch, and
// each succeeds or fails on its own. A failed write fails the pass (and
// feeds the retry policy); passes are idempotent, so the next one re-derives
// any patch that did not land.
//
// Passes are incremental. The integrator keeps a persistent view of every
// aliased store, diffs each pass's list result against it by payload
// handle, re-copies only the objects that changed, and re-evaluates only
// the mapping instances whose reads changed; every other instance replays
// its memoized outcome (in sync, not ready, or error). A full rebuild runs
// only to resync: on the first pass, after a failed list, and on
// reconfiguration or a push-down toggle (docs/ARCHITECTURE.md, "Cast").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/causality.h"
#include "core/dxg.h"
#include "core/integrator.h"
#include "core/trace.h"
#include "de/object.h"
#include "expr/eval.h"
#include "sim/latency.h"
#include "sim/retry.h"

namespace knactor::core {

struct CastStats {
  std::uint64_t passes = 0;
  std::uint64_t fields_written = 0;
  std::uint64_t fields_skipped_not_ready = 0;
  std::uint64_t eval_errors = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t failed_passes = 0;  // snapshot read or write failed
  std::uint64_t retries = 0;        // passes re-run by the retry policy
  std::uint64_t batches_consumed = 0;  // WatchBatch deliveries (batched mode)
  std::uint64_t batched_events = 0;    // events carried by those batches
  /// Mapping instances evaluated / replayed from their memoized outcome
  /// because none of their reads changed since the previous pass.
  std::uint64_t instances_evaluated = 0;
  std::uint64_t instances_skipped = 0;
};

class CastIntegrator : public Integrator {
 public:
  struct Options {
    /// Integrator-side compute cost per pass (the Table 2 "I" column for
    /// non-push-down modes).
    sim::LatencyModel compute = sim::LatencyModel::constant_ms(0.01);
    /// Re-run passes until no field changes, up to this many rounds per
    /// triggering event (dependency chains resolve across rounds).
    int max_rounds_per_event = 8;
    /// Validate DXG against schemas at (re)configuration; reject cycles
    /// and non-external target fields.
    bool strict = false;
    /// Polling instead of watches; 0 = watch-driven.
    sim::SimTime poll_interval = 0;
    /// Server-side watch coalescing: when > 0, watches register via
    /// ObjectStore::subscribe_batch with this window — the DE buffers a
    /// burst of commits and delivers one WatchBatch, and the integrator runs
    /// one pass per batch. The coalescing happens inside the DE, so one
    /// notification crosses the wire per window regardless of burst size.
    /// A DXG `Watch:` clause's `qos.window` overrides it per alias.
    sim::SimTime batch_window = 0;
    /// Exchange-pass retry: when a pass's snapshot read or patch write
    /// fails (e.g. the DE is crashed), re-run the whole pass after backoff.
    /// Passes are idempotent (desired-state patches), so replays are safe.
    /// Disabled by default.
    sim::RetryPolicy retry;
    /// Optional counters sink: failed passes and retries are recorded as
    /// "cast.<name>.failed_passes" / "cast.<name>.retries".
    Metrics* metrics = nullptr;
  };

  /// `stores` binds DXG input aliases to object stores. All stores must
  /// live on `de` (the paper hosts composed stores on a shared exchange).
  CastIntegrator(std::string name, de::ObjectDe& de, Dxg dxg,
                 std::map<std::string, de::ObjectStore*> stores,
                 Options options, const de::SchemaRegistry* schemas = nullptr,
                 Tracer* tracer = nullptr);
  /// Default options.
  CastIntegrator(std::string name, de::ObjectDe& de, Dxg dxg,
                 std::map<std::string, de::ObjectStore*> stores);

  [[nodiscard]] const std::string& name() const override { return name_; }

  common::Status start() override;
  void stop() override;
  [[nodiscard]] bool running() const override { return running_; }

  /// Accepts either a full DXG spec Value ({Input, DXG}) or a YAML string
  /// via reconfigure_yaml. Alias->store bindings are re-resolved from the
  /// current binding map; new aliases must be bound with bind_store first.
  common::Status reconfigure(const common::Value& config) override;
  common::Status reconfigure_yaml(std::string_view yaml_text);

  /// Adds/replaces an alias binding (needed before reconfiguring to a DXG
  /// that references a new store).
  void bind_store(const std::string& alias, de::ObjectStore& store);

  /// Compiles the current DXG into a server-side UDF with triggers on all
  /// read stores (push-down). Requires the DE profile to support UDFs.
  common::Status enable_pushdown();
  void disable_pushdown();
  [[nodiscard]] bool pushdown_enabled() const { return pushdown_; }

  /// Runs one full exchange pass immediately (synchronous; drives the
  /// clock). Returns the number of fields written.
  common::Result<std::size_t> run_pass_sync();

  [[nodiscard]] const CastStats& stats() const { return stats_; }
  [[nodiscard]] const Dxg& dxg() const { return dxg_; }

 private:
  /// Lists every aliased store (client round trips), then evaluates and
  /// writes. Invoked from watch events / polling.
  void run_pass_async(int rounds_left);
  /// Evaluation result: per-target patches.
  struct PatchSet {
    // (alias, object key) -> fields to patch, in first-appearance order
    std::vector<std::pair<std::pair<std::string, std::string>, common::Value>>
        patches;
    /// Parallel to `patches` when lineage is enabled (empty otherwise):
    /// the deduplicated set of pre-pass records each patch was computed
    /// from, resolved from the contributing mappings' refs.
    std::vector<std::vector<LineageRef>> inputs;
    std::size_t not_ready = 0;
    std::size_t errors = 0;
  };
  /// One pass's list results (the C-I stage), by alias.
  struct Listing {
    std::map<std::string, std::vector<de::StateObject>> objects;
    bool failed = false;  // at least one alias list errored
  };
  enum class Outcome : std::uint8_t { kNone, kInSync, kNotReady, kError };
  /// One instance's memoized outcome, plus the key each of the mapping's
  /// dynamic reads resolved to when it was evaluated (non-string: unknown).
  struct Memo {
    Outcome outcome = Outcome::kNone;
    std::vector<common::Value> dynamic_keys;  // parallel to plan.dynamic
  };
  /// The persistent view of one aliased store. `objects` holds, in list
  /// (key) order, the payload handle each copy in `value` was made from;
  /// `value` is what expressions read: objects by key, with the default
  /// object's fields merged at top level. A pass writes its patches into
  /// `value` in place, so `objects` keeps the pre-pass handles (lineage
  /// inputs) until the next diff.
  struct AliasView {
    struct Entry {
      common::SharedValue data;
      std::uint64_t version = 0;
      /// Memos of the fan-out instances this key drives, by mapping index.
      std::vector<Memo> memos;
    };
    std::map<std::string, Entry> objects;
    common::Value value = common::Value::object();
    /// Keys added, removed or changed (handle identity) by the last diff,
    /// plus every key written since: by the previous pass (its commit may
    /// have failed, so the diff re-copies it) or earlier in this one.
    std::unordered_set<std::string> dirty_keys;
    bool default_dirty = false;  // dirty_keys holds the default object
    /// Keys this pass has written into `value`.
    std::set<std::string> written;
    /// Some mapping reads the alias whole (keys(A), ...), so `value` must
    /// keep list order; otherwise an added key may simply be appended.
    bool ordered = false;

    [[nodiscard]] bool dirty() const { return !dirty_keys.empty(); }
    /// Whether a read of `value[key]` may differ from the last pass: the
    /// key itself or the default object it falls back to changed.
    [[nodiscard]] bool key_dirty(const std::string& key) const {
      return dirty() && (default_dirty || dirty_keys.count(key) != 0);
    }
    void mark_dirty(const std::string& key);
  };
  /// One mapping's alias reads, classified once per DXG.
  struct MappingPlan {
    const AliasView* target = nullptr;
    std::vector<std::pair<const AliasView*, std::string>> keys;  // A.x
    std::vector<const AliasView*> it_keyed;                      // A[it]
    /// `get(A, <expr>)` / `A[<expr>]` outside a comprehension: the key is
    /// recorded per instance when it is evaluated. The key expression's
    /// own reads are classified too, so the recorded key holds until the
    /// instance is dirty for another reason.
    std::vector<std::pair<const AliasView*, const expr::Node*>> dynamic;
    std::vector<const AliasView*> whole;  // keys(A), a bare A, ...
    Memo memo;  // the single instance of a non-fan-out mapping
  };
  /// Per-patch-group lineage dedup: (store, key) already recorded.
  using InputSet = std::set<std::pair<std::string, std::string>>;

  /// Brings the views up to date with a pass's list results: a diff when
  /// possible, a full rebuild (dropping every memo) when a resync is due.
  void refresh_views(Listing& listing);
  /// Applies one alias's list result to its view: re-copies added and
  /// changed objects, drops removed ones, and records their keys.
  static void diff_alias(AliasView& view,
                         std::vector<de::StateObject>& objects);
  /// Rebuilds `view.value` in list order by moving each object's copy,
  /// then merges the default object's fields at top level.
  static void relayout(AliasView& view);
  /// Classifies every mapping's reads against the current views.
  void plan_mappings();
  /// Whether any read of this instance may have changed since its memo.
  bool instance_dirty(const MappingPlan& plan, const std::string& target_object,
                      const Memo& memo) const;
  /// Evaluates the DXG over the views: dirty instances are evaluated,
  /// clean ones replay their memo. Shared by the client-side pass and the
  /// compiled UDF.
  PatchSet evaluate();
  /// Resolves a mapping instance's refs into the (store, key, version,
  /// payload) records it read before the pass. Conservative: a ref whose
  /// key can't be pinned statically contributes every key of its alias
  /// (lineage completeness beats minimality — the differential test
  /// replays exactly this set).
  void resolve_inputs(const DxgMapping& mapping, const std::string* it_key,
                      std::vector<LineageRef>& out, InputSet& seen) const;
  /// Appends the (store, key) record `value[key]` resolved to before the
  /// pass, if any, to `out`, once per `seen`.
  void add_input(const std::string& alias, const std::string& key,
                 std::vector<LineageRef>& out, InputSet& seen) const;
  /// Records one derived-write lineage entry on the DE's provenance ring.
  void record_lineage(const std::string& alias, const std::string& object,
                      std::uint64_t version, std::vector<LineageRef> inputs,
                      const TraceContext& ctx, std::uint64_t span_id);

  void install_watches();
  void remove_watches();
  void schedule_poll();

  std::string name_;
  de::ObjectDe& de_;
  Dxg dxg_;
  std::map<std::string, de::ObjectStore*> stores_;
  Options options_;
  const de::SchemaRegistry* schemas_;
  Tracer* tracer_;
  bool running_ = false;
  bool pushdown_ = false;
  bool pass_in_flight_ = false;
  bool rerun_requested_ = false;
  int pass_attempt_ = 0;  // consecutive failed passes (retry bookkeeping)
  sim::SimTime pass_first_attempt_ = 0;
  std::string udf_name_;
  /// Causal context of the watch event/batch that triggered the pending
  /// pass (Dapper-style propagation): pass spans parent under it and
  /// derived writes inherit its trace id. Zero for the initial pass.
  TraceContext trigger_ctx_;
  std::vector<std::pair<de::ObjectStore*, std::uint64_t>> watches_;
  sim::Rng rng_{0xCA57};
  CastStats stats_;
  std::map<std::string, AliasView> views_;
  std::vector<MappingPlan> plans_;  // parallel to dxg_.mappings()
  bool resync_ = true;              // next refresh rebuilds every view
  std::uint64_t rates_generation_ = 0;
};

}  // namespace knactor::core
