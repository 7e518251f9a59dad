// Object Data Exchange: hosts named data stores of versioned state objects
// (attribute-value documents) and exposes CRUD + list + watch, optional
// server-side functions (UDFs) with write triggers, RBAC enforcement, and
// durability simulation for the apiserver profile (in-memory state that
// survives restart, or a journaled persistence engine).
//
// One ObjectDe instance models one deployed exchange (the paper's
// K-apiserver or K-redis). Stores are namespaces within it; a UDF executes
// inside the DE and touches stores at engine latency — that collapse of
// client round-trips into engine-local operations *is* the paper's
// integrator push-down optimization (§3.3, Table 2 K-redis-udf row).
//
// ObjectDe is a typed facade over de::Kernel (commit sequencing, RBAC
// enforcement + audit, availability, GC hooks). Each store is one ordered
// map: a list is a prefix range scan, and every write commits through the
// epoch pipeline in op order (see docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "common/value.h"
#include "core/trace.h"
#include "de/kernel.h"
#include "de/profile.h"
#include "de/rbac.h"
#include "de/subscription.h"
#include "sim/clock.h"
#include "sim/random.h"

namespace knactor::de::persist {
class Engine;
}  // namespace knactor::de::persist

namespace knactor::de {

/// A versioned state object. `version` is the store's resource version at
/// last write (optimistic-concurrency token, like Kubernetes
/// resourceVersion).
struct StateObject {
  std::string key;
  common::SharedValue data;  // immutable snapshot, shareable zero-copy
  std::uint64_t version = 0;
  sim::SimTime created_at = 0;
  sim::SimTime updated_at = 0;

  /// Deep copy of the payload (the non-zero-copy path).
  [[nodiscard]] common::Value data_copy() const {
    return data ? *data : common::Value(nullptr);
  }
};

enum class WatchEventType { kAdded, kModified, kDeleted };

struct WatchEvent {
  WatchEventType type = WatchEventType::kAdded;
  std::string store;
  StateObject object;
  /// Causal context of the commit that fired this event: trace id (the
  /// commit's own seq if the write was a trace root), the span that
  /// caused the write, and the DE-wide commit seq. Integrators propagate
  /// it into the spans and derived writes of the passes they trigger.
  core::TraceContext ctx;
};

/// A coalesced window of watch events (see ObjectStore::subscribe_batch).
/// Events are in commit order; successive updates to the same key within
/// the window are coalesced into the key's latest event. Payloads are
/// shared snapshots (StateObject::data), so a batch moves zero-copy.
struct WatchBatch {
  std::string store;
  std::vector<WatchEvent> events;
  /// Commits folded into this batch (>= events.size(); the difference is
  /// how many per-key updates the window coalesced away).
  std::uint64_t commits = 0;
};

struct ObjectDeStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t deletes = 0;
  std::uint64_t lists = 0;
  std::uint64_t watch_events = 0;
  std::uint64_t udf_calls = 0;
  std::uint64_t engine_ops = 0;       // ops executed inside UDFs
  std::uint64_t permission_denials = 0;
  std::uint64_t version_conflicts = 0;
  std::uint64_t unavailable_rejections = 0;  // ops failed while crashed
  std::uint64_t watch_batches = 0;           // coalesced deliveries
  std::uint64_t watch_events_coalesced = 0;  // commits folded into a slot
  /// Commits a subscription's content filter rejected pre-enqueue (the
  /// record never cost a queue slot or a delivery).
  std::uint64_t watch_events_filtered = 0;
  /// Buffered events discarded deterministically: QoS history-depth
  /// evictions at flush plus pending slots dropped by unsubscribe.
  std::uint64_t watch_events_dropped = 0;
  /// Events per delivered WatchBatch (batching effectiveness on the hot
  /// path; export via SizeHistogram::export_counters).
  common::SizeHistogram watch_batch_sizes;
};

class ObjectDe;

/// One operation inside an epoch commit (ObjectStore::put_epoch): an
/// upsert (merge=false), a patch (merge=true), or a delete (remove=true;
/// `data` ignored). `expected_version` adds the optimistic-concurrency
/// check of put_versioned.
struct EpochWrite {
  std::string key;
  common::Value data;
  bool merge = false;
  bool remove = false;
  std::optional<std::uint64_t> expected_version;
};

/// A named data store (namespace) on an Object DE. All operations are
/// asynchronous — completion callbacks fire after the profile's latency on
/// the DE's clock — with `_sync` convenience wrappers that drive the clock.
class ObjectStore {
 public:
  using GetCallback = std::function<void(common::Result<StateObject>)>;
  using PutCallback = std::function<void(common::Result<std::uint64_t>)>;
  using DelCallback = std::function<void(common::Status)>;
  using ListCallback =
      std::function<void(common::Result<std::vector<StateObject>>)>;
  using WatchCallback = std::function<void(const WatchEvent&)>;
  using WatchBatchCallback = std::function<void(const WatchBatch&)>;
  /// One Result per EpochWrite, in submission order. A delete completes
  /// with value 0; everything else with the committed version.
  using EpochCallback =
      std::function<void(std::vector<common::Result<std::uint64_t>>)>;

  [[nodiscard]] const std::string& name() const { return name_; }

  void get(const std::string& principal, const std::string& key,
           GetCallback done);
  /// Zero-copy read: the callback receives a shared handle to the stored
  /// value instead of a deep copy (§3.3 zero-copy data exchange).
  void get_shared(const std::string& principal, const std::string& key,
                  std::function<void(common::Result<common::SharedValue>)> done);
  /// Upsert. Returns the new version.
  void put(const std::string& principal, const std::string& key,
           common::Value data, PutCallback done);
  /// Compare-and-swap on version; fails with FailedPrecondition on skew.
  void put_versioned(const std::string& principal, const std::string& key,
                     common::Value data, std::uint64_t expected_version,
                     PutCallback done);
  /// Merges top-level fields into the existing object (creates it if
  /// absent). Integrators use this to fill `external` fields without
  /// clobbering service-owned state.
  void patch(const std::string& principal, const std::string& key,
             common::Value fields, PutCallback done);
  void remove(const std::string& principal, const std::string& key,
              DelCallback done);
  void list(const std::string& principal, const std::string& prefix,
            ListCallback done);

  /// Epoch commit: applies a whole batch of independent writes in one
  /// client round trip through the epoch commit pipeline (the same
  /// pipeline put/patch/remove run as single-op epochs). Stamps (version +
  /// commit seq) are pre-assigned so every op's identity is a pure function
  /// of its position in the epoch, ops commit in submission order, and the
  /// journal append, audit entries, lineage, and watch/trigger
  /// notifications follow that order. On failure-free epochs the
  /// result is identical to issuing the same ops through put/patch/remove
  /// one by one. An epoch consumes
  /// stamps only through its last committed op, so a failed op leaves a
  /// hole only when a later op of the same epoch commits. See
  /// docs/ARCHITECTURE.md "Epoch commit pipeline".
  void put_epoch(const std::string& principal, std::vector<EpochWrite> writes,
                 EpochCallback done);
  std::vector<common::Result<std::uint64_t>> put_epoch_sync(
      const std::string& principal, std::vector<EpochWrite> writes);

  /// Registers a subscription: prefix + optional content filter +
  /// projection (compiled once through the fused query planner) + QoS,
  /// delivering one event per matching commit after the profile's
  /// watch-notify latency. Every subscription is registered with the
  /// kernel's subscription registry (id, contract, match/filter/delivery
  /// accounting). Fails on permission denial or an unparsable filter. The
  /// filter runs *before* enqueue — in the epoch pipeline's publish loop,
  /// once the epoch has committed — so a rejected commit never costs a
  /// queue slot; the projection rewrites the delivered payload (RBAC field
  /// filtering still applies afterwards).
  common::Result<std::uint64_t> subscribe(const std::string& principal,
                                          SubscriptionSpec spec,
                                          WatchCallback callback);
  /// Batched subscription: events coalesce for qos.window (virtual time)
  /// after the first matching commit and arrive as one WatchBatch. Within
  /// a window, successive updates to the same key coalesce into that key's
  /// slot (modify-after-add stays added; delete always survives), and the
  /// flush emits slots ordered by each key's *latest* commit — a delete
  /// that followed a modify is never reordered before it or dropped.
  /// window == 0 degenerates to one single-event batch per commit. QoS
  /// history_depth caps each delivered batch to the newest N slots
  /// (deterministic drops, counted in watch_events_dropped).
  common::Result<std::uint64_t> subscribe_batch(const std::string& principal,
                                                SubscriptionSpec spec,
                                                WatchBatchCallback callback);
  /// Removes a subscription. A pending coalescing buffer is resolved
  /// deterministically: drain=true delivers it to the callback immediately
  /// (one final batch, same order a flush would have produced), drain=false
  /// drops it and counts the slots in watch_events_dropped. Either way no
  /// dangling coalesce slot survives the unsubscribe.
  void unsubscribe(std::uint64_t watch_id, bool drain);

  // Synchronous wrappers (drive the clock until the callback fires).
  common::Result<StateObject> get_sync(const std::string& principal,
                                       const std::string& key);
  common::Result<std::uint64_t> put_sync(const std::string& principal,
                                         const std::string& key,
                                         common::Value data);
  common::Result<std::uint64_t> patch_sync(const std::string& principal,
                                           const std::string& key,
                                           common::Value fields);
  common::Status remove_sync(const std::string& principal,
                             const std::string& key);
  common::Result<std::vector<StateObject>> list_sync(
      const std::string& principal, const std::string& prefix);

  /// Optimistic read-modify-write: reads the object (a missing object
  /// presents as null), applies `mutate`, and writes back guarded by the
  /// read version; retries on conflict up to `max_attempts`. This is the
  /// safe pattern for concurrent writers sharing a store.
  common::Result<std::uint64_t> update_sync(
      const std::string& principal, const std::string& key,
      const std::function<common::Value(const common::Value&)>& mutate,
      int max_attempts = 8);

  [[nodiscard]] std::size_t size() const { return objects_.size(); }

  /// Latency-free, ACL-free inspection for tooling, tests, and benches —
  /// not part of the data path.
  [[nodiscard]] const StateObject* peek(const std::string& key) const {
    auto it = objects_.find(key);
    return it == objects_.end() ? nullptr : &it->second;
  }
  /// The exchange this store lives on (e.g. to reach its kernel's trace
  /// context and provenance ring).
  [[nodiscard]] ObjectDe& exchange() { return de_; }
  /// All keys, sorted.
  [[nodiscard]] std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(objects_.size());
    for (const auto& [key, obj] : objects_) out.push_back(key);
    return out;
  }

 private:
  friend class ObjectDe;
  friend class UdfContext;

  ObjectStore(ObjectDe& de, std::string name)
      : de_(de), name_(std::move(name)) {}

  /// The client write path behind put/put_versioned/patch/remove: charges
  /// one write round trip, then commits `write` as a single-op epoch.
  void submit(const std::string& principal, EpochWrite write,
              PutCallback done);
  /// The read half of list (client and UDF): one ordered range scan over
  /// the keys starting with `prefix`, each copy RBAC-filtered by `fields`.
  [[nodiscard]] std::vector<StateObject> scan(const std::string& prefix,
                                              const FieldRule& fields) const;

  /// One subscription on this store (owned by ObjectDe::watches_).
  struct Watch {
    std::uint64_t id = 0;
    std::string store;
    std::string prefix;
    std::string principal;
    WatchCallback callback;  // per-event mode
    // Batched mode (subscribe_batch): callback is empty, batch_callback set.
    WatchBatchCallback batch_callback;
    sim::SimTime window = 0;
    bool batched = false;
    /// The subscription contract (always set; pass-through when the spec
    /// had no filter/projection). Immutable: the publish loop runs
    /// sub->apply() on each commit the watch's prefix and RBAC let through.
    std::shared_ptr<const CompiledSubscription> sub;
    /// The kernel registry entry (a stable std::map node, unregistered
    /// together with this watch's removal).
    Kernel::SubscriptionInfo* info = nullptr;
    /// Index of this watcher's entry in ObjectDe::deferred_, if the
    /// candidate walk can skip it; set with the store's index
    /// (ObjectDe::enroll_watcher).
    std::optional<std::uint32_t> deferred;
  };
  /// Committed ops whose key starts with `prefix` (one per distinct
  /// prefix of the store's skippable watchers, ObjectDe::Deferred).
  struct PrefixClass {
    std::string prefix;
    std::uint64_t commits = 0;
  };

  ObjectDe& de_;
  std::string name_;
  std::map<std::string, StateObject> objects_;
  /// This store's watchers in registration order; a watcher's position
  /// here is its position in watch_index_.
  std::vector<Watch*> watchers_;
  std::deque<PrefixClass> classes_;  // stable: watchers point into it
  /// Equality index over this store's watchers (the scan set and the
  /// indexed ones). Grown by subscribe; rebuilt by the publish loop after
  /// an unsubscribe.
  SubscriptionIndex watch_index_;
};

/// Engine-level view handed to UDFs: operations run inside the DE at
/// engine latency (no client round trips) and bypass the network but NOT
/// access control — the UDF runs as the principal that registered it.
class UdfContext {
 public:
  common::Result<StateObject> get(const std::string& store,
                                  const std::string& key);
  common::Result<std::uint64_t> put(const std::string& store,
                                    const std::string& key,
                                    common::Value data);
  common::Result<std::uint64_t> patch(const std::string& store,
                                      const std::string& key,
                                      common::Value fields);
  common::Result<std::vector<StateObject>> list(const std::string& store,
                                                const std::string& prefix);
  [[nodiscard]] sim::SimTime now() const;
  /// Charges additional engine compute time (e.g. the UDF body's own
  /// processing cost).
  void charge(sim::SimTime duration);

 private:
  friend class ObjectDe;
  UdfContext(ObjectDe& de, std::string principal)
      : de_(de), principal_(std::move(principal)) {}
  /// Engine-latency single-op epoch on behalf of the UDF's owner.
  common::Result<std::uint64_t> write(const std::string& store,
                                      EpochWrite op);
  ObjectDe& de_;
  std::string principal_;
};

/// One deployed Object data exchange.
class ObjectDe {
 public:
  using Udf =
      std::function<common::Result<common::Value>(UdfContext&, const common::Value&)>;
  using UdfCallback = std::function<void(common::Result<common::Value>)>;
  using AuditEntry = de::AuditEntry;

  ObjectDe(sim::VirtualClock& clock, ObjectDeProfile profile,
           std::uint64_t seed = 7);

  ObjectDe(const ObjectDe&) = delete;
  ObjectDe& operator=(const ObjectDe&) = delete;

  /// Creates (or returns the existing) named store.
  ObjectStore& create_store(const std::string& name);
  [[nodiscard]] ObjectStore* store(const std::string& name);

  /// The shared DE substrate this facade runs on.
  [[nodiscard]] Kernel& kernel() { return kernel_; }

  /// Registers a server-side function owned by `principal`. Rejected when
  /// the profile does not support UDFs (e.g. apiserver).
  common::Status register_udf(const std::string& principal,
                              const std::string& name, Udf udf);
  /// Invokes a UDF from a client (one udf_invoke round trip; internal ops
  /// at engine latency).
  void call_udf(const std::string& principal, const std::string& name,
                common::Value args, UdfCallback done);
  common::Result<common::Value> call_udf_sync(const std::string& principal,
                                              const std::string& name,
                                              common::Value args);

  /// Installs a write trigger: after a commit to store/prefix, the UDF is
  /// invoked server-side with {store, key, event} args (Redis keyspace-
  /// notification + function analog; Cast push-down compiles to this).
  common::Status add_trigger(const std::string& store,
                             const std::string& key_prefix,
                             const std::string& udf_name);
  void remove_trigger(const std::string& store, const std::string& udf_name);

  /// One write in a transaction.
  struct TxnOp {
    std::string store;
    std::string key;
    common::Value data;
    bool merge = true;  // patch semantics; false = replace
    /// Optional optimistic-concurrency check.
    std::optional<std::uint64_t> expected_version;
  };

  /// Atomically applies writes across stores of this DE (§5 "run-time
  /// primitives such as transactions"): one client round trip and one
  /// atomic epoch, all-or-nothing with respect to access control, field
  /// rules, and version checks. Watch events and triggers fire only after
  /// the whole transaction commits (so observers never see partial
  /// exchanges). The callback receives the version of the last write, or
  /// the first failed op's error.
  void transact(const std::string& principal, std::vector<TxnOp> ops,
                UdfCallback done);
  common::Result<common::Value> transact_sync(const std::string& principal,
                                              std::vector<TxnOp> ops);

  /// Durability simulation: a durable DE (apiserver profile) keeps its
  /// exact state across restart() — objects, versions, timestamps, and
  /// kernel sequences, since every acked commit is already in process
  /// memory; a non-durable one (redis) loses all state. Watches and UDFs
  /// survive (they are client/config state). With a persistence engine
  /// attached (enable_persistence), restart recovers from the newest valid
  /// snapshot plus the journal suffix.
  void restart();

  /// Attaches a file-backed persistence engine (owned by the caller, must
  /// outlive the DE): every commit batch is journaled before its
  /// notifications fire, restart() recovers from disk, and the engine's
  /// generation GC joins the kernel's GC hooks (so RetentionManager-driven
  /// `run_gc()` reclaims old snapshot/journal generations too). Any state
  /// already on disk is recovered immediately — attach before serving
  /// traffic. See docs/PERSISTENCE.md.
  common::Status enable_persistence(persist::Engine* engine);
  /// Snapshots the full store state at the current commit-seq boundary and
  /// rotates the journal, synchronously: begin_snapshot() plus every
  /// slice. Automatic snapshots honor the engine's `snapshot_every`
  /// cadence; this forces one now. A failed snapshot crashes the DE
  /// (already-acked commits stay acked — they are in the journal) but
  /// never corrupts the previous generation.
  common::Status snapshot_now();
  /// The cut of a snapshot: captures the store state as shared payload
  /// handles and rotates the journal at once. The encode and file write
  /// then run in bounded slices, one after each committed epoch, and all
  /// that remain once no write is in flight; a crash or restart abandons
  /// them. A snapshot still pending is finished first.
  common::Status begin_snapshot();
  [[nodiscard]] persist::Engine* persistence() { return persist_; }

  /// Availability simulation for chaos testing. While unavailable, every
  /// client operation fails with Unavailable at its scheduled execution
  /// time (in-flight operations fail too, like a real process dying).
  /// `crash()` marks the DE down; `recover()` restarts it (see restart())
  /// and marks it up again.
  void set_available(bool available) { kernel_.set_available(available); }
  [[nodiscard]] bool available() const { return kernel_.available(); }
  void crash();
  void recover() { kernel_.recover(); }

  /// Chaos hook for the epoch pipeline: invoked after every epoch's
  /// commit loop, before the journal append and the publish loop.
  /// Returning true simulates the process dying mid-epoch — the whole
  /// epoch rolls back (state and stamps restored, no journal frame, no
  /// audit entry, span, counter or notification, every op fails
  /// Unavailable) and the DE is marked crashed, so recovery never sees a
  /// half-applied epoch.
  void set_epoch_fault_hook(std::function<bool()> hook) {
    epoch_fault_hook_ = std::move(hook);
  }

  /// Optional epoch-pipeline observability. When set, the publish loop of
  /// every committed epoch emits one "de.epoch.op" span per op (stage "S")
  /// and bumps "de.epoch.committed" / "de.epoch.failed" per op plus
  /// "de.epoch.epochs", all in op order (see docs/OBSERVABILITY.md). A
  /// rolled-back epoch never reaches the publish loop, so none of its
  /// spans or counters exist.
  void set_observability(core::Tracer* tracer, core::Metrics* metrics) {
    tracer_ = tracer;
    epoch_metrics_ = metrics;
  }

  /// RBAC policy engine for this DE (disabled by default).
  [[nodiscard]] Rbac& rbac() { return kernel_.rbac(); }

  /// Access auditing: when enabled, every access decision (allowed or
  /// denied) is recorded in a bounded ring — the security-observability
  /// counterpart of §3.3's access control. Off by default.
  void enable_audit(std::size_t capacity = 1024) {
    kernel_.enable_audit(capacity);
  }
  void disable_audit() { kernel_.disable_audit(); }
  [[nodiscard]] const std::deque<AuditEntry>& audit_log() const {
    return kernel_.audit_log();
  }

  [[nodiscard]] const ObjectDeProfile& profile() const { return profile_; }
  /// Settles deferred counts first (watch_events_filtered may hold
  /// some), so the reference is a snapshot: a caller that keeps it across
  /// commits must call stats() again to see the skipped watchers' counts.
  [[nodiscard]] const ObjectDeStats& stats() const {
    kernel_.settle();
    return stats_;
  }
  [[nodiscard]] sim::VirtualClock& clock() { return kernel_.clock(); }

 private:
  friend class ObjectStore;
  friend class UdfContext;

  using Watch = ObjectStore::Watch;

  /// Per-watch coalescing buffer for batched watches: one slot per key, in
  /// the order keys first entered the window. `seq` on each slot is the
  /// DE-wide commit sequence of the *latest* commit folded in, so at flush
  /// (the revision-window barrier) a stable sort by `seq` puts every slot
  /// at its latest commit's position.
  struct BufferedEvent {
    WatchEvent event;
    std::uint64_t seq = 0;
    FieldRule fields;  // RBAC filter to apply at flush
  };
  struct WatchBuffer {
    std::map<std::string, std::size_t> slots;  // key -> index in events
    std::vector<BufferedEvent> events;
    std::uint64_t commits = 0;
    bool flush_scheduled = false;
    /// Open `sub.deliver` span for the pending window (active
    /// subscriptions only): begun when the flush is scheduled, ended at
    /// flush — its duration is the coalescing window + notify latency the
    /// QoS deadline budgets for. 0 = none.
    std::uint64_t span_id = 0;
  };

  struct Trigger {
    std::string store;
    std::string prefix;
    std::string udf_name;
  };

  /// One op's state work, filled by the epoch pipeline's commit loop and
  /// read by the rollback or the publish loop.
  struct EpochOp {
    bool committed = false;
    StateObject obj;           // committed object (pre-delete copy on remove)
    WatchEventType type = WatchEventType::kAdded;
    core::TraceContext ctx;    // stamped with the pre-assigned commit seq
    /// The buffered write decision: published with the epoch (or with an
    /// atomic abort), dropped with a crashed one.
    std::vector<AuditEntry> audit;
    std::optional<core::LineageRecord> lineage;
    /// Serialized journal record, encoded by the commit loop straight from
    /// the committed object's shared payload handle (zero-copy read); the
    /// journal append concatenates them in op order into one atomic frame.
    std::string persist_rec;
    /// The next revision once ops 0..i of the epoch are through (put i
    /// commits with rev_end - 1).
    std::uint64_t rev_end = 0;
    bool undo_existed = false; // rollback state (crash, atomic abort)
    StateObject undo_obj;
    enum class Fail { kNone, kDenied, kInvalid, kConflict, kNotFound };
    Fail fail = Fail::kNone;
    common::Error error;
  };

  /// The epoch pipeline — a commit loop, the decision, then a publish loop
  /// for a committed epoch: every write of this DE commits through it.
  /// `stores[i]` is op i's target store. In an atomic epoch (transact) one
  /// failed op rolls every op back and all of them fail with its error;
  /// otherwise ops fail independently.
  std::vector<common::Result<std::uint64_t>> commit_epoch(
      const std::string& principal, const core::TraceContext& client_ctx,
      std::span<ObjectStore* const> stores, std::span<EpochWrite> writes,
      bool atomic);
  /// A single-op, non-atomic commit_epoch (consumes `write`).
  common::Result<std::uint64_t> commit_one(ObjectStore& store,
                                           const std::string& principal,
                                           const core::TraceContext& ctx,
                                           EpochWrite& write);

  /// Installs one subscription (the single watch-registration path behind
  /// subscribe/subscribe_batch): allocates the id, registers the contract
  /// with the kernel's subscription registry, and appends the Watch.
  /// Exactly one of the callbacks is set.
  std::uint64_t add_subscription(
      ObjectStore& store, const std::string& principal,
      std::shared_ptr<const CompiledSubscription> sub,
      ObjectStore::WatchCallback callback,
      ObjectStore::WatchBatchCallback batch_callback);
  /// Emits one `sub.filter` span for a commit a subscription's predicate
  /// rejected (epoch publish loop).
  void note_filtered(const Watch& w, const std::string& key);
  /// Opens the pending window's `sub.deliver` span when a batched
  /// subscription's flush gets scheduled (active subscriptions only).
  void begin_batch_span(const Watch& w, WatchBuffer& buf);
  /// Delivery-side subscription bookkeeping shared by the per-event and
  /// batched paths: registry delivered count, span close with id +
  /// selectivity, and a lineage record naming the subscription.
  void finish_subscription_delivery(const Watch& w, std::uint64_t span_id,
                                    std::uint64_t events,
                                    const WatchEvent* sample);

  /// The coalescing rule set for batched watches, run by the epoch
  /// pipeline's publish loop. Inserts or coalesces one event into a watch
  /// buffer; returns true when it coalesced into an existing slot.
  static bool coalesce_into(WatchBuffer& buf, WatchEvent&& event,
                            std::uint64_t seq, const FieldRule& fields);
  /// The live watch with this id, or null once unsubscribed.
  Watch* find_watch(std::uint64_t id) {
    auto it = watches_.find(id);
    return it == watches_.end() ? nullptr : &it->second;
  }
  /// Rebuilds every store's publish-loop state after an unsubscribe:
  /// prefix classes and the equality index. Settles first, so the counts
  /// deferred under the old state land before it goes.
  void refresh_watchers();
  /// Adds the watcher at `pos` (the store's last, or every one in order
  /// during a rebuild) to that state.
  void enroll_watcher(ObjectStore& store, std::uint32_t pos);
  /// Folds the commits the candidate walk skipped into their watchers'
  /// `matched`/`filtered` and into watch_events_filtered. A skippable
  /// watcher is active and indexed, the candidate walk runs only with RBAC
  /// off (so every watch is allowed), and every commit of its class it was
  /// not visited for missed its equality key, so the predicate rejected
  /// it. O(1) when the candidate walk did not run since the last fold;
  /// run by every registry or stats read, by unsubscribe and by
  /// refresh_watchers.
  void settle();
  /// Samples the notify latency and schedules one per-event delivery (with
  /// the cancellation liveness check).
  void schedule_event_delivery(const Watch& w, WatchEvent event);
  void flush_watch_batch(std::uint64_t watch_id);
  /// Trigger fan-out for one commit, stamped with its causal context.
  void fire_triggers(const std::string& store_name, WatchEventType type,
                     const StateObject& obj, const core::TraceContext& ctx);

  /// Engine-level reads used by UDFContext (charges engine latency
  /// synchronously on the clock).
  common::Result<StateObject> engine_get(const std::string& store,
                                         const std::string& key,
                                         const std::string& principal);

  /// RBAC check + audit-trail recording. All access paths route through
  /// the kernel's enforcement point.
  Decision check_access(const std::string& principal, const std::string& store,
                        const std::string& key, Verb verb) {
    return kernel_.check_access(principal, store, key, verb);
  }

  void run_sync(const std::function<bool()>& done) { kernel_.run_sync(done); }

  /// Wipes in-memory store state and reloads it from the persistence
  /// engine (newest valid snapshot + journal suffix), restoring the
  /// kernel's sequence domains to the recovered durable point.
  common::Status recover_from_disk();
  /// Runs after every committed epoch's publish loop: cuts a snapshot when
  /// the journal delta reached the engine's cadence, then writes one slice
  /// of a pending snapshot, or all of it when no write is in flight. A
  /// snapshot failure crashes the DE but never fails the commit that ran
  /// it.
  void maybe_auto_snapshot();

  Kernel kernel_;
  ObjectDeProfile profile_;
  std::map<std::string, std::unique_ptr<ObjectStore>> stores_;
  std::map<std::string, std::pair<std::string, Udf>> udfs_;  // name -> (owner, fn)
  /// Every live watch, by id (ids ascend in registration order).
  std::map<std::uint64_t, Watch> watches_;
  /// Set by unsubscribe, which shifts watch positions; the next committed
  /// epoch runs refresh_watchers() before its publish loop.
  bool watch_index_stale_ = false;
  /// The counts of a watcher the candidate walk can skip: committed ops
  /// on its prefix class, and how many of them its counters account for
  /// (visited by the publish loop, or folded in by settle()). Kept apart
  /// from the watches so a fold is one pass over contiguous entries.
  struct Deferred {
    const std::uint64_t* class_commits = nullptr;
    std::uint64_t seen = 0;
    Kernel::SubscriptionInfo* info = nullptr;
  };
  std::vector<Deferred> deferred_;
  /// Whether the candidate walk ran since the last fold.
  bool unsettled_ = false;
  std::map<std::uint64_t, WatchBuffer> watch_buffers_;  // batched watches
  std::vector<Trigger> triggers_;
  persist::Engine* persist_ = nullptr;  // not owned; see enable_persistence
  /// Writes scheduled but not yet executed; 0 means the DE is idle, and a
  /// pending snapshot is then finished at once.
  std::uint64_t writes_in_flight_ = 0;
  core::Tracer* tracer_ = nullptr;          // epoch-pipeline span sink
  core::Metrics* epoch_metrics_ = nullptr;  // epoch-pipeline counter sink
  std::function<bool()> epoch_fault_hook_;
  ObjectDeStats stats_;
};

}  // namespace knactor::de
