// The shared data-exchange kernel: the substrate that every DE flavor
// (Object, Log, and future backends — durable WAL vs in-memory) builds on.
// ObjectDe and LogDe used to each hand-roll commit sequencing, RBAC
// enforcement + audit, availability simulation, retention/GC hooks, and
// synchronous clock driving; the Kernel owns all of that once, so the DEs
// are thin typed facades over one engine substrate (§3.3: the exchange
// layer, not the operators, is where composition scales).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "core/causality.h"
#include "de/rbac.h"
#include "sim/clock.h"
#include "sim/random.h"

namespace knactor::de {

/// One access decision on the audit trail (allowed or denied). `store` is
/// the resource name — an object store or a log pool.
struct AuditEntry {
  sim::SimTime time = 0;
  std::string principal;
  Verb verb = Verb::kGet;
  std::string store;
  std::string key;
  bool allowed = true;
};

/// The shared substrate one deployed data exchange runs on. Each DE facade
/// owns one Kernel; the kernel owns everything that is not type-specific.
class Kernel {
 public:
  /// Facade-owned counters the kernel's enforcement points bump, so each
  /// DE's public stats struct keeps its existing shape. (Denial counting
  /// stays with the facades: not every failed check is a client-visible
  /// denial — e.g. a watch delivery skipped by RBAC is not counted.)
  struct Hooks {
    std::uint64_t* unavailable_rejections = nullptr;
  };

  Kernel(sim::VirtualClock& clock, std::uint64_t seed)
      : clock_(clock), rng_(seed) {}

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] sim::VirtualClock& clock() { return clock_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] Rbac& rbac() { return rbac_; }

  void set_hooks(Hooks hooks) { hooks_ = hooks; }

  // --- commit sequencing -------------------------------------------------
  // Two sequence domains: `next_revision` numbers committed state (object
  // versions, log record seqs); `next_commit_seq` stamps DE-wide commit
  // order for notification merging (the stable-merge key at barriers).

  std::uint64_t next_revision() { return next_revision_++; }
  std::uint64_t next_commit_seq() { return ++commit_seq_; }
  [[nodiscard]] std::uint64_t commit_seq() const { return commit_seq_; }
  /// The revision the next next_revision() call will hand out, without
  /// consuming it. The persistence tier journals this alongside commit_seq
  /// so recovery can restore both stamp domains exactly.
  [[nodiscard]] std::uint64_t peek_next_revision() const {
    return next_revision_;
  }
  /// Restores both sequence domains to a recovered durable point, so ops
  /// committed after recovery get the same stamps they would have gotten
  /// had the crash never happened.
  void restore_sequences(std::uint64_t next_revision,
                         std::uint64_t commit_seq) {
    next_revision_ = next_revision;
    commit_seq_ = commit_seq;
  }
  std::uint64_t allocate_watch_id() { return next_watch_id_++; }

  // --- subscription registry ----------------------------------------------
  // Every watch on a DE facade is a subscription (de/subscription.h); the
  // kernel owns the registry so tooling (knctl explain/trace, SLO gates)
  // sees one uniform surface across facades. Counters are bumped only from
  // the epoch pipeline's publish loop, which runs once the epoch has
  // committed, and from flush/delivery callbacks — so a rolled-back epoch
  // leaves no count behind. A facade whose publish loop skips watchers a
  // commit cannot reach defers their counts; it installs a settle hook
  // that folds them in, and every registry read runs it first.

  /// One registered subscription: the contract (filter text, projection,
  /// QoS) plus delivery accounting. `matched` counts commits that reached
  /// the predicate (prefix + RBAC already passed), `filtered` the ones it
  /// rejected pre-enqueue, `delivered` events actually handed to the
  /// subscriber, `dropped` QoS history evictions + unsubscribe drops.
  struct SubscriptionInfo {
    std::uint64_t id = 0;
    std::string store;
    std::string principal;
    std::string filter;        // predicate source text ("" = match-all)
    bool projected = false;
    bool batched = false;
    sim::SimTime deadline = 0; // QoS latency budget (0 = none)
    std::string stage;         // SLO stage label on delivery spans
    std::uint64_t matched = 0;
    std::uint64_t filtered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    /// Commits the compiled filter actually ran on (apply() calls): at
    /// most `matched`, since an Object DE store's equality index rejects
    /// commits that miss the filter's key without evaluating it.
    std::uint64_t evaluated = 0;
    /// Fraction of evaluated commits the predicate let through.
    [[nodiscard]] double selectivity() const {
      if (matched == 0) return 1.0;
      return static_cast<double>(matched - filtered) /
             static_cast<double>(matched);
    }
  };

  void set_settle_hook(std::function<void()> settle) {
    settle_ = std::move(settle);
  }
  /// Folds a facade's deferred counters into the registry (and into the
  /// facade's own stats). Reading does not change what the counters mean,
  /// so const readers run it too.
  void settle() const {
    if (settle_) settle_();
  }

  SubscriptionInfo& register_subscription(std::uint64_t id) {
    SubscriptionInfo& info = subscriptions_[id];
    info.id = id;
    return info;
  }
  void unregister_subscription(std::uint64_t id) { subscriptions_.erase(id); }
  /// Both readers settle first, so what they return is a snapshot: a
  /// caller that keeps the pointer or reference across commits must read
  /// again to see the counts deferred since.
  [[nodiscard]] SubscriptionInfo* find_subscription(std::uint64_t id) {
    settle();
    auto it = subscriptions_.find(id);
    return it == subscriptions_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::map<std::uint64_t, SubscriptionInfo>&
  subscriptions() const {
    settle();
    return subscriptions_;
  }

  // --- epoch sequencing (stamp reservation) ------------------------------
  // The epoch pipeline pre-assigns stamps: one reservation up front, and
  // each op's stamp is a pure function of its position in the epoch (base
  // + index). The commit loop stamps ops without touching the shared
  // counters, so when ops fail — or a crash, torn journal append or atomic
  // abort rolls the epoch back — the facade can hand back the stamps past
  // the last committed op (or all of them) with restore_sequences. Only
  // ops that fail between committed ops leave holes; both domains only
  // need to be strictly increasing.

  /// Reserves `n` revision numbers; returns the first. Epoch op `i` commits
  /// with revision `base + i` (matching what n serial next_revision() calls
  /// would have handed out).
  std::uint64_t reserve_revisions(std::uint64_t n) {
    const std::uint64_t base = next_revision_;
    next_revision_ += n;
    return base;
  }
  /// Reserves `n` commit seqs; returns the first assigned value (what the
  /// next next_commit_seq() call would have returned). Op `i` stamps with
  /// `base + i`.
  std::uint64_t reserve_commit_seqs(std::uint64_t n) {
    const std::uint64_t base = commit_seq_ + 1;
    commit_seq_ += n;
    return base;
  }

  // --- availability (chaos) ----------------------------------------------

  void set_available(bool available) { available_ = available; }
  [[nodiscard]] bool available() const { return available_; }
  void crash() { available_ = false; }
  /// Runs the facade's restart hook (recovery or wipe), then marks up.
  void recover() {
    if (restart_) restart_();
    available_ = true;
  }
  void set_restart_hook(std::function<void()> restart) {
    restart_ = std::move(restart);
  }
  /// Availability gate for client operations: counts the rejection when
  /// the DE is down. Callers fail the op with Unavailable on false.
  bool guard_available() {
    if (available_) return true;
    if (hooks_.unavailable_rejections != nullptr) {
      ++*hooks_.unavailable_rejections;
    }
    return false;
  }

  // --- RBAC enforcement + audit ------------------------------------------

  /// The single access-check path of a DE: consults the policy engine and
  /// records the decision on the audit trail.
  Decision check_access(const std::string& principal,
                        const std::string& resource, const std::string& key,
                        Verb verb) {
    return check_access_at(principal, resource, key, verb, clock_.now());
  }
  /// check_access at a given instant: the epoch pipeline decides and
  /// audits every access of one epoch at the single `now` it read.
  Decision check_access_at(const std::string& principal,
                           const std::string& resource, const std::string& key,
                           Verb verb, sim::SimTime now) {
    Decision d = rbac_.check(principal, resource, key, verb, now);
    if (audit_enabled_) {
      audit_.push_back(
          AuditEntry{now, principal, verb, resource, key, d.allowed});
      while (audit_.size() > audit_capacity_) audit_.pop_front();
    }
    return d;
  }

  /// Access check for the epoch pipeline's commit loop: consults the
  /// policy engine and buffers the decision into a caller-owned sink
  /// instead of the trail, because the epoch's fate is not known yet: a
  /// committed or atomically aborted epoch appends the sink with
  /// append_audit(), a crashed one drops it.
  Decision check_access_buffered(const std::string& principal,
                                 const std::string& resource,
                                 const std::string& key, Verb verb,
                                 sim::SimTime now,
                                 std::vector<AuditEntry>* sink) const {
    Decision d = rbac_.check(principal, resource, key, verb, now);
    if (audit_enabled_ && sink != nullptr) {
      sink->push_back(
          AuditEntry{now, principal, verb, resource, key, d.allowed});
    }
    return d;
  }

  /// Publish half of check_access_buffered: appends buffered entries to
  /// the audit trail. Callers present the sinks in commit order, so the
  /// trail reads exactly as if every check had run serially.
  void append_audit(const std::vector<AuditEntry>& entries) {
    if (!audit_enabled_) return;
    for (const auto& e : entries) audit_.push_back(e);
    while (audit_.size() > audit_capacity_) audit_.pop_front();
  }

  void enable_audit(std::size_t capacity = 1024) {
    audit_capacity_ = capacity;
    audit_enabled_ = capacity > 0;
    if (audit_.size() > audit_capacity_) audit_.clear();
  }
  void disable_audit() { audit_enabled_ = false; }
  [[nodiscard]] bool audit_enabled() const { return audit_enabled_; }
  [[nodiscard]] const std::deque<AuditEntry>& audit_log() const {
    return audit_;
  }

  // --- causal trace context + provenance ---------------------------------
  // The ambient TraceContext is the Dapper-style propagation point: a
  // client (integrator, bridge) sets it immediately before issuing writes
  // and clears it after; the facades capture it synchronously at call
  // time, so it rides into the commit and out on the watch events the
  // commit fires. The provenance ring is the lineage half: integrators
  // record one entry per derived write (capacity 0 = disabled, the
  // default — the hot path then skips input snapshotting entirely).

  void set_trace_context(const core::TraceContext& ctx) { trace_ctx_ = ctx; }
  void clear_trace_context() { trace_ctx_ = core::TraceContext{}; }
  [[nodiscard]] const core::TraceContext& trace_context() const {
    return trace_ctx_;
  }

  /// Enables lineage recording with a bounded ring (capacity 0 disables).
  void enable_provenance(std::size_t capacity = 1024) {
    provenance_.set_capacity(capacity);
  }
  [[nodiscard]] core::ProvenanceRing& provenance() { return provenance_; }
  [[nodiscard]] const core::ProvenanceRing& provenance() const {
    return provenance_;
  }

  // --- retention / GC hooks ----------------------------------------------

  /// Registers a sweep callback (retention manager, pool compaction, ...).
  /// Hooks run in registration order; each returns how many entries it
  /// collected.
  void add_gc_hook(std::function<std::size_t()> hook) {
    gc_hooks_.push_back(std::move(hook));
  }
  /// Runs every GC hook once; returns the total collected.
  std::size_t run_gc() {
    std::size_t collected = 0;
    for (auto& hook : gc_hooks_) collected += hook();
    return collected;
  }

  // --- synchronous driving ------------------------------------------------

  /// Drives the clock until `done` reports true or the queue drains.
  void run_sync(const std::function<bool()>& done) {
    while (!done() && clock_.step()) {
    }
  }

 private:
  sim::VirtualClock& clock_;
  sim::Rng rng_;
  Rbac rbac_;
  Hooks hooks_;
  std::function<void()> restart_;
  bool available_ = true;
  std::uint64_t next_revision_ = 1;
  std::uint64_t commit_seq_ = 1;  // pre-increment preserves legacy stamps
  std::uint64_t next_watch_id_ = 1;
  std::map<std::uint64_t, SubscriptionInfo> subscriptions_;
  core::TraceContext trace_ctx_;
  core::ProvenanceRing provenance_;
  bool audit_enabled_ = false;
  std::size_t audit_capacity_ = 0;
  std::deque<AuditEntry> audit_;
  std::vector<std::function<std::size_t()>> gc_hooks_;
  std::function<void()> settle_;
};

}  // namespace knactor::de
