// Log Data Exchange: append-only pools of structured records with an
// ingestion API and a dataflow query API (filter, rename, project, sort,
// head/tail, aggregate) — the Zed-lake analog backing the Sync integrator.
//
// Records are common::Value objects; each append stamps a monotonically
// increasing sequence number and ingest time, so consumers (Sync) can
// resume from a cursor.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cow.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/value.h"
#include "de/kernel.h"
#include "de/rbac.h"
#include "de/subscription.h"
#include "expr/ast.h"
#include "expr/eval.h"
#include "sim/clock.h"
#include "sim/latency.h"
#include "sim/random.h"

namespace knactor::de {

/// A stored log record. The payload is an immutable shared buffer so
/// query/sync batches can carry it zero-copy (§3.3); consumers mutate
/// through common::CowValue, which clones on first write.
struct LogRecord {
  std::uint64_t seq = 0;
  sim::SimTime ingested_at = 0;
  common::SharedValue data;
};

/// One dataflow operator in a query pipeline.
struct LogOp {
  enum class Kind {
    kFilter,     // keep records where expr is truthy
    kRename,     // rename fields: {old -> new}
    kProject,    // keep only the named fields
    kDrop,       // remove the named fields
    kSort,       // sort by field (asc unless descending)
    kHead,       // first n
    kTail,       // last n
    kAggregate,  // group_by field(s) + aggregations
    kMap,        // computed field: name := expr over each record
    kWindow,     // time-bucket: target := floor(source / width) * width
  };

  Kind kind = Kind::kFilter;
  std::string expr_text;                        // kFilter, kMap value
  std::shared_ptr<const expr::Node> compiled;   // parsed once, reused
  std::map<std::string, std::string> renames;   // kRename: old -> new
  std::vector<std::string> fields;              // kProject/kDrop/group_by
  std::string field;                            // kSort field, kMap target
  bool descending = false;                      // kSort
  std::size_t n = 0;                            // kHead/kTail
  /// kAggregate: output field -> (fn, input field). fn in
  /// {count,sum,min,max,avg,first,last}.
  std::map<std::string, std::pair<std::string, std::string>> aggs;
  std::string source_field;  // kWindow: the numeric field being bucketed
  double width = 0;          // kWindow: bucket width (> 0)

  // Convenience constructors.
  static common::Result<LogOp> filter(const std::string& expr_text);
  static LogOp rename(std::map<std::string, std::string> renames);
  static LogOp project(std::vector<std::string> fields);
  static LogOp drop(std::vector<std::string> fields);
  static LogOp sort(std::string field, bool descending = false);
  static LogOp head(std::size_t n);
  static LogOp tail(std::size_t n);
  static LogOp aggregate(
      std::vector<std::string> group_by,
      std::map<std::string, std::pair<std::string, std::string>> aggs);
  static common::Result<LogOp> map(std::string target_field,
                                   const std::string& expr_text);
  /// Record-local time-bucketing: writes floor(source/width)*width into
  /// target. Fusible (not a barrier), so `window ... | summarize ... by`
  /// runs windowed aggregation through one fused scan + one barrier.
  static common::Result<LogOp> window(std::string target_field,
                                      std::string source_field, double width);
};

/// A parsed query: a pipeline of operators applied in order.
using LogQuery = std::vector<LogOp>;

struct LogDeProfile {
  std::string name;
  sim::LatencyModel append_rt;
  sim::LatencyModel query_base_rt;
  /// Additional cost per record scanned.
  sim::LatencyModel per_record;

  static LogDeProfile zed();
  static LogDeProfile instant();
};

struct LogDeStats {
  std::uint64_t appends = 0;
  std::uint64_t queries = 0;
  std::uint64_t records_scanned = 0;
  std::uint64_t records_scan_saved = 0;  // skipped via head/tail push-down
  std::uint64_t permission_denials = 0;
  std::uint64_t unavailable_rejections = 0;  // ops failed while crashed
  /// Appends a subscription's filter rejected pre-delivery / delivered.
  std::uint64_t records_filtered = 0;
  std::uint64_t sub_deliveries = 0;
  /// Batch-size distributions on the hot path (export via
  /// SizeHistogram::export_counters, e.g. into core::Metrics).
  common::SizeHistogram append_batch_sizes;
  common::SizeHistogram query_batch_sizes;
};

class LogDe;

/// A named append-only pool on a Log DE.
class LogPool {
 public:
  using AppendCallback = std::function<void(common::Result<std::uint64_t>)>;
  using QueryCallback =
      std::function<void(common::Result<std::vector<common::Value>>)>;
  using SharedQueryCallback =
      std::function<void(common::Result<std::vector<common::CowValue>>)>;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Appends one record; callback receives its sequence number.
  void append(const std::string& principal, common::Value record,
              AppendCallback done);
  /// Appends a batch in one round trip (one append_rt + per-record engine
  /// cost); callback receives the last sequence number. This is how bulk
  /// loaders (the Sync integrator) ingest.
  void append_batch(const std::string& principal,
                    std::vector<common::Value> records, AppendCallback done);
  /// Appends a batch of shared buffers zero-copy: the pool stores the
  /// handles directly (no deep copy of untouched records). This is the
  /// consolidated Sync integrator's ingest path.
  void append_batch_shared(const std::string& principal,
                           std::vector<common::CowValue> records,
                           AppendCallback done);
  /// Runs a query over records with seq > after_seq (0 = all). Executed
  /// through the query planner: adjacent record-local operators run as one
  /// fused pass and leading head/tail limits bound the scan itself.
  void query(const std::string& principal, const LogQuery& q,
             std::uint64_t after_seq, QueryCallback done);
  /// Zero-copy query: results are copy-on-write handles onto the stored
  /// buffers (records the pipeline never mutated are not copied).
  void query_shared(const std::string& principal, const LogQuery& q,
                    std::uint64_t after_seq, SharedQueryCallback done);

  common::Result<std::uint64_t> append_sync(const std::string& principal,
                                            common::Value record);
  common::Result<std::uint64_t> append_batch_sync(
      const std::string& principal, std::vector<common::Value> records);
  common::Result<std::uint64_t> append_batch_shared_sync(
      const std::string& principal, std::vector<common::CowValue> records);
  common::Result<std::vector<common::Value>> query_sync(
      const std::string& principal, const LogQuery& q,
      std::uint64_t after_seq = 0);
  common::Result<std::vector<common::CowValue>> query_shared_sync(
      const std::string& principal, const LogQuery& q,
      std::uint64_t after_seq = 0);

  /// Per-delivered-record callback for subscriptions. The record's payload
  /// is the subscription's projected view (shared handle when the
  /// projection is a pass-through).
  using RecordCallback = std::function<void(const LogRecord&)>;
  /// The Log facade's face of the unified subscription layer
  /// (de/subscription.h): the compiled filter+projection runs once per
  /// appended record, pre-delivery, and the kernel's subscription registry
  /// tracks matched/filtered/delivered counts. `spec.prefix` is unused —
  /// the pool itself is the scope. Fails on RBAC denial (List on the
  /// pool) or a filter that does not parse.
  common::Result<std::uint64_t> subscribe(const std::string& principal,
                                          SubscriptionSpec spec,
                                          RecordCallback callback);
  /// Removes a subscription and its registry entry. Unknown ids no-op.
  void unsubscribe(std::uint64_t id);

  /// Highest sequence number in the pool (cursor for consumers).
  [[nodiscard]] std::uint64_t latest_seq() const {
    return records_.empty() ? 0 : records_.back().seq;
  }

  /// Latency-free, ACL-free inspection for tooling and lineage recording
  /// — not part of the data path. Record seqs share the DE-wide revision
  /// counter, so they are monotonic but NOT consecutive per pool; this is
  /// how consumers learn exactly which seqs a cursor window covered.
  [[nodiscard]] std::vector<LogRecord> records_after(
      std::uint64_t after_seq) const {
    std::vector<LogRecord> out;
    for (const auto& r : records_) {
      if (r.seq > after_seq) out.push_back(r);  // payload stays shared
    }
    return out;
  }
  /// The stored record with the given seq, or nullptr.
  [[nodiscard]] const LogRecord* peek(std::uint64_t seq) const {
    for (const auto& r : records_) {
      if (r.seq == seq) return &r;
    }
    return nullptr;
  }
  /// The exchange this pool lives on.
  [[nodiscard]] LogDe& exchange() { return de_; }

  /// Drops records with seq <= up_to (retention/GC hook).
  std::size_t compact(std::uint64_t up_to);

 private:
  friend class LogDe;
  LogPool(LogDe& de, std::string name) : de_(de), name_(std::move(name)) {}

  struct Subscriber {
    std::uint64_t id = 0;
    std::string principal;
    std::shared_ptr<const CompiledSubscription> sub;
    RecordCallback callback;
    /// The kernel registry entry (a stable std::map node, unregistered
    /// together with this subscriber's removal).
    Kernel::SubscriptionInfo* info = nullptr;
  };

  /// Runs every subscriber's compiled pass over one freshly appended
  /// record, at the append's commit point (serial, main loop). Callbacks
  /// may (un)subscribe: a subscriber removed before its turn misses the
  /// record, one added during the walk gets the records after it.
  void notify_subscribers(const LogRecord& rec);

  LogDe& de_;
  std::string name_;
  std::deque<LogRecord> records_;
  std::vector<Subscriber> subscribers_;  // ascending id (registration order)
};

/// Executes a query pipeline over a batch of records (shared by LogPool
/// and the Sync integrator's operator-consolidation ablation).
common::Result<std::vector<common::Value>> run_pipeline(
    const LogQuery& q, std::vector<common::Value> records);

/// One deployed Log data exchange: a typed facade over de::Kernel (record
/// sequencing via the kernel's revision counter, RBAC enforcement + audit,
/// availability simulation, retention GC hooks).
class LogDe {
 public:
  using AuditEntry = de::AuditEntry;

  LogDe(sim::VirtualClock& clock, LogDeProfile profile, std::uint64_t seed = 11);

  LogDe(const LogDe&) = delete;
  LogDe& operator=(const LogDe&) = delete;

  LogPool& create_pool(const std::string& name);
  [[nodiscard]] LogPool* pool(const std::string& name);

  /// The shared DE substrate this facade runs on.
  [[nodiscard]] Kernel& kernel() { return kernel_; }
  /// Binds the runtime's worker pool (nullptr = inline serial execution).
  void set_worker_pool(common::WorkerPool* pool) {
    kernel_.set_worker_pool(pool);
  }

  /// Availability simulation for chaos testing. Log pools are not durable:
  /// recover() wipes all records (consumers re-sync from seq 0).
  void set_available(bool available) { kernel_.set_available(available); }
  [[nodiscard]] bool available() const { return kernel_.available(); }
  void crash() { kernel_.crash(); }
  void recover() { kernel_.recover(); }

  /// Access auditing (bounded ring, off by default) — same enforcement
  /// point as ObjectDe, owned by the kernel.
  void enable_audit(std::size_t capacity = 1024) {
    kernel_.enable_audit(capacity);
  }
  void disable_audit() { kernel_.disable_audit(); }
  [[nodiscard]] const std::deque<AuditEntry>& audit_log() const {
    return kernel_.audit_log();
  }

  /// Retention sweep: runs every registered GC hook (pool compaction
  /// registered by retention managers) once; returns records collected.
  std::size_t run_gc() { return kernel_.run_gc(); }

  [[nodiscard]] Rbac& rbac() { return kernel_.rbac(); }
  [[nodiscard]] const LogDeProfile& profile() const { return profile_; }
  [[nodiscard]] const LogDeStats& stats() const { return stats_; }
  [[nodiscard]] sim::VirtualClock& clock() { return kernel_.clock(); }

 private:
  friend class LogPool;
  void restart();
  void run_sync(const std::function<bool()>& done) { kernel_.run_sync(done); }

  Kernel kernel_;
  LogDeProfile profile_;
  std::map<std::string, std::unique_ptr<LogPool>> pools_;
  LogDeStats stats_;
};

}  // namespace knactor::de
