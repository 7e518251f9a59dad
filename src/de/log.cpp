#include "de/log.h"

#include <algorithm>

#include "common/json.h"
#include "de/plan.h"
#include "expr/parser.h"

namespace knactor::de {

using common::Error;
using common::Result;
using common::Status;
using common::Value;

// ---------------------------------------------------------------------------
// LogOp constructors.
// ---------------------------------------------------------------------------

Result<LogOp> LogOp::filter(const std::string& expr_text) {
  LogOp op;
  op.kind = Kind::kFilter;
  op.expr_text = expr_text;
  KN_ASSIGN_OR_RETURN(expr::NodePtr node, expr::parse(expr_text));
  op.compiled = std::shared_ptr<const expr::Node>(std::move(node));
  return op;
}

LogOp LogOp::rename(std::map<std::string, std::string> renames) {
  LogOp op;
  op.kind = Kind::kRename;
  op.renames = std::move(renames);
  return op;
}

LogOp LogOp::project(std::vector<std::string> fields) {
  LogOp op;
  op.kind = Kind::kProject;
  op.fields = std::move(fields);
  return op;
}

LogOp LogOp::drop(std::vector<std::string> fields) {
  LogOp op;
  op.kind = Kind::kDrop;
  op.fields = std::move(fields);
  return op;
}

LogOp LogOp::sort(std::string field, bool descending) {
  LogOp op;
  op.kind = Kind::kSort;
  op.field = std::move(field);
  op.descending = descending;
  return op;
}

LogOp LogOp::head(std::size_t n) {
  LogOp op;
  op.kind = Kind::kHead;
  op.n = n;
  return op;
}

LogOp LogOp::tail(std::size_t n) {
  LogOp op;
  op.kind = Kind::kTail;
  op.n = n;
  return op;
}

LogOp LogOp::aggregate(
    std::vector<std::string> group_by,
    std::map<std::string, std::pair<std::string, std::string>> aggs) {
  LogOp op;
  op.kind = Kind::kAggregate;
  op.fields = std::move(group_by);
  op.aggs = std::move(aggs);
  return op;
}

Result<LogOp> LogOp::map(std::string target_field,
                         const std::string& expr_text) {
  LogOp op;
  op.kind = Kind::kMap;
  op.field = std::move(target_field);
  op.expr_text = expr_text;
  KN_ASSIGN_OR_RETURN(expr::NodePtr node, expr::parse(expr_text));
  op.compiled = std::shared_ptr<const expr::Node>(std::move(node));
  return op;
}

Result<LogOp> LogOp::window(std::string target_field,
                            std::string source_field, double width) {
  if (target_field.empty() || source_field.empty()) {
    return Error::invalid_argument("window: empty field name");
  }
  if (!(width > 0)) {
    return Error::invalid_argument("window: width must be > 0");
  }
  LogOp op;
  op.kind = Kind::kWindow;
  op.field = std::move(target_field);
  op.source_field = std::move(source_field);
  op.width = width;
  return op;
}

// ---------------------------------------------------------------------------
// Profiles.
// ---------------------------------------------------------------------------

LogDeProfile LogDeProfile::zed() {
  LogDeProfile p;
  p.name = "zed";
  p.append_rt = sim::LatencyModel::normal_ms(1.2, 0.1);
  p.query_base_rt = sim::LatencyModel::normal_ms(2.5, 0.2);
  p.per_record = sim::LatencyModel::constant(2);  // 2us per record scanned
  return p;
}

LogDeProfile LogDeProfile::instant() {
  LogDeProfile p;
  p.name = "instant";
  return p;
}

// ---------------------------------------------------------------------------
// LogPool / LogDe.
// ---------------------------------------------------------------------------

void LogPool::append(const std::string& principal, Value record,
                     AppendCallback done) {
  sim::SimTime rt = de_.profile_.append_rt.sample(de_.kernel_.rng());
  de_.clock().schedule_after(
      rt, [this, principal, record = std::move(record),
           done = std::move(done)]() mutable {
        if (!de_.kernel_.guard_available()) {
          done(Error::unavailable("log: de unavailable (crashed)"));
          return;
        }
        ++de_.stats_.appends;
        Decision d = de_.kernel_.check_access(principal, name_, "",
                                              Verb::kCreate);
        if (!d.allowed) {
          ++de_.stats_.permission_denials;
          done(Error::permission_denied("log: " + principal +
                                        " cannot append to " + name_));
          return;
        }
        LogRecord rec;
        rec.seq = de_.kernel_.next_revision();
        rec.ingested_at = de_.clock().now();
        rec.data = std::make_shared<const Value>(std::move(record));
        records_.push_back(std::move(rec));
        notify_subscribers(records_.back());
        done(records_.back().seq);
      });
}

void LogPool::append_batch(const std::string& principal,
                           std::vector<common::CowValue> records,
                           AppendCallback done) {
  sim::SimTime rt = de_.profile_.append_rt.sample(de_.kernel_.rng());
  rt += static_cast<sim::SimTime>(records.size()) *
        de_.profile_.per_record.sample(de_.kernel_.rng());
  de_.clock().schedule_after(
      rt, [this, principal, records = std::move(records),
           done = std::move(done)]() mutable {
        if (!de_.kernel_.guard_available()) {
          done(Error::unavailable("log: de unavailable (crashed)"));
          return;
        }
        Decision d = de_.kernel_.check_access(principal, name_, "",
                                              Verb::kCreate);
        if (!d.allowed) {
          ++de_.stats_.permission_denials;
          done(Error::permission_denied("log: " + principal +
                                        " cannot append to " + name_));
          return;
        }
        de_.stats_.append_batch_sizes.add(records.size());
        std::uint64_t last = latest_seq();
        for (auto& record : records) {
          ++de_.stats_.appends;
          LogRecord rec;
          rec.seq = de_.kernel_.next_revision();
          rec.ingested_at = de_.clock().now();
          rec.data = record.share();  // zero-copy: store the handle
          last = rec.seq;
          records_.push_back(std::move(rec));
          notify_subscribers(records_.back());
        }
        done(last);
      });
}

Result<std::uint64_t> LogPool::append_batch_sync(
    const std::string& principal, std::vector<common::CowValue> records) {
  std::optional<Result<std::uint64_t>> result;
  append_batch(principal, std::move(records),
               [&](Result<std::uint64_t> r) { result = std::move(r); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Result<std::uint64_t> LogPool::append_batch_sync(const std::string& principal,
                                                 std::vector<Value> records) {
  std::vector<common::CowValue> wrapped;
  wrapped.reserve(records.size());
  for (auto& r : records) wrapped.emplace_back(std::move(r));
  return append_batch_sync(principal, std::move(wrapped));
}

void LogPool::query(const std::string& principal, const LogQuery& q,
                    std::uint64_t after_seq, QueryCallback done) {
  // Plan first: a leading head/tail bounds how many records the scan must
  // materialize (and pay per-record latency for).
  QueryPlan plan = plan_query(q);
  std::size_t candidates = 0;
  std::vector<common::CowValue> batch;
  if (plan.scan_tail != kNoLimit) {
    // Only the last N records can survive a leading tail: walk backwards.
    for (auto it = records_.rbegin();
         it != records_.rend() && batch.size() < plan.scan_tail; ++it) {
      if (it->seq <= after_seq) break;
      batch.emplace_back(it->data);
    }
    std::reverse(batch.begin(), batch.end());
    for (const auto& rec : records_) {
      if (rec.seq > after_seq) ++candidates;
    }
  } else {
    for (const auto& rec : records_) {
      if (rec.seq <= after_seq) continue;
      ++candidates;
      if (batch.size() < plan.scan_head) batch.emplace_back(rec.data);
    }
  }
  de_.stats_.records_scan_saved += candidates - batch.size();
  sim::SimTime rt = de_.profile_.query_base_rt.sample(de_.kernel_.rng());
  rt += static_cast<sim::SimTime>(batch.size()) *
        de_.profile_.per_record.sample(de_.kernel_.rng());
  de_.clock().schedule_after(
      rt, [this, principal, plan = std::move(plan), batch = std::move(batch),
           done = std::move(done)]() mutable {
        if (!de_.kernel_.guard_available()) {
          done(Error::unavailable("log: de unavailable (crashed)"));
          return;
        }
        ++de_.stats_.queries;
        de_.stats_.records_scanned += batch.size();
        de_.stats_.query_batch_sizes.add(batch.size());
        Decision d = de_.kernel_.check_access(principal, name_, "",
                                              Verb::kList);
        if (!d.allowed) {
          ++de_.stats_.permission_denials;
          done(Error::permission_denied("log: " + principal +
                                        " cannot query " + name_));
          return;
        }
        if (!d.fields.unrestricted()) {
          for (auto& r : batch) {
            r = common::CowValue(Rbac::filter_fields(*r, d.fields));
          }
        }
        done(run_plan(plan, std::move(batch)));
      });
}

Result<std::uint64_t> LogPool::append_sync(const std::string& principal,
                                           Value record) {
  std::optional<Result<std::uint64_t>> result;
  append(principal, std::move(record),
         [&](Result<std::uint64_t> r) { result = std::move(r); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Result<std::vector<common::CowValue>> LogPool::query_sync(
    const std::string& principal, const LogQuery& q, std::uint64_t after_seq) {
  std::optional<Result<std::vector<common::CowValue>>> result;
  query(principal, q, after_seq,
        [&](Result<std::vector<common::CowValue>> r) { result = std::move(r); });
  de_.run_sync([&] { return result.has_value(); });
  return std::move(*result);
}

Result<std::uint64_t> LogPool::subscribe(const std::string& principal,
                                         SubscriptionSpec spec,
                                         RecordCallback callback) {
  Decision d = de_.kernel_.check_access(principal, name_, "", Verb::kList);
  if (!d.allowed) {
    ++de_.stats_.permission_denials;
    return Error::permission_denied("log: " + principal +
                                    " cannot subscribe to " + name_);
  }
  auto compiled = CompiledSubscription::compile(std::move(spec));
  if (!compiled.ok()) return compiled.error();
  std::uint64_t id = de_.kernel_.allocate_watch_id();
  auto sub = compiled.take();
  Kernel::SubscriptionInfo& info = de_.kernel_.register_subscription(id);
  info.store = name_;
  info.principal = principal;
  info.filter = sub->spec().filter;
  info.projected = sub->projected();
  info.batched = false;
  info.deadline = sub->qos().deadline;
  info.stage = sub->qos().stage_or_default();
  subscribers_.push_back(
      Subscriber{id, principal, std::move(sub), std::move(callback), &info});
  return id;
}

void LogPool::unsubscribe(std::uint64_t id) {
  // Only this pool's own ids: the registry is shared by every pool of the
  // exchange, and its entries back the subscribers' cached info pointers.
  if (std::erase_if(subscribers_, [id](const auto& s) { return s.id == id; })) {
    de_.kernel_.unregister_subscription(id);
  }
}

void LogPool::notify_subscribers(const LogRecord& rec) {
  if (subscribers_.empty()) return;
  // Callbacks run synchronously and may (un)subscribe, which reshapes
  // subscribers_. So the walk re-finds its place by id after every
  // subscriber (the vector is in ascending id order), stops at the newest
  // subscriber present when it started, and invokes a copy of each
  // callback so an unsubscribe from inside it cannot destroy it mid-call.
  const std::uint64_t newest = subscribers_.back().id;
  auto after = [this](std::uint64_t id) {
    return std::upper_bound(
        subscribers_.begin(), subscribers_.end(), id,
        [](std::uint64_t v, const Subscriber& s) { return v < s.id; });
  };
  std::uint64_t last = 0;
  for (auto it = subscribers_.begin();
       it != subscribers_.end() && it->id <= newest; it = after(last)) {
    const Subscriber& s = *it;
    last = s.id;
    ++s.info->matched;
    common::SharedValue payload = rec.data;
    if (s.sub->active()) {
      ++s.info->evaluated;
      auto out = s.sub->apply(rec.data);
      if (!out.has_value()) {
        ++de_.stats_.records_filtered;
        ++s.info->filtered;
        continue;
      }
      payload = std::move(*out);
    }
    ++s.info->delivered;
    ++de_.stats_.sub_deliveries;
    LogRecord delivered = rec;
    delivered.data = std::move(payload);
    auto callback = s.callback;  // copy: the callback may unsubscribe
    callback(delivered);
  }
}

std::size_t LogPool::compact(std::uint64_t up_to) {
  std::size_t dropped = 0;
  while (!records_.empty() && records_.front().seq <= up_to) {
    records_.pop_front();
    ++dropped;
  }
  return dropped;
}

LogDe::LogDe(sim::VirtualClock& clock, LogDeProfile profile, std::uint64_t seed)
    : kernel_(clock, seed), profile_(std::move(profile)) {
  kernel_.set_hooks(Kernel::Hooks{&stats_.unavailable_rejections});
  kernel_.set_restart_hook([this] { restart(); });
}

void LogDe::restart() {
  // Pools are not durable: a crash loses all records (consumers re-sync
  // from seq 0; sequence numbers keep advancing, never reused).
  for (auto& [name, pool] : pools_) {
    pool->records_.clear();
  }
}

LogPool& LogDe::create_pool(const std::string& name) {
  auto it = pools_.find(name);
  if (it != pools_.end()) return *it->second;
  auto pool = std::unique_ptr<LogPool>(new LogPool(*this, name));
  LogPool& ref = *pool;
  pools_[name] = std::move(pool);
  return ref;
}

LogPool* LogDe::pool(const std::string& name) {
  auto it = pools_.find(name);
  return it == pools_.end() ? nullptr : it->second.get();
}

}  // namespace knactor::de
