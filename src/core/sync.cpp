#include "core/sync.h"

#include <algorithm>

#include "common/logging.h"

namespace knactor::core {

using common::Error;
using common::Result;
using common::Status;
using common::Value;

SyncIntegrator::SyncIntegrator(std::string name, de::LogDe& de,
                               Options options, Tracer* tracer)
    : name_(std::move(name)), de_(de), options_(options), tracer_(tracer) {}

SyncIntegrator::SyncIntegrator(std::string name, de::LogDe& de)
    : SyncIntegrator(std::move(name), de, Options{}) {}

Status SyncIntegrator::add_route(SyncRoute route) {
  if (route.source == nullptr || route.target == nullptr) {
    return Error::invalid_argument("sync " + name_ +
                                   ": route needs source and target pools");
  }
  for (const auto& r : routes_) {
    if (r.name == route.name) {
      return Error::already_exists("sync " + name_ + ": route '" + route.name +
                                   "' exists");
    }
  }
  routes_.push_back(std::move(route));
  return Status::success();
}

Status SyncIntegrator::remove_route(const std::string& route_name) {
  auto before = routes_.size();
  std::erase_if(routes_,
                [&](const SyncRoute& r) { return r.name == route_name; });
  if (routes_.size() == before) {
    return Error::not_found("sync " + name_ + ": no route '" + route_name +
                            "'");
  }
  return Status::success();
}

Status SyncIntegrator::set_pipeline(const std::string& route_name,
                                    de::LogQuery pipeline) {
  for (auto& r : routes_) {
    if (r.name == route_name) {
      r.pipeline = std::move(pipeline);
      ++stats_.reconfigurations;
      return Status::success();
    }
  }
  return Error::not_found("sync " + name_ + ": no route '" + route_name + "'");
}

Status SyncIntegrator::start() {
  if (running_) return Status::success();
  running_ = true;
  if (options_.interval > 0) schedule_tick();
  if (options_.push) install_subscriptions();
  return Status::success();
}

void SyncIntegrator::stop() {
  running_ = false;
  remove_subscriptions();
}

void SyncIntegrator::install_subscriptions() {
  remove_subscriptions();
  for (const auto& route : routes_) {
    de::SubscriptionSpec spec;
    // Predicate push-down: the pipeline's leading `where` clause becomes
    // the subscription's content filter, evaluated at the source pool's
    // append point — a record it rejects never wakes the integrator.
    if (!route.pipeline.empty() &&
        route.pipeline.front().kind == de::LogOp::Kind::kFilter) {
      spec.filter = route.pipeline.front().expr_text;
    }
    auto sub = route.source->subscribe(
        principal(), std::move(spec), [this](const de::LogRecord&) {
          if (!running_) return;
          // Coalesce a burst of matching appends into one round. An append
          // that lands while the round runs may be past the round's query,
          // so it earns exactly one follow-up round.
          if (round_pending_) {
            followup_ = true;
            return;
          }
          schedule_push_round();
        });
    if (!sub.ok()) {
      KN_WARN << "sync " << name_ << ": subscribe denied on pool '"
              << route.source->name() << "': " << sub.error().to_string();
      continue;
    }
    subscriptions_.emplace_back(route.source, sub.value());
  }
}

void SyncIntegrator::schedule_push_round() {
  // After the current clock step, so the triggering append completes first.
  round_pending_ = true;
  de_.clock().schedule_after(0, [this]() {
    if (!running_) {
      round_pending_ = false;
      return;
    }
    // Appends before this point are read by this round.
    followup_ = false;
    auto moved = run_round_sync();
    round_pending_ = false;
    if (!moved.ok()) {
      KN_WARN << "sync " << name_ << ": push round failed: "
              << moved.error().to_string();
    }
    if (followup_ && running_) {
      followup_ = false;
      schedule_push_round();
    }
  });
}

void SyncIntegrator::remove_subscriptions() {
  for (auto& [pool, id] : subscriptions_) pool->unsubscribe(id);
  subscriptions_.clear();
}

Status SyncIntegrator::reconfigure(const Value& config) {
  const Value* consolidate = config.get("consolidate");
  if (consolidate != nullptr && consolidate->is_bool()) {
    options_.consolidate = consolidate->as_bool();
    ++stats_.reconfigurations;
    return Status::success();
  }
  return Error::invalid_argument(
      "sync " + name_ +
      ": use add_route/set_pipeline for route reconfiguration");
}

void SyncIntegrator::schedule_tick() {
  de_.clock().schedule_after(options_.interval, [this]() {
    if (!running_) return;
    auto moved = run_round_sync();
    if (!moved.ok()) {
      KN_WARN << "sync " << name_
              << ": round failed: " << moved.error().to_string();
    }
    schedule_tick();
  });
}

std::size_t SyncIntegrator::count_passes(const de::LogQuery& pipeline,
                                         bool consolidated) {
  return de::plan_query(pipeline, consolidated).passes();
}

Result<std::size_t> SyncIntegrator::run_route(SyncRoute& route) {
  std::uint64_t span = 0;
  auto open_stage = [this, &span](const char* what, const SyncRoute& r,
                                  const char* stage) -> std::uint64_t {
    if (tracer_ == nullptr) return 0;
    std::uint64_t s = tracer_->begin(std::string(what) + r.name, span);
    tracer_->annotate(s, "stage", stage);
    return s;
  };
  auto end_span = [this](std::uint64_t s) {
    if (tracer_ != nullptr && s != 0) tracer_->end(s);
  };
  if (tracer_ != nullptr) {
    span = tracer_->begin("sync.route." + route.name);
  }
  // Pull raw records after the cursor; the source query itself charges the
  // DE's scan cost once.
  std::uint64_t latest = route.source->latest_seq();
  // Lineage: snapshot the consumed window (seq + shared payload) before
  // the pipeline consumes it. Zero-copy; only taken when recording is on.
  const bool lineage = de_.kernel().provenance().enabled();
  std::vector<de::LogRecord> raw;
  if (lineage) raw = route.source->records_after(route.cursor);
  std::uint64_t q_span = open_stage("sync.query.", route, "C-I");
  auto batch_r = route.source->query_sync(principal(), {}, route.cursor);
  end_span(q_span);
  if (!batch_r.ok()) {
    end_span(span);
    return batch_r.error();
  }
  std::vector<common::CowValue> batch = batch_r.take();

  // Consolidated rounds (§3.3) move records as copy-on-write handles and
  // run the fused plan. The naive side of the ablation deep-copies the
  // batch on load (no zero-copy) and runs the unfused plan, one pass per
  // operator.
  std::uint64_t p_span = open_stage("sync.pipeline.", route, "I");
  const de::QueryPlan plan =
      de::plan_query(route.pipeline, options_.consolidate);
  if (!options_.consolidate) {
    for (auto& r : batch) r = common::CowValue(Value(*r));
  }
  const std::size_t loaded = batch.size();
  de::PlanRunStats prs;
  auto transformed_r = de::run_plan(plan, std::move(batch), &prs);
  // Consolidated rounds charge the records each stage actually processed
  // (nothing when the pipeline fails); naive rounds charge every operator
  // a pass over the whole batch, failed or not.
  const std::size_t processed = !options_.consolidate ? plan.passes() * loaded
                                : transformed_r.ok()  ? prs.total_processed()
                                                      : 0;
  stats_.records_processed += processed;
  de_.clock().advance(static_cast<sim::SimTime>(processed) *
                      de_.profile().per_record.mean());
  end_span(p_span);
  if (!transformed_r.ok()) {
    end_span(span);
    return transformed_r.error();
  }
  std::vector<common::CowValue> transformed = transformed_r.take();
  const std::size_t moved = transformed.size();
  if (!transformed.empty()) {
    std::uint64_t a_span = open_stage("sync.append.", route, "I-S");
    auto appended =
        route.target->append_batch_sync(principal(), std::move(transformed));
    end_span(a_span);
    if (!appended.ok()) {
      ++stats_.pipeline_errors;
      end_span(span);
      return appended.error();
    }
    if (lineage) {
      record_route_lineage(route, plan, raw, appended.value(), moved, span);
    }
  }
  route.cursor = latest;
  stats_.records_moved += moved;
  end_span(span);
  return moved;
}

void SyncIntegrator::record_route_lineage(const SyncRoute& route,
                                          const de::QueryPlan& plan,
                                          const std::vector<de::LogRecord>& raw,
                                          std::uint64_t last_seq,
                                          std::size_t appended,
                                          std::uint64_t span_id) {
  auto& ring = de_.kernel().provenance();
  if (!ring.enabled() || appended == 0) return;
  auto make_ref = [&](const de::LogRecord& r) {
    LineageRef ref;
    ref.store = route.source->name();
    ref.key = std::to_string(r.seq);
    ref.version = r.seq;
    ref.data = r.data;
    return ref;
  };
  const bool barrier =
      std::any_of(plan.stages.begin(), plan.stages.end(),
                  [](const de::PlanStage& s) { return s.is_barrier; });
  // Per-output input attribution. Record-local pipelines map each output
  // to exactly one source record; confirm by singleton replay (each input
  // alone produces 0 or 1 outputs, survivors line up with the batch
  // output). Anything else falls back to whole-window attribution.
  std::vector<std::vector<LineageRef>> per_out(appended);
  bool exact = false;
  if (!barrier) {
    std::vector<const de::LogRecord*> survivors;
    bool ok = true;
    for (const auto& r : raw) {
      std::vector<common::CowValue> one_in;
      one_in.emplace_back(r.data);
      auto one = de::run_plan(plan, std::move(one_in));
      if (!one.ok() || one.value().size() > 1) {
        ok = false;
        break;
      }
      if (one.value().size() == 1) survivors.push_back(&r);
    }
    if (ok && survivors.size() == appended) {
      for (std::size_t i = 0; i < appended; ++i) {
        per_out[i].push_back(make_ref(*survivors[i]));
      }
      exact = true;
    }
  }
  if (!exact) {
    std::vector<LineageRef> all;
    all.reserve(raw.size());
    for (const auto& r : raw) all.push_back(make_ref(r));
    for (auto& inputs : per_out) inputs = all;
  }
  // Batch appends allocate consecutive revisions in one synchronous
  // commit, so this append covers [last_seq - appended + 1, last_seq].
  const std::uint64_t first_seq = last_seq - appended + 1;
  for (std::size_t i = 0; i < appended; ++i) {
    const std::uint64_t seq = first_seq + i;
    LineageRecord rec;
    rec.output.store = route.target->name();
    rec.output.key = std::to_string(seq);
    rec.output.version = seq;
    if (const de::LogRecord* stored = route.target->peek(seq);
        stored != nullptr) {
      rec.output.data = stored->data;  // the committed buffer, byte-exact
    }
    rec.inputs = std::move(per_out[i]);
    rec.op = "sync:" + name_ + "/" + route.name;
    rec.stage = "I-S";
    rec.span_id = span_id;
    rec.time = de_.clock().now();
    ring.record(std::move(rec));
  }
}

Result<std::size_t> SyncIntegrator::run_round_sync() {
  ++stats_.rounds;
  std::size_t total = 0;
  std::optional<common::Error> first_error;
  for (auto& route : routes_) {
    auto moved = run_route(route);
    if (!moved.ok()) {
      // The failed route's cursor is unchanged; keep syncing the others and
      // let the retry (or the next round) re-pull the unsynced suffix.
      ++stats_.route_failures;
      if (options_.metrics != nullptr) {
        options_.metrics->inc("sync." + name_ + ".route_failures");
      }
      if (!first_error.has_value()) first_error = moved.error();
      continue;
    }
    total += moved.value();
  }
  if (first_error.has_value()) {
    maybe_schedule_retry();
    return *first_error;
  }
  round_attempt_ = 0;
  return total;
}

void SyncIntegrator::maybe_schedule_retry() {
  if (!options_.retry.enabled()) return;
  if (round_attempt_ == 0) round_first_attempt_ = de_.clock().now();
  ++round_attempt_;
  const sim::SimTime elapsed = de_.clock().now() - round_first_attempt_;
  if (!options_.retry.should_retry(round_attempt_, elapsed)) {
    round_attempt_ = 0;  // budget exhausted; the next tick starts fresh
    return;
  }
  ++stats_.retries;
  if (options_.metrics != nullptr) {
    options_.metrics->inc("sync." + name_ + ".retries");
  }
  de_.clock().schedule_after(
      options_.retry.backoff(round_attempt_, retry_rng_), [this]() {
        if (!running_) return;
        auto moved = run_round_sync();
        if (!moved.ok()) {
          KN_DEBUG << "sync " << name_
                   << ": retry round failed: " << moved.error().to_string();
        }
      });
}

}  // namespace knactor::core
