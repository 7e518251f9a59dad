// The traced run: charges every clock step's wall time to the outermost
// layer whose public counter moved, samples the pure entry points at each
// quarter of the run, and derives the per-layer metrics.
#include "traced.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

/// Sums the four quarter probes of one field and averages the non-zero
/// ones.
template <typename Field>
double mean_probe(const std::vector<Probes>& quarters, Field field) {
  double sum = 0;
  int n = 0;
  for (const Probes& p : quarters) {
    if (p.*field > 0) {
      sum += p.*field;
      ++n;
    }
  }
  return n == 0 ? 0 : sum / n;
}

double per(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kCast:
      return "cast";
    case Layer::kSync:
      return "sync";
    case Layer::kObjectDe:
      return "de";
    case Layer::kLogDe:
      return "log";
    case Layer::kPersist:
      return "persist";
    case Layer::kSubscription:
      return "sub";
    case Layer::kPool:
      return "pool";
    case Layer::kGenerator:
      return "sim";
    case Layer::kNone:
      return "none";
  }
  return "none";
}

Attribution::Attribution(Workload& workload) : workload_(workload) {}

void Attribution::on_start() {
  base_ = Counters{};
  workload_.read_counters(&base_);
  prev_ = base_;
}

Layer Attribution::classify(const Counters& a, const Counters& b,
                            bool generator_ran) {
  // Outermost first. Cast's snapshot reads are list steps on its DE (the
  // list callback builds the snapshot), so a list step belongs to Cast.
  if (b.cast_passes != a.cast_passes ||
      b.cast_fields_written != a.cast_fields_written ||
      (b.cast_instances > 0 && b.de_lists != a.de_lists)) {
    return Layer::kCast;
  }
  if (b.sync_rounds != a.sync_rounds || b.sync_processed != a.sync_processed) {
    return Layer::kSync;
  }
  if (b.de_writes != a.de_writes || b.de_reads != a.de_reads ||
      b.de_lists != a.de_lists || b.de_watch_events != a.de_watch_events ||
      b.de_watch_batches != a.de_watch_batches) {
    return Layer::kObjectDe;
  }
  if (b.log_appends != a.log_appends || b.log_queries != a.log_queries) {
    return Layer::kLogDe;
  }
  if (b.persist_frames != a.persist_frames ||
      b.persist_snapshots != a.persist_snapshots) {
    return Layer::kPersist;
  }
  if (b.sub_matched != a.sub_matched || b.sub_delivered != a.sub_delivered) {
    return Layer::kSubscription;
  }
  if (b.pool_barriers != a.pool_barriers ||
      b.pool_inline_runs != a.pool_inline_runs) {
    return Layer::kPool;
  }
  return generator_ran ? Layer::kGenerator : Layer::kNone;
}

void Attribution::on_step(double wall_ns, bool generator_ran,
                          std::uint64_t request_id) {
  Counters cur;
  workload_.read_counters(&cur);
  const Layer layer = classify(prev_, cur, generator_ran);
  busy_ns_[static_cast<std::size_t>(layer)] += wall_ns;
  if (cur.cast_passes > prev_.cast_passes) {
    const std::uint64_t passes = cur.cast_passes - prev_.cast_passes;
    pass_objects_ += passes * cur.cast_store_objects;
    pass_instances_ += passes * cur.cast_instances;
  }
  prev_ = cur;
  spans_.push_back({SpanKind::kStep, layer, request_id, wall_ns});
}

void Attribution::on_request(bool issued, std::uint64_t request_id,
                             double wall_ns) {
  spans_.push_back({issued ? SpanKind::kIssue : SpanKind::kComplete,
                    Layer::kGenerator, request_id, wall_ns});
}

void Attribution::on_quarter(int /*quarter*/) {
  Probes p;
  workload_.probe(&p);
  quarters_.push_back(p);
}

double Attribution::busy_ms(Layer layer) const {
  return busy_ns_[static_cast<std::size_t>(layer)] / 1e6;
}

void Attribution::add_metrics(const RoundResult& round, Metrics* out) const {
  const Counters& a = base_;
  const Counters& b = prev_;
  const std::uint64_t n = round.completed;
  auto count = [out](const char* name, double v, const char* unit) {
    out->push_back({name, v, unit});
  };

  count("sim.events_per_req", per(round.steps, n), "count/req");
  count("sim.step_us",
        round.steps == 0 ? 0 : round.stepped_wall_ns / 1e3 / round.steps, "us");
  count("sim.max_backlog", static_cast<double>(round.max_backlog), "count");
  count("sim.busy_ms", busy_ms(Layer::kGenerator), "ms");

  const std::uint64_t passes = b.cast_passes - a.cast_passes;
  count("cast.passes_per_req", per(passes, n), "count/req");
  count("cast.busy_ms", busy_ms(Layer::kCast), "ms");
  count("cast.pass_us", passes == 0 ? 0 : busy_ms(Layer::kCast) * 1e3 / passes,
        "us");
  count("cast.snapshot_objects_per_pass", per(pass_objects_, passes), "count");
  count("cast.useful_ratio",
        per(b.cast_fields_written - a.cast_fields_written, pass_instances_),
        "ratio");

  count("sync.rounds_per_req", per(b.sync_rounds - a.sync_rounds, n),
        "count/req");
  count("sync.busy_ms", busy_ms(Layer::kSync), "ms");
  count("sync.processed_per_reading",
        per(b.sync_processed - a.sync_processed, n), "count/req");
  count("sync.moved_per_reading", per(b.sync_moved - a.sync_moved, n),
        "count/req");

  count("log.queries", static_cast<double>(b.log_queries - a.log_queries),
        "count");
  count("log.records_scanned",
        static_cast<double>(b.log_scanned - a.log_scanned), "count");
  count("log.scan_saved",
        static_cast<double>(b.log_scan_saved - a.log_scan_saved), "count");
  count("log.pool_records", static_cast<double>(b.log_pool_records), "count");
  count("log.busy_ms", busy_ms(Layer::kLogDe), "ms");
  count("plan.run_us", mean_probe(quarters_, &Probes::plan_run_ns) / 1e3,
        "us");

  count("de.writes_per_req", per(b.de_writes - a.de_writes, n), "count/req");
  count("de.lists_per_req", per(b.de_lists - a.de_lists, n), "count/req");
  count("de.commit_busy_ms", busy_ms(Layer::kObjectDe), "ms");
  count("de.watch_batches",
        static_cast<double>(b.de_watch_batches - a.de_watch_batches), "count");
  const std::uint64_t coalesced = b.de_coalesced - a.de_coalesced;
  count("de.coalesced_ratio",
        per(coalesced,
            coalesced + (b.de_batched_events - a.de_batched_events)),
        "ratio");

  const std::uint64_t commits =
      (b.de_writes - a.de_writes) + (b.log_appends - a.log_appends);
  count("sub.evaluated_per_commit", per(b.sub_matched - a.sub_matched, commits),
        "count");
  count("sub.selectivity",
        per(b.sub_filtered_passed - a.sub_filtered_passed,
            b.sub_filtered_matched - a.sub_filtered_matched),
        "ratio");
  count("sub.apply_ns", mean_probe(quarters_, &Probes::sub_apply_ns), "ns");
  count("sub.busy_ms", busy_ms(Layer::kSubscription), "ms");

  count("persist.frames",
        static_cast<double>(b.persist_frames - a.persist_frames), "count");
  count("persist.snapshots",
        static_cast<double>(b.persist_snapshots - a.persist_snapshots),
        "count");
  const auto extra = workload_.extra_counts();
  auto extra_of = [&extra](const char* key) {
    auto it = extra.find(key);
    return it == extra.end() ? 0.0 : it->second;
  };
  const double journal_records = extra_of("journal_records");
  count("persist.bytes_per_write",
        journal_records == 0 ? 0 : extra_of("journal_bytes") / journal_records,
        "bytes");
  count("persist.append_us",
        mean_probe(quarters_, &Probes::persist_append_ns) / 1e3, "us");

  count("trace.spans", static_cast<double>(workload_.tracer_spans()), "count");
  count("trace.span_end_us", mean_probe(quarters_, &Probes::span_pair_ns) / 1e3,
        "us");

  count("expr.eval_ns", mean_probe(quarters_, &Probes::expr_eval_ns), "ns");

  count("pool.barriers_per_req", per(b.pool_barriers - a.pool_barriers, n),
        "count/req");
  count("pool.inline_runs_per_req",
        per(b.pool_inline_runs - a.pool_inline_runs, n), "count/req");
  count("pool.epoch_tasks",
        static_cast<double>(b.pool_epoch_tasks - a.pool_epoch_tasks), "count");

  double attributed = 0;
  for (std::size_t i = 0; i < busy_ns_.size(); ++i) {
    if (static_cast<Layer>(i) != Layer::kNone) attributed += busy_ns_[i];
  }
  const double loop_ms = round.loop_s * 1e3;
  count("attrib.wall_ms", loop_ms, "ms");
  count("attrib.residual_ms", loop_ms - attributed / 1e6, "ms");
}

bool Attribution::write_spans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  static const char* kKinds[] = {"step", "issue", "complete"};
  for (const BenchSpan& s : spans_) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "{\"kind\":\"%s\",\"layer\":\"%s\",\"request\":%llu,"
                  "\"wall_ns\":%.0f}\n",
                  kKinds[static_cast<int>(s.kind)], layer_name(s.layer),
                  static_cast<unsigned long long>(s.request_id), s.wall_ns);
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
