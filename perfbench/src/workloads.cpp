// The three workloads, each built through the public app and DE APIs, with
// the reference model its output is checked against.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "apps/fleet_telemetry.h"
#include "apps/ride_hailing.h"
#include "bench.h"
#include "core/runtime.h"
#include "de/persist/engine.h"
#include "de/plan.h"
#include "de/query.h"
#include "de/subscription.h"
#include "expr/parser.h"

namespace perfbench {

namespace {

namespace core = knactor::core;
namespace de = knactor::de;
namespace expr = knactor::expr;
namespace apps = knactor::apps;
namespace sim = knactor::sim;
using knactor::common::CowValue;
using knactor::common::Result;
using knactor::common::SharedValue;
using knactor::common::Value;

// Per-round sizes at scale 1: each the smallest with ten samples beyond
// its tail percentile (p80, p99, p99.9). Small rounds mean many rounds per
// run, each in its own process, which keeps run-to-run spread low. A ride
// round costs the cube of its ride count (NOTES.md, finding 1): 100 rides
// take about 8 s, so a run held only three or four rounds; 50 take about
// 1 s.
constexpr std::uint64_t kRideRequests = 50;
constexpr std::uint64_t kFleetRequests = 1000;
constexpr std::uint64_t kIngestRequests = 10000;

constexpr std::uint64_t kFleetHistory = 3600;  // one reading per second

constexpr int kRideDrivers = 512;
constexpr std::uint64_t kIngestKeys = 8192;
constexpr int kIngestSubscribers = 200;
constexpr std::int64_t kIngestBuckets = 100;  // 1% selectivity per filter
constexpr std::uint64_t kSnapshotEvery = 4096;

/// Resolves expression names against one payload's top-level fields (how
/// subscription filters see a record).
class PayloadEnv : public expr::Env {
 public:
  explicit PayloadEnv(const Value& payload) : payload_(payload) {}
  [[nodiscard]] const Value* resolve(const std::string& name) const override {
    return payload_.get(name);
  }

 private:
  const Value& payload_;
};

/// Mean nanoseconds per call of `fn(i)` over `reps` calls.
template <typename Fn>
double ns_per_call(int reps, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn(i);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / reps;
}

/// Counts subscription accounting over one DE kernel's registry.
void add_subscriptions(const de::Kernel& kernel, Counters* out) {
  for (const auto& [id, info] : kernel.subscriptions()) {
    out->sub_matched += info.matched;
    out->sub_filtered += info.filtered;
    out->sub_delivered += info.delivered;
    if (!info.filter.empty()) {
      out->sub_filtered_matched += info.matched;
      out->sub_filtered_passed += info.matched - info.filtered;
    }
  }
}

void add_object_de(const de::ObjectDeStats& s, Counters* out) {
  out->de_writes += s.writes;
  out->de_reads += s.reads;
  out->de_lists += s.lists;
  out->de_watch_events += s.watch_events;
  out->de_watch_batches += s.watch_batches;
  out->de_batched_events += s.watch_batch_sizes.sum();
  out->de_coalesced += s.watch_events_coalesced;
}

void add_scheduler(const core::SchedulerStats& s, Counters* out) {
  out->pool_barriers = s.barriers;
  out->pool_inline_runs = s.inline_runs;
  out->pool_epoch_tasks = s.epoch_tasks;
}

/// Times `reps` begin/end pairs on the live runtime tracer.
double span_pair_ns(core::Tracer& tracer, int reps) {
  return ns_per_call(reps, [&tracer](int) {
    tracer.end(tracer.begin("perfbench.probe"));
  });
}
constexpr int kSpanProbeReps = 8;

std::uint64_t tracer_span_count(core::Tracer& tracer) {
  return tracer.spans().size();
}

// ---------------------------------------------------------------------------
// ride_hailing
// ---------------------------------------------------------------------------

class RideHailingWorkload : public Workload {
 public:
  RideHailingWorkload(const WorkloadConfig& config, std::uint64_t seed)
      : config_(config) {
    std::uint64_t state = seed ^ 0x51DE;
    ride_base_ = splitmix64(state) % 1000000;
  }

  void setup() override {
    runtime_ = std::make_unique<core::Runtime>();
    apps::RideHailingOptions opts;
    opts.batch_window = 5 * sim::kMillisecond;
    opts.drivers = kRideDrivers;
    opts.shards = config_.shards;
    opts.workers = config_.workers;
    app_ = apps::build_ride_hailing_app(*runtime_, opts);
    // The driver fleet exists before traffic starts.
    for (int d = 0; d < kRideDrivers; ++d) {
      Value driver = Value::object();
      driver.set("home", Value(app_.zone_for(static_cast<std::uint64_t>(d))));
      driver.set("lastRide", Value(nullptr));
      app_.drivers->put("fleet", "driver/driver-" + std::to_string(d),
                        std::move(driver), [](Result<std::uint64_t>) {});
    }
    runtime_->run_until_idle();
    de::SubscriptionSpec spec;
    spec.prefix = "ride/";
    spec.filter = "status == \"assigned\"";
    (void)app_.rides->subscribe(
        "perfbench", std::move(spec), [this](const de::WatchEvent& event) {
          auto it = waiting_.find(event.object.key);
          if (it == waiting_.end()) return;
          auto done = std::move(it->second);
          waiting_.erase(it);
          done();
        });
  }

  sim::VirtualClock& clock() override { return runtime_->clock(); }

  void issue(std::uint64_t index, std::function<void()> done) override {
    // 999983 is prime, so distinct indexes give distinct ride ids.
    const std::uint64_t ride = (ride_base_ + index * 999983ULL) % 1000000ULL;
    issued_.push_back(ride);
    waiting_.emplace("ride/" + std::to_string(ride), std::move(done));
    app_.submit_ride(ride);
  }

  std::uint64_t check(std::vector<std::string>* why) override {
    waiting_.clear();
    std::uint64_t unassigned = 0;
    std::uint64_t wrong_driver = 0;
    for (std::uint64_t ride : issued_) {
      const std::string key = "ride/" + std::to_string(ride);
      const de::StateObject* obj = app_.rides->peek(key);
      const Value* status =
          obj != nullptr && obj->data ? obj->data->get("status") : nullptr;
      if (status == nullptr || !status->is_string() ||
          status->as_string() != "assigned") {
        ++unassigned;
        continue;
      }
      const std::string want =
          "driver-" + std::to_string(fnv1a(key) % kRideDrivers);
      if (app_.driver_of(ride) != want) ++wrong_driver;
    }
    if (unassigned > 0) {
      why->push_back(std::to_string(unassigned) + " rides not assigned");
    }
    if (wrong_driver > 0) {
      why->push_back(std::to_string(wrong_driver) +
                     " rides with the wrong driver");
    }
    return unassigned + wrong_driver;
  }

  void doctor() override {
    if (issued_.empty()) return;
    Value patch = Value::object();
    patch.set("driver", Value("driver-none"));
    (void)app_.rides->patch_sync(
        "perfbench", "ride/" + std::to_string(issued_.front()),
        std::move(patch));
  }

  void read_counters(Counters* out) override {
    const core::CastStats& cs = app_.cast->stats();
    out->cast_passes = cs.passes;
    out->cast_fields_written = cs.fields_written;
    out->cast_store_objects =
        app_.rides->size() + app_.zones->size() + app_.dispatch->size();
    std::uint64_t instances = 0;
    for (const auto& mapping : app_.cast->dxg().mappings()) {
      instances += mapping.fan_out ? app_.rides->size() : 1;
    }
    out->cast_instances = instances;
    add_object_de(app_.de->stats(), out);
    add_subscriptions(app_.de->kernel(), out);
    add_scheduler(runtime_->scheduler().stats(), out);
  }

  void probe(Probes* out) override {
    // One DXG mapping instance (the surge quote) evaluated against an
    // expression environment built from the live stores.
    const core::DxgMapping* quote = nullptr;
    for (const auto& mapping : app_.cast->dxg().mappings()) {
      if (mapping.field == "quoted") quote = &mapping;
    }
    auto alias_value = [](de::ObjectStore& store) {
      Value v = Value::object();
      for (const auto& key : store.keys()) {
        v.set(key, store.peek(key)->data_copy());
      }
      return v;
    };
    const std::vector<std::string> rides = app_.rides->keys();
    if (quote != nullptr && !rides.empty()) {
      expr::MapEnv env;
      env.bind("R", alias_value(*app_.rides));
      env.bind("Z", alias_value(*app_.zones));
      env.bind("X", alias_value(*app_.dispatch));
      env.bind("it", Value(rides[rides.size() / 2]));
      const auto& functions = expr::FunctionRegistry::builtins();
      double sink = 0;
      out->expr_eval_ns = ns_per_call(2000, [&](int) {
        auto r = expr::evaluate(*quote->compiled, env, functions);
        if (r.ok() && r.value().is_number()) sink += r.value().as_number();
      });
      sink_ += sink;
    }
    // The integrator's own watch filter on live ride payloads.
    de::SubscriptionSpec spec;
    spec.prefix = "ride/";
    spec.filter = "status == \"requested\"";
    auto sub = de::CompiledSubscription::compile(std::move(spec));
    std::vector<SharedValue> payloads;
    for (const auto& key : rides) {
      payloads.push_back(app_.rides->peek(key)->data);
    }
    if (sub.ok() && !payloads.empty()) {
      std::size_t passed = 0;
      out->sub_apply_ns = ns_per_call(4000, [&](int i) {
        if (sub.value()->apply(payloads[static_cast<std::size_t>(i) %
                                        payloads.size()])) {
          ++passed;
        }
      });
      sink_ += static_cast<double>(passed);
    }
    out->span_pair_ns = span_pair_ns(runtime_->tracer(), kSpanProbeReps);
    probe_spans_ += kSpanProbeReps;
  }

  std::uint64_t tracer_spans() override {
    return tracer_span_count(runtime_->tracer()) - probe_spans_;
  }

 private:
  WorkloadConfig config_;
  std::uint64_t ride_base_ = 0;
  std::unique_ptr<core::Runtime> runtime_;
  apps::RideHailingApp app_;
  std::unordered_map<std::string, std::function<void()>> waiting_;
  std::vector<std::uint64_t> issued_;
  std::uint64_t probe_spans_ = 0;
  double sink_ = 0;
};

// ---------------------------------------------------------------------------
// fleet_telemetry
// ---------------------------------------------------------------------------

std::int64_t window_start(std::int64_t ts) { return ts - ts % 60; }

std::string group_key(const std::string& device, std::int64_t wstart) {
  return device + "|" + std::to_string(wstart);
}

class FleetTelemetryWorkload : public Workload {
 public:
  FleetTelemetryWorkload(const WorkloadConfig& config, std::uint64_t seed)
      : config_(config) {
    std::uint64_t state = seed ^ 0xF1EE7;
    reading_base_ = kFleetHistory + splitmix64(state) % 1000000000ULL;
  }

  void setup() override {
    runtime_ = std::make_unique<core::Runtime>();
    apps::FleetTelemetryOptions opts;
    opts.push = true;
    opts.shards = config_.shards;
    opts.workers = config_.workers;
    app_ = apps::build_fleet_telemetry_app(*runtime_, opts);
    de::SubscriptionSpec spec;
    (void)app_.rollup->subscribe(
        "perfbench", std::move(spec), [this](const de::LogRecord& rec) {
          on_rollup_row(*rec.data);
        });
    // The readings of the hour before the run, loaded as one batch so a
    // single Sync round rolls them up.
    readings_.clear();
    std::vector<Value> history;
    for (std::uint64_t i = reading_base_ - kFleetHistory; i < reading_base_;
         ++i) {
      readings_.push_back(i);
      history.push_back(app_.reading_for(i));
    }
    (void)app_.readings->append_batch_sync("vehicle", std::move(history));
    runtime_->run_until_idle();
  }

  sim::VirtualClock& clock() override { return runtime_->clock(); }

  void issue(std::uint64_t index, std::function<void()> done) override {
    const std::uint64_t i = reading_base_ + index;
    readings_.push_back(i);
    if (config_.ack_completes) {
      app_.readings->append("vehicle", app_.reading_for(i),
                            [done = std::move(done)](Result<std::uint64_t>) {
                              done();
                            });
      return;
    }
    const auto ts = static_cast<std::int64_t>(i);
    pending_[group_key(app_.device_for(i), window_start(ts))].push_back(
        std::move(done));
    app_.emit_reading(i);
  }

  std::uint64_t check(std::vector<std::string>* why) override {
    pending_.clear();
    // Rollup: per (device, wstart), the row counts sum to the readings.
    std::unordered_map<std::string, std::int64_t> want;
    for (std::uint64_t i : readings_) {
      ++want[group_key(app_.device_for(i),
                       window_start(static_cast<std::int64_t>(i)))];
    }
    std::unordered_map<std::string, std::int64_t> got;
    std::uint64_t malformed = 0;
    for (const auto& rec : app_.rollup->records_after(0)) {
      const Value* device = rec.data->get("device");
      const Value* wstart = rec.data->get("wstart");
      const Value* n = rec.data->get("n");
      if (device == nullptr || !device->is_string() || wstart == nullptr ||
          !wstart->is_number() || n == nullptr || !n->is_number()) {
        ++malformed;
        continue;
      }
      got[group_key(device->as_string(),
                    static_cast<std::int64_t>(wstart->as_number()))] +=
          static_cast<std::int64_t>(n->as_number());
    }
    std::uint64_t bad_groups = 0;
    for (const auto& [group, n] : want) {
      auto it = got.find(group);
      if (it == got.end() || it->second != n) ++bad_groups;
    }
    for (const auto& [group, n] : got) {
      if (want.find(group) == want.end()) ++bad_groups;
    }
    // Alerts: exactly the readings with temp > 90, severity by temp > 110.
    std::map<std::string, int> alerts;
    for (std::uint64_t i : readings_) {
      const Value reading = app_.reading_for(i);
      const double temp = reading.get("temp")->as_number();
      if (temp > 90) {
        ++alerts[alert_key(reading.get("device")->as_string(),
                           static_cast<std::int64_t>(i), temp,
                           temp > 110 ? "critical" : "warning")];
      }
    }
    for (const auto& rec : app_.alerts->records_after(0)) {
      const Value* device = rec.data->get("device");
      const Value* ts = rec.data->get("ts");
      const Value* temp = rec.data->get("temp");
      const Value* severity = rec.data->get("severity");
      if (device == nullptr || !device->is_string() || ts == nullptr ||
          !ts->is_number() || temp == nullptr || !temp->is_number() ||
          severity == nullptr || !severity->is_string()) {
        ++malformed;
        continue;
      }
      --alerts[alert_key(device->as_string(),
                         static_cast<std::int64_t>(ts->as_number()),
                         temp->as_number(), severity->as_string())];
    }
    std::uint64_t bad_alerts = 0;
    for (const auto& [key, n] : alerts) {
      bad_alerts += static_cast<std::uint64_t>(n < 0 ? -n : n);
    }
    if (bad_groups > 0) {
      why->push_back(std::to_string(bad_groups) +
                     " rollup groups whose counts differ from the readings");
    }
    if (bad_alerts > 0) {
      why->push_back(std::to_string(bad_alerts) +
                     " alert rows missing or extra");
    }
    if (malformed > 0) {
      why->push_back(std::to_string(malformed) + " malformed output rows");
    }
    return bad_groups + bad_alerts + malformed;
  }

  void doctor() override {
    const auto rows = app_.rollup->records_after(0);
    if (rows.empty()) return;
    (void)app_.rollup->append_sync("perfbench", *rows.front().data);
  }

  void read_counters(Counters* out) override {
    const core::SyncStats& ss = app_.sync->stats();
    out->sync_rounds = ss.rounds;
    out->sync_processed = ss.records_processed;
    out->sync_moved = ss.records_moved;
    const de::LogDeStats& ls = app_.log_de->stats();
    out->log_appends = ls.appends;
    out->log_queries = ls.queries;
    out->log_scanned = ls.records_scanned;
    out->log_scan_saved = ls.records_scan_saved;
    out->log_pool_records =
        app_.readings->size() + app_.rollup->size() + app_.alerts->size();
    add_subscriptions(app_.log_de->kernel(), out);
    add_scheduler(runtime_->scheduler().stats(), out);
  }

  void probe(Probes* out) override {
    const auto records = app_.readings->records_after(0);
    if (!records.empty()) {
      // The rollup route's fused plan over the newest 64 readings.
      auto pipeline = de::parse_query(knactor::apps::fleet_rollup_pipeline(60));
      if (pipeline.ok()) {
        const de::QueryPlan plan = de::plan_query(pipeline.value());
        const std::size_t n = std::min<std::size_t>(64, records.size());
        std::vector<CowValue> window;
        for (std::size_t i = records.size() - n; i < records.size(); ++i) {
          window.emplace_back(records[i].data);
        }
        std::size_t rows = 0;
        out->plan_run_ns = ns_per_call(200, [&](int) {
          auto r = de::run_plan(plan, window);
          if (r.ok()) rows += r.value().size();
        });
        sink_ += static_cast<double>(rows);
      }
      // The alert route's predicate, as evaluator and as a subscription.
      auto predicate = expr::parse("temp > 90");
      if (predicate.ok()) {
        const auto& functions = expr::FunctionRegistry::builtins();
        std::size_t hits = 0;
        out->expr_eval_ns = ns_per_call(4000, [&](int i) {
          PayloadEnv env(*records[static_cast<std::size_t>(i) % records.size()]
                              .data);
          auto r = expr::evaluate(*predicate.value(), env, functions);
          if (r.ok() && r.value().truthy()) ++hits;
        });
        sink_ += static_cast<double>(hits);
      }
      de::SubscriptionSpec spec;
      spec.filter = "temp > 90";
      auto sub = de::CompiledSubscription::compile(std::move(spec));
      if (sub.ok()) {
        std::size_t passed = 0;
        out->sub_apply_ns = ns_per_call(4000, [&](int i) {
          if (sub.value()->apply(
                  records[static_cast<std::size_t>(i) % records.size()].data)) {
            ++passed;
          }
        });
        sink_ += static_cast<double>(passed);
      }
    }
    out->span_pair_ns = span_pair_ns(runtime_->tracer(), kSpanProbeReps);
    probe_spans_ += kSpanProbeReps;
  }

  std::uint64_t tracer_spans() override {
    return tracer_span_count(runtime_->tracer()) - probe_spans_;
  }

  std::map<std::string, double> extra_counts() override {
    return {{"rollup_rows", static_cast<double>(app_.rollup->size())},
            {"readings", static_cast<double>(readings_.size())}};
  }

 private:
  static std::string alert_key(const std::string& device, std::int64_t ts,
                               double temp, const std::string& severity) {
    return device + "|" + std::to_string(ts) + "|" + std::to_string(temp) +
           "|" + severity;
  }

  void on_rollup_row(const Value& row) {
    const Value* device = row.get("device");
    const Value* wstart = row.get("wstart");
    const Value* n = row.get("n");
    if (device == nullptr || !device->is_string() || wstart == nullptr ||
        !wstart->is_number() || n == nullptr || !n->is_number()) {
      return;
    }
    auto it = pending_.find(group_key(
        device->as_string(), static_cast<std::int64_t>(wstart->as_number())));
    if (it == pending_.end()) return;
    // The row covers `n` readings of the group: complete that many, oldest
    // first. Rows re-emitted for readings already complete find none.
    auto count = static_cast<std::int64_t>(n->as_number());
    while (count-- > 0 && !it->second.empty()) {
      auto done = std::move(it->second.front());
      it->second.pop_front();
      done();
    }
    if (it->second.empty()) pending_.erase(it);
  }

  WorkloadConfig config_;
  std::uint64_t reading_base_ = 0;
  std::unique_ptr<core::Runtime> runtime_;
  apps::FleetTelemetryApp app_;
  std::unordered_map<std::string, std::deque<std::function<void()>>> pending_;
  std::vector<std::uint64_t> readings_;  // history and issued readings
  std::uint64_t probe_spans_ = 0;
  double sink_ = 0;
};

// ---------------------------------------------------------------------------
// durable_ingest
// ---------------------------------------------------------------------------

class DurableIngestWorkload : public Workload {
 public:
  DurableIngestWorkload(const WorkloadConfig& config, std::uint64_t seed)
      : config_(config), seed_(seed) {
    static int instance = 0;
    dir_ = config_.data_dir + "/durable-" + std::to_string(instance++);
  }

  ~DurableIngestWorkload() override {
    // Tear the composition down before its journal directory goes away.
    runtime_.reset();
    engine_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  DurableIngestWorkload(const DurableIngestWorkload&) = delete;
  DurableIngestWorkload& operator=(const DurableIngestWorkload&) = delete;

  void setup() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    runtime_ = std::make_unique<core::Runtime>();
    runtime_->set_shards(config_.shards);
    runtime_->set_workers(config_.workers);
    de::ObjectDeProfile profile = de::ObjectDeProfile::redis();
    profile.durable = true;
    de_ = &runtime_->add_object_de("ingest", profile);
    engine_ = std::make_unique<de::persist::Engine>(
        de::persist::EngineOptions{dir_, kSnapshotEvery});
    if (!de_->enable_persistence(engine_.get()).ok()) {
      setup_failed_ = true;
      return;
    }
    store_ = &de_->create_store("devices");
    // Pre-populate the key space (journaled like any other write).
    writes_.clear();
    for (std::uint64_t k = 0; k < kIngestKeys; ++k) {
      Write w{key_name(k), payload(k, -1, static_cast<std::int64_t>(k) % 100)};
      const std::size_t slot = writes_.size();
      writes_.push_back(std::move(w));
      store_->put("loader", writes_[slot].key, *writes_[slot].data,
                  [this, slot](Result<std::uint64_t> r) {
                    if (r.ok()) writes_[slot].version = r.value();
                  });
    }
    runtime_->run_until_idle();
    prepopulated_ = writes_.size();

    received_.assign(kIngestSubscribers, {});
    for (int s = 0; s < kIngestSubscribers; ++s) {
      de::SubscriptionSpec spec;
      spec.prefix = "dev/";
      spec.filter = "bucket == " + std::to_string(s % kIngestBuckets);
      (void)store_->subscribe(
          "watcher-" + std::to_string(s), std::move(spec),
          [this, s](const de::WatchEvent& event) {
            received_[static_cast<std::size_t>(s)].push_back(
                event.object.data->get("seq")->as_int());
          });
    }
    de::SubscriptionSpec all;
    all.prefix = "dev/";
    all.qos.window = 5 * sim::kMillisecond;
    (void)store_->subscribe_batch("observer", std::move(all),
                                  [this](const de::WatchBatch& batch) {
                                    observed_commits_ += batch.commits;
                                  });

    std::uint64_t state = seed_ ^ 0xD0AB1E;
    plan_.clear();
    plan_.reserve(config_.requests);
    for (std::uint64_t i = 0; i < config_.requests; ++i) {
      const std::uint64_t key = splitmix64(state) % kIngestKeys;
      const auto bucket =
          static_cast<std::int64_t>(splitmix64(state) % kIngestBuckets);
      plan_.push_back({key, bucket});
    }
  }

  sim::VirtualClock& clock() override { return runtime_->clock(); }

  void issue(std::uint64_t index, std::function<void()> done) override {
    if (setup_failed_) return;
    const auto [key, bucket] = plan_[index];
    const std::size_t slot = writes_.size();
    writes_.push_back({key_name(key),
                       payload(key, static_cast<std::int64_t>(index), bucket)});
    acks_pending_.emplace(slot, std::move(done));
    store_->put("device", writes_[slot].key, *writes_[slot].data,
                [this, slot](Result<std::uint64_t> r) {
                  if (r.ok()) {
                    writes_[slot].version = r.value();
                  } else {
                    ++failed_puts_;
                  }
                  auto it = acks_pending_.find(slot);
                  if (it == acks_pending_.end()) return;
                  auto done = std::move(it->second);
                  acks_pending_.erase(it);
                  done();
                });
  }

  std::uint64_t check(std::vector<std::string>* why) override {
    acks_pending_.clear();
    if (setup_failed_) {
      why->push_back("persistence could not be enabled");
      return 1;
    }
    // Final store: the acked write with the highest version, per key.
    std::map<std::string, const Write*> last;
    for (const Write& w : writes_) {
      if (w.version == 0) continue;
      const Write*& cur = last[w.key];
      if (cur == nullptr || w.version > cur->version) cur = &w;
    }
    std::uint64_t bad_keys = 0;
    for (const auto& [key, w] : last) {
      const de::StateObject* obj = store_->peek(key);
      if (obj == nullptr || obj->version != w->version || !obj->data ||
          !(*obj->data == *w->data)) {
        ++bad_keys;
      }
    }
    if (store_->size() != last.size()) ++bad_keys;
    // Deliveries: each subscriber saw exactly its bucket's commits.
    std::vector<std::vector<std::int64_t>> want(kIngestBuckets);
    for (std::size_t i = prepopulated_; i < writes_.size(); ++i) {
      if (writes_[i].version == 0) continue;
      want[static_cast<std::size_t>(writes_[i].data->get("bucket")->as_int())]
          .push_back(writes_[i].data->get("seq")->as_int());
    }
    for (auto& w : want) std::sort(w.begin(), w.end());
    std::uint64_t bad_subscribers = 0;
    for (std::size_t s = 0; s < received_.size(); ++s) {
      std::vector<std::int64_t> got = received_[s];
      std::sort(got.begin(), got.end());
      if (got != want[s % kIngestBuckets]) ++bad_subscribers;
    }
    // Recovery: a fresh engine over the journal rebuilds the same image.
    std::uint64_t bad_recovery = 0;
    de::persist::Engine fresh(de::persist::EngineOptions{dir_, 0});
    auto image = fresh.recover();
    if (!image.ok()) {
      bad_recovery = 1;
    } else {
      std::uint64_t matched = 0;
      for (const auto& store_image : image.value().stores) {
        if (store_image.name != store_->name()) continue;
        for (const auto& obj : store_image.objects) {
          const de::StateObject* live = store_->peek(obj.key);
          if (live != nullptr && live->version == obj.version && obj.data &&
              live->data && *live->data == *obj.data) {
            ++matched;
          } else {
            ++bad_recovery;
          }
        }
      }
      if (matched != store_->size()) ++bad_recovery;
    }
    if (bad_keys > 0) {
      why->push_back(std::to_string(bad_keys) +
                     " keys differ from their last acked write");
    }
    if (bad_subscribers > 0) {
      why->push_back(std::to_string(bad_subscribers) +
                     " subscribers did not receive exactly their bucket");
    }
    if (bad_recovery > 0) {
      why->push_back(std::to_string(bad_recovery) +
                     " objects differ after recovering the journal");
    }
    if (failed_puts_ > 0) {
      why->push_back(std::to_string(failed_puts_) + " puts failed");
    }
    return bad_keys + bad_subscribers + bad_recovery + failed_puts_;
  }

  void doctor() override {
    for (auto& got : received_) {
      if (!got.empty()) {
        got.pop_back();
        return;
      }
    }
  }

  void read_counters(Counters* out) override {
    add_object_de(de_->stats(), out);
    add_subscriptions(de_->kernel(), out);
    const de::persist::EngineStats& ps = engine_->stats();
    out->persist_frames = ps.appends;
    out->persist_snapshots = ps.snapshots;
    add_scheduler(runtime_->scheduler().stats(), out);
  }

  void probe(Probes* out) override {
    const std::vector<std::string> keys = store_->keys();
    std::vector<SharedValue> payloads;
    for (std::size_t i = 0; i < keys.size(); i += 7) {
      payloads.push_back(store_->peek(keys[i])->data);
    }
    if (!payloads.empty()) {
      de::SubscriptionSpec spec;
      spec.prefix = "dev/";
      spec.filter = "bucket == 7";
      auto sub = de::CompiledSubscription::compile(std::move(spec));
      if (sub.ok()) {
        std::size_t passed = 0;
        out->sub_apply_ns = ns_per_call(20000, [&](int i) {
          if (sub.value()->apply(
                  payloads[static_cast<std::size_t>(i) % payloads.size()])) {
            ++passed;
          }
        });
        sink_ += static_cast<double>(passed);
      }
      auto predicate = expr::parse("bucket == 7");
      if (predicate.ok()) {
        const auto& functions = expr::FunctionRegistry::builtins();
        std::size_t hits = 0;
        out->expr_eval_ns = ns_per_call(20000, [&](int i) {
          PayloadEnv env(
              *payloads[static_cast<std::size_t>(i) % payloads.size()]);
          auto r = expr::evaluate(*predicate.value(), env, functions);
          if (r.ok() && r.value().truthy()) ++hits;
        });
        sink_ += static_cast<double>(hits);
      }
      // Journal appends of a live record on a scratch engine.
      const std::string scratch = dir_ + "-probe";
      std::error_code ec;
      std::filesystem::remove_all(scratch, ec);
      {
        de::persist::Engine engine(de::persist::EngineOptions{scratch, 0});
        if (engine.open().ok()) {
          const de::StateObject* obj = store_->peek(keys.front());
          std::string rec;
          de::persist::encode_put(rec, store_->name(), obj->key, obj->version,
                                  obj->created_at, obj->updated_at, *obj->data);
          std::size_t ok = 0;
          out->persist_append_ns = ns_per_call(256, [&](int i) {
            if (engine.append_batch({rec}, 1, static_cast<std::uint64_t>(i) + 2,
                                    static_cast<std::uint64_t>(i) + 1)
                    .ok()) {
              ++ok;
            }
          });
          sink_ += static_cast<double>(ok);
        }
      }
      std::filesystem::remove_all(scratch, ec);
    }
    out->span_pair_ns = span_pair_ns(runtime_->tracer(), kSpanProbeReps);
    probe_spans_ += kSpanProbeReps;
  }

  std::uint64_t tracer_spans() override {
    return tracer_span_count(runtime_->tracer()) - probe_spans_;
  }

  std::map<std::string, double> extra_counts() override {
    std::uint64_t journal_bytes = 0;
    for (const auto& gen : de::persist::Engine::inspect(dir_)) {
      journal_bytes += gen.journal_bytes;
    }
    const std::uint64_t records = engine_->stats().records_appended;
    return {{"journal_bytes", static_cast<double>(journal_bytes)},
            {"journal_records", static_cast<double>(records)},
            {"observed_commits", static_cast<double>(observed_commits_)}};
  }

 private:
  struct Write {
    std::string key;
    SharedValue data;
    std::uint64_t version = 0;  // 0 until acked
  };

  static std::string key_name(std::uint64_t k) {
    return "dev/" + std::to_string(k);
  }

  static SharedValue payload(std::uint64_t key, std::int64_t seq,
                             std::int64_t bucket) {
    Value v = Value::object();
    v.set("device", Value("device-" + std::to_string(key)));
    v.set("seq", Value(seq));
    v.set("bucket", Value(bucket));
    const auto step = static_cast<std::uint64_t>(seq + 1);
    v.set("reading",
          Value(static_cast<double>((key * 31 + step * 17) % 1000) / 10.0));
    v.set("status", Value("ok"));
    return std::make_shared<const Value>(std::move(v));
  }

  WorkloadConfig config_;
  std::uint64_t seed_ = 0;
  std::string dir_;
  std::unique_ptr<core::Runtime> runtime_;
  std::unique_ptr<de::persist::Engine> engine_;
  de::ObjectDe* de_ = nullptr;
  de::ObjectStore* store_ = nullptr;
  bool setup_failed_ = false;
  std::vector<std::pair<std::uint64_t, std::int64_t>> plan_;  // key, bucket
  std::vector<Write> writes_;
  std::size_t prepopulated_ = 0;
  std::unordered_map<std::size_t, std::function<void()>> acks_pending_;
  std::vector<std::vector<std::int64_t>> received_;
  std::uint64_t observed_commits_ = 0;
  std::uint64_t failed_puts_ = 0;
  std::uint64_t probe_spans_ = 0;
  double sink_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "ride_hailing", "fleet_telemetry", "durable_ingest"};
  return names;
}

bool workload_config(const std::string& name, double scale,
                     const std::string& data_dir, WorkloadConfig* out) {
  auto scaled = [scale](std::uint64_t n) {
    return std::max<std::uint64_t>(
        20, static_cast<std::uint64_t>(std::llround(static_cast<double>(n) *
                                                    scale)));
  };
  WorkloadConfig c;
  c.name = name;
  c.data_dir = data_dir;
  if (name == "ride_hailing") {
    c.requests = scaled(kRideRequests);
    c.rate_rps = 140;
    c.max_in_flight = 4;
    c.arrivals = WorkloadConfig::Arrivals::kJittered;
  } else if (name == "fleet_telemetry") {
    c.requests = scaled(kFleetRequests);
    c.rate_rps = 100;
    c.max_in_flight = 4;
    c.arrivals = WorkloadConfig::Arrivals::kJittered;
  } else if (name == "durable_ingest") {
    c.requests = scaled(kIngestRequests);
    c.rate_rps = 10000;
    c.max_in_flight = 64;
    c.shards = 4;
    const unsigned hw = std::thread::hardware_concurrency();
    c.workers = static_cast<int>(std::clamp(hw, 1U, 4U));
  } else {
    return false;
  }
  *out = c;
  return true;
}

std::unique_ptr<Workload> make_workload(const WorkloadConfig& config,
                                        std::uint64_t seed) {
  if (config.name == "ride_hailing") {
    return std::make_unique<RideHailingWorkload>(config, seed);
  }
  if (config.name == "fleet_telemetry") {
    return std::make_unique<FleetTelemetryWorkload>(config, seed);
  }
  if (config.name == "durable_ingest") {
    return std::make_unique<DurableIngestWorkload>(config, seed);
  }
  return nullptr;
}

}  // namespace perfbench
