// Runtime: owns the virtual clock and hosts data exchanges, knactors, and
// integrators for one simulated deployment. This is the top-level entry
// point of the public API — see examples/quickstart.cpp.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cast.h"
#include "core/integrator.h"
#include "core/knactor.h"
#include "core/scheduler.h"
#include "core/sync.h"
#include "core/trace.h"
#include "de/log.h"
#include "de/object.h"
#include "de/retention.h"
#include "de/schema.h"
#include "net/network.h"
#include "sim/clock.h"

namespace knactor::core {

/// Bridges a network's chaos fault stream into span/counter telemetry:
/// every injected fault becomes a `chaos.fault` Tracer span and bumps the
/// `chaos.fault` / `chaos.fault.<kind>` Metrics counters. Runtime wires this
/// automatically for its own network; standalone networks (e.g. the RPC
/// baseline apps) can attach it explicitly.
void attach_fault_observer(net::SimNetwork& network, Tracer* tracer,
                           Metrics* metrics);

/// Result of Runtime::run_until_idle. Converts to the executed count so
/// existing `std::size_t n = rt.run_until_idle()` callers keep working;
/// `capped` surfaces whether the max_events safety cap stopped the run
/// with events still pending (previously indistinguishable from idle).
struct RunResult {
  std::size_t executed = 0;
  bool capped = false;
  operator std::size_t() const { return executed; }
};

class Runtime {
 public:
  Runtime() : tracer_(clock_) {}

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] sim::VirtualClock& clock() { return clock_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] Metrics& metrics() { return metrics_; }

  /// The scheduler: holds how many shards each hosted DE's key space
  /// partitions into. Deterministic: observable behavior is identical for
  /// every shard count (fixed seed).
  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  /// Re-partitions every hosted DE (current and future) into `n` shards.
  void set_shards(std::size_t n);
  /// Ignored (shard work always runs on the calling thread); kept only for
  /// perfbench.
  void set_workers(int /*n*/) {}

  /// Enables record-level lineage on every hosted DE (current and future):
  /// each DE kernel's provenance ring retains up to `capacity` derived-write
  /// records, and integrators start snapshotting the inputs of each write
  /// (see core/causality.h). Capacity 0 disables recording again.
  void enable_lineage(std::size_t capacity = 1024);
  [[nodiscard]] std::size_t lineage_capacity() const {
    return lineage_capacity_;
  }

  /// Creates a named Object DE with the given profile.
  de::ObjectDe& add_object_de(const std::string& name,
                              de::ObjectDeProfile profile);
  [[nodiscard]] de::ObjectDe* object_de(const std::string& name);

  de::LogDe& add_log_de(const std::string& name, de::LogDeProfile profile);
  [[nodiscard]] de::LogDe* log_de(const std::string& name);

  /// Simulated network for API-centric baselines hosted side by side.
  [[nodiscard]] net::SimNetwork& network();

  /// Registers a knactor. The runtime owns it.
  Knactor& add_knactor(std::unique_ptr<Knactor> knactor);
  [[nodiscard]] Knactor* knactor(const std::string& name);

  /// Registers an integrator. The runtime owns it.
  Integrator& add_integrator(std::unique_ptr<Integrator> integrator);
  [[nodiscard]] Integrator* integrator(const std::string& name);
  [[nodiscard]] CastIntegrator* cast(const std::string& name);
  [[nodiscard]] SyncIntegrator* sync(const std::string& name);

  /// Global schema registry (the Externalize step registers here).
  [[nodiscard]] de::SchemaRegistry& schemas() { return schemas_; }

  /// Starts every knactor and integrator.
  common::Status start_all();
  void stop_all();

  /// Drives the clock until no events remain or the max_events safety cap
  /// hits. A capped run logs a warning, bumps the `runtime.run_capped`
  /// metric, and reports `capped = true` on the result.
  RunResult run_until_idle(std::size_t max_events = 1'000'000);
  /// Drives the clock for a fixed sim duration.
  void run_for(sim::SimTime duration);

 private:
  sim::VirtualClock clock_;
  Tracer tracer_;
  Metrics metrics_;
  Scheduler scheduler_;
  std::size_t lineage_capacity_ = 0;  // 0 = lineage off
  de::SchemaRegistry schemas_;
  std::map<std::string, std::unique_ptr<de::ObjectDe>> object_des_;
  std::map<std::string, std::unique_ptr<de::LogDe>> log_des_;
  std::unique_ptr<net::SimNetwork> network_;
  std::vector<std::unique_ptr<Knactor>> knactors_;
  std::vector<std::unique_ptr<Integrator>> integrators_;
};

}  // namespace knactor::core
