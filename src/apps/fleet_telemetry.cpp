#include "apps/fleet_telemetry.h"

#include "common/logging.h"
#include "de/query.h"

namespace knactor::apps {

using common::Result;
using common::Value;

std::string fleet_rollup_pipeline(double window_seconds) {
  std::string width;
  if (window_seconds ==
      static_cast<double>(static_cast<std::int64_t>(window_seconds))) {
    width = std::to_string(static_cast<std::int64_t>(window_seconds));
  } else {
    width = std::to_string(window_seconds);
  }
  return "window wstart := ts every " + width +
         " | summarize n=count(ts), avg_speed=avg(speed), "
         "max_temp=max(temp) by device, wstart";
}

const char* fleet_alert_pipeline() {
  return "where temp > 90"
         " | put severity := \"critical\" if temp > 110 else \"warning\""
         " | cut device, ts, temp, severity";
}

FleetTelemetryApp build_fleet_telemetry_app(core::Runtime& runtime,
                                            FleetTelemetryOptions options) {
  FleetTelemetryApp app;
  app.runtime = &runtime;
  app.options = options;

  runtime.set_shards(options.shards);
  de::LogDe& lde = runtime.add_log_de("fleet", options.log_profile);
  app.log_de = &lde;

  de::LogPool& readings = lde.create_pool("fleet-readings");
  de::LogPool& rollup = lde.create_pool("fleet-rollup");
  de::LogPool& alerts = lde.create_pool("fleet-alerts");
  app.readings = &readings;
  app.rollup = &rollup;
  app.alerts = &alerts;

  core::SyncIntegrator::Options sopts;
  sopts.interval = 0;  // manual or push-driven rounds, never a free tick
  sopts.push = options.push;
  sopts.retry = options.sync_retry;
  auto sync = std::make_unique<core::SyncIntegrator>("fleet-rollup", lde,
                                                     sopts,
                                                     &runtime.tracer());
  {
    core::SyncRoute route;
    route.name = "readings-to-rollup";
    auto pipeline = de::parse_query(fleet_rollup_pipeline(
        options.window_seconds));
    if (!pipeline.ok()) {
      KN_ERROR << "fleet-telemetry: rollup pipeline parse failed: "
               << pipeline.error().to_string();
      return app;
    }
    route.source = &readings;
    route.target = &rollup;
    route.pipeline = pipeline.take();
    (void)sync->add_route(std::move(route));
  }
  {
    core::SyncRoute route;
    route.name = "overheat-alerts";
    auto pipeline = de::parse_query(fleet_alert_pipeline());
    if (!pipeline.ok()) {
      KN_ERROR << "fleet-telemetry: alert pipeline parse failed: "
               << pipeline.error().to_string();
      return app;
    }
    route.source = &readings;
    route.target = &alerts;
    route.pipeline = pipeline.take();
    (void)sync->add_route(std::move(route));
  }
  app.sync = sync.get();
  runtime.add_integrator(std::move(sync));

  auto started = runtime.start_all();
  if (!started.ok()) {
    KN_ERROR << "fleet-telemetry: start failed: "
             << started.error().to_string();
  }
  runtime.run_until_idle();
  return app;
}

std::string FleetTelemetryApp::device_for(std::uint64_t i) const {
  // Golden-ratio multiplicative spread: consecutive sequence numbers land
  // on well-separated ids across the ~1M-device space, deterministically.
  const std::uint64_t space =
      options.device_space == 0 ? 1 : options.device_space;
  return "dev-" + std::to_string((i * 11400714819323198485ULL) % space);
}

Value FleetTelemetryApp::reading_for(std::uint64_t i) const {
  Value r = Value::object();
  r.set("device", Value(device_for(i)));
  r.set("ts", Value(static_cast<std::int64_t>(i)));  // one reading/second
  r.set("speed", Value(static_cast<double>((i * 7) % 140)));
  // Cycles through 60..119: a tail crosses the alert (>90) and critical
  // (>110) thresholds.
  r.set("temp", Value(static_cast<double>(60 + i % 60)));
  return r;
}

void FleetTelemetryApp::emit_reading(std::uint64_t i) {
  if (readings == nullptr) return;
  readings->append("vehicle", reading_for(i), [](Result<std::uint64_t>) {});
}

Result<std::size_t> FleetTelemetryApp::run_rollup_round() {
  if (sync == nullptr) {
    return common::Error::failed_precondition("fleet app not built");
  }
  return sync->run_round_sync();
}

std::size_t FleetTelemetryApp::rollup_count() const {
  return rollup == nullptr ? 0 : rollup->size();
}

std::size_t FleetTelemetryApp::alert_count() const {
  return alerts == nullptr ? 0 : alerts->size();
}

void FleetTelemetryApp::settle() {
  if (runtime != nullptr) runtime->run_until_idle();
}

}  // namespace knactor::apps
