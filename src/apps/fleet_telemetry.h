// IoT fleet telemetry rollup (ROADMAP open item 3): a Log-DE, Sync-heavy
// composition with windowed aggregation through the fused query planner —
// the DataX-style stream-transformation shape.
//
// Three pools on one Log DE:
//   * fleet-readings — raw per-vehicle samples {device, ts, speed, temp}
//     from a ~1M-device id space
//   * fleet-rollup   — per-device per-window aggregates, produced by a
//     Sync route whose pipeline time-buckets with the record-local
//     `window` operator and then aggregates:
//       window wstart := ts every 60
//         | summarize n=..., avg_speed=..., max_temp=... by device, wstart
//     The window stage fuses into the scan; the summarize barrier runs
//     once per sync round (mini-batch tumbling rollup).
//   * fleet-alerts   — overheat readings, filtered + severity-tagged
//
// specs/fleet_telemetry_sync.yaml is the lintable twin of the two routes.
#pragma once

#include <cstdint>
#include <string>

#include "core/runtime.h"

namespace knactor::apps {

struct FleetTelemetryOptions {
  de::LogDeProfile log_profile = de::LogDeProfile::zed();
  /// Rollup window width in the readings' `ts` unit (seconds).
  double window_seconds = 60;
  /// Vehicle id space (device ids spread deterministically over it).
  std::uint64_t device_space = 1000000;
  /// Push-driven sync rounds (appends schedule rounds; no periodic tick).
  bool push = false;
  /// Round retry policy (chaos resilience; off by default).
  sim::RetryPolicy sync_retry;
  /// Ignored (a DE store is one ordered map); kept only for perfbench.
  std::size_t shards = 1;
  /// Ignored (there is no worker pool); kept only for perfbench.
  int workers = 1;
};

struct FleetTelemetryApp {
  core::Runtime* runtime = nullptr;
  de::LogDe* log_de = nullptr;
  core::SyncIntegrator* sync = nullptr;
  de::LogPool* readings = nullptr;
  de::LogPool* rollup = nullptr;
  de::LogPool* alerts = nullptr;
  FleetTelemetryOptions options;

  /// The deterministic reading for sequence number `i`: device spread over
  /// the id space, ts advancing one second per reading, speed/temp cycling
  /// so some readings cross the alert thresholds.
  [[nodiscard]] common::Value reading_for(std::uint64_t i) const;
  /// Device id for sequence number `i` ("dev-<n>").
  [[nodiscard]] std::string device_for(std::uint64_t i) const;

  /// Appends reading `i` asynchronously; does not drive the clock.
  void emit_reading(std::uint64_t i);

  /// Runs one sync round over both routes (rollup + alerts).
  common::Result<std::size_t> run_rollup_round();

  [[nodiscard]] std::size_t rollup_count() const;
  [[nodiscard]] std::size_t alert_count() const;

  void settle();
};

FleetTelemetryApp build_fleet_telemetry_app(core::Runtime& runtime,
                                            FleetTelemetryOptions options = {});

/// The rollup route's pipeline text (windowed aggregation) — also the
/// source of truth for specs/fleet_telemetry_sync.yaml.
std::string fleet_rollup_pipeline(double window_seconds);
/// The alert route's pipeline text.
const char* fleet_alert_pipeline();

}  // namespace knactor::apps
