// Ride-hailing match/dispatch pipeline (ROADMAP open item 3): an Object-DE,
// Cast-heavy composition with deliberate hot-key contention.
//
// Four stores on one Object DE:
//   * ride-requests  — `ride/<id>` riders asking for a car (keyspace ~1M)
//   * ride-zones     — `zone/<z>` per-zone demand counters + surge factor.
//     A handful of busy zones take most of the traffic, so these objects
//     are the composition's deliberate hot keys: every submitted ride
//     patches its zone's demand counter.
//   * ride-dispatch  — `ride/<id>` dispatch decisions (driver, surge fare)
//   * ride-drivers   — `driver/<d>` fleet state (capacity bookkeeping)
//
// The Cast integrator fans out (`X.* / $for: R ride/`): every ride request
// produces a dispatch request carrying the rider's zone and the zone's
// current surge; the dispatch knactor assigns a driver; the assignment
// flows back into the ride object (`R.* <- X.*`). `Watch:` clauses filter
// the integrator's subscriptions — only rides still waiting and only
// surging zones wake it.
#pragma once

#include <cstdint>
#include <string>

#include "core/runtime.h"

namespace knactor::apps {

struct RideHailingOptions {
  de::ObjectDeProfile de_profile = de::ObjectDeProfile::redis();
  /// Number of zones in the city; zone 0..2 are the busy ones.
  int zones = 64;
  /// Fraction of rides (per mille) that land in the three busy zones.
  int hot_per_mille = 700;
  /// Driver fleet size (driver ids are assigned round-robin-by-hash).
  int drivers = 512;
  /// Server-side watch-batch window for the Cast integrator (0 = a pass
  /// per event). The open-loop bench sets this to amortize convergence.
  sim::SimTime batch_window = 0;
  /// Exchange-pass retry policy (chaos resilience; off by default).
  sim::RetryPolicy integrator_retry;
  /// Ignored (a DE store is one ordered map); kept only for perfbench.
  std::size_t shards = 1;
  /// Ignored (there is no worker pool); kept only for perfbench.
  int workers = 1;
};

struct RideHailingApp {
  core::Runtime* runtime = nullptr;
  de::ObjectDe* de = nullptr;
  core::CastIntegrator* cast = nullptr;
  de::ObjectStore* rides = nullptr;
  de::ObjectStore* zones = nullptr;
  de::ObjectStore* dispatch = nullptr;
  de::ObjectStore* drivers = nullptr;
  RideHailingOptions options;

  /// The zone a ride id lands in: deterministic, skewed so that
  /// `hot_per_mille` of traffic hits zones 0-2 (the hot keys).
  [[nodiscard]] std::string zone_for(std::uint64_t ride_id) const;

  /// Submits one ride request asynchronously: writes `ride/<id>` and
  /// bumps the zone's demand counter (the hot-key write). Does not drive
  /// the clock.
  void submit_ride(std::uint64_t ride_id);

  /// Rides whose request object carries an assigned driver.
  [[nodiscard]] std::size_t assigned_count() const;
  /// The ride's assigned driver, or "" while unassigned.
  [[nodiscard]] std::string driver_of(std::uint64_t ride_id) const;

  /// Drives the clock until idle.
  void settle();
};

/// Builds the composition into `runtime` (which must outlive the handles).
RideHailingApp build_ride_hailing_app(core::Runtime& runtime,
                                      RideHailingOptions options = {});

/// The in-repo DXG the app runs — also the source of truth for
/// specs/ride_hailing_dxg.yaml (same mappings, schema-id aliases).
const char* ride_hailing_dxg();

}  // namespace knactor::apps
