// Smart-home app (§2 example 2, Fig. 4): House, Motion, Lamp.
//
// Knactor form: each knactor has two data stores — one on an Object DE
// (configuration: lamp intensity/brightness, motion sensitivity) and one
// on a Log DE (telemetry: motion readings, energy kwh). A Sync integrator
// moves telemetry (renaming Motion's "triggered" field to "motion" before
// loading into House's pool); a Cast integrator maps House's desired
// brightness to Lamp's intensity and aggregates energy.
//
// Pub/Sub form (baseline): the three services talk through a broker —
// House subscribes to the motion topic and publishes brightness commands
// to the lamp topic, with schemas agreed out of band.
#pragma once

#include <memory>
#include <string>

#include "core/runtime.h"
#include "net/broker.h"

namespace knactor::apps {

struct SmartHomeOptions {
  de::ObjectDeProfile object_profile = de::ObjectDeProfile::redis();
  de::LogDeProfile log_profile = de::LogDeProfile::zed();
  /// Motion sensor emits a reading every this often.
  sim::SimTime sensor_period = 2 * sim::kSecond;
  /// Sync integrator round interval.
  sim::SimTime sync_interval = 1 * sim::kSecond;
  /// Block House from driving the Lamp during these hours (the paper's
  /// access-control example); disabled when from==to.
  sim::SimTime sleep_from = 0;
  sim::SimTime sleep_to = 0;
};

struct SmartHomeKnactorApp {
  core::Runtime* runtime = nullptr;
  de::ObjectDe* object_de = nullptr;
  de::LogDe* log_de = nullptr;
  core::CastIntegrator* cast = nullptr;
  core::SyncIntegrator* sync = nullptr;
  de::ObjectStore* house_store = nullptr;
  de::ObjectStore* lamp_store = nullptr;
  de::ObjectStore* motion_store = nullptr;
  de::LogPool* house_log = nullptr;
  de::LogPool* motion_log = nullptr;
  de::LogPool* lamp_log = nullptr;

  /// Injects a motion reading as the sensor would.
  void trigger_motion(bool triggered);
  /// Runs one telemetry sync round + exchange passes.
  void settle();
  /// Lamp's current intensity (0-100), or -1 when unset.
  [[nodiscard]] int lamp_intensity() const;
};

SmartHomeKnactorApp build_smart_home_knactor_app(core::Runtime& runtime,
                                                 SmartHomeOptions options = {});

/// The Pub/Sub baseline.
class SmartHomePubSubApp {
 public:
  SmartHomePubSubApp(sim::VirtualClock& clock,
                     sim::LatencyModel link = sim::LatencyModel::normal_ms(
                         0.45, 0.04));

  void trigger_motion(bool triggered);
  [[nodiscard]] int lamp_intensity() const { return lamp_intensity_; }
  [[nodiscard]] double house_kwh() const { return house_kwh_; }
  [[nodiscard]] net::Broker& broker() { return *broker_; }

 private:
  sim::VirtualClock& clock_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<net::Broker> broker_;
  int lamp_intensity_ = -1;
  double house_kwh_ = 0;
};

}  // namespace knactor::apps
