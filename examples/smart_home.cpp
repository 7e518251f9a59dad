// The smart-home app (§2 example 2, Fig. 4): House, Motion, and Lamp
// knactors, each with an Object store (configuration) and a Log pool
// (telemetry), composed by a Cast integrator (brightness -> intensity) and
// a Sync integrator (motion/energy telemetry with field renames).
//
// Simulates a day of occupancy, prints the lamp's reaction and the
// house's energy analytics, and demonstrates the sleep-hours access-
// control policy from §3.3.
#include <cstdio>

#include "apps/device_sim.h"
#include "apps/smart_home.h"
#include "common/json.h"

using namespace knactor;
using common::Value;

int main() {
  {
    core::Runtime runtime;
    apps::SmartHomeKnactorApp app = apps::build_smart_home_knactor_app(runtime);
    std::printf("== occupancy simulation ==\n");
    std::printf("%-10s %-8s %-14s\n", "t (s)", "motion", "lamp intensity");
    bool pattern[] = {true, true, false, false, true, false};
    for (bool motion : pattern) {
      app.trigger_motion(motion);
      app.settle();
      runtime.clock().run_until(runtime.clock().now() + 2 * sim::kSecond);
      std::printf("%-10.0f %-8s %-14d\n", sim::to_ms(runtime.clock().now()) / 1000.0,
                  motion ? "yes" : "no", app.lamp_intensity());
    }

    // One more sync round carries the last energy reading across.
    app.settle();
    de::LogQuery energy;
    energy.push_back(de::LogOp::filter("energy > 0").value());
    energy.push_back(de::LogOp::aggregate({}, {{"total_kwh", {"sum", "energy"}},
                                               {"samples", {"count", "energy"}},
                                               {"peak", {"max", "energy"}}}));
    auto report = app.house_log->query_sync("house", energy);
    if (report.ok() && !report.value().empty()) {
      std::printf("\n== house energy analytics (from the Log DE) ==\n  %s\n",
                  common::to_json(*report.value()[0]).c_str());
    }
    de::LogQuery motion_q;
    motion_q.push_back(de::LogOp::filter("motion == true").value());
    auto motions = app.house_log->query_sync("house", motion_q);
    if (motions.ok()) {
      std::printf("  motion events ingested by House: %zu "
                  "(field renamed triggered -> motion by Sync)\n",
                  motions.value().size());
    }
  }

  {
    // A whole simulated day driven by the Digibox-style device simulator:
    // the sensor samples a weekday occupancy pattern; the exchange keeps
    // the lamp tracking it; telemetry flows into the House's log pool.
    std::printf("\n== a simulated weekday (device simulator) ==\n");
    core::Runtime runtime;
    apps::SmartHomeKnactorApp app = apps::build_smart_home_knactor_app(runtime);
    apps::MotionSensorSim::Options options;
    options.period = 10 * 60 * sim::kSecond;  // sample every 10 minutes
    apps::MotionSensorSim sensor(runtime.clock(), *app.motion_store,
                                 app.motion_log,
                                 apps::OccupancyPattern::weekday(), options);
    sensor.start();
    std::printf("%-8s %-10s %-14s\n", "hour", "occupied", "lamp intensity");
    for (int hour : {3, 7, 12, 19, 23}) {
      // Land a few minutes past the hour so the sample taken at the hour
      // boundary has propagated through the exchange.
      runtime.clock().run_until(hour * 3600LL * sim::kSecond +
                                5 * 60 * sim::kSecond);
      // One telemetry sync round. (Not settle()/run_until_idle: the sensor
      // reschedules forever, so the queue never drains.)
      (void)app.sync->run_round_sync();
      std::printf("%02d:00    %-10s %-14d\n", hour,
                  apps::OccupancyPattern::weekday().occupied_at(
                      runtime.clock().now())
                      ? "yes"
                      : "no",
                  app.lamp_intensity());
    }
    sensor.stop();
    std::printf("  sensor samples: %zu, state transitions reported: %zu\n",
                sensor.samples_taken(), sensor.transitions());
    de::LogQuery q;
    q.push_back(de::LogOp::filter("motion == true").value());
    auto rows = app.house_log->query_sync("house", q);
    if (rows.ok()) {
      std::printf("  occupied samples ingested by House's log: %zu\n",
                  rows.value().size());
    }
  }

  {
    std::printf("\n== sleep-hours policy (22:00-06:00): integrator denied ==\n");
    core::Runtime runtime;
    apps::SmartHomeOptions options;
    options.sleep_from = 22LL * 3600 * sim::kSecond;
    options.sleep_to = 6LL * 3600 * sim::kSecond;
    auto app = apps::build_smart_home_knactor_app(runtime, options);

    // It is midnight in the simulation: motion should NOT reach the lamp.
    app.trigger_motion(true);
    app.settle();
    std::printf("  00:00, motion detected -> lamp intensity: %d "
                "(policy held the write back)\n",
                app.lamp_intensity());

    runtime.clock().run_until(8LL * 3600 * sim::kSecond);
    app.trigger_motion(true);
    app.settle();
    std::printf("  08:00, motion detected -> lamp intensity: %d\n",
                app.lamp_intensity());
    std::printf("  RBAC denials recorded by the DE: %llu\n",
                static_cast<unsigned long long>(
                    app.object_de->stats().permission_denials));
  }
  return 0;
}
