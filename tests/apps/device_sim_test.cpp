#include "apps/device_sim.h"

#include <gtest/gtest.h>

#include "apps/smart_home.h"
#include "de/query.h"

namespace knactor::apps {
namespace {

using common::Value;

constexpr sim::SimTime kHour = 3600 * sim::kSecond;

TEST(OccupancyPattern, Windows) {
  OccupancyPattern p = OccupancyPattern::weekday();
  EXPECT_FALSE(p.occupied_at(3 * kHour));   // 03:00
  EXPECT_TRUE(p.occupied_at(7 * kHour));    // 07:00 morning window
  EXPECT_FALSE(p.occupied_at(12 * kHour));  // noon
  EXPECT_TRUE(p.occupied_at(20 * kHour));   // evening window
  EXPECT_FALSE(p.occupied_at(23 * kHour + 30 * 60 * sim::kSecond));
  // Same time next day.
  EXPECT_TRUE(p.occupied_at(24 * kHour + 7 * kHour));
}

TEST(OccupancyPattern, EdgePatterns) {
  EXPECT_FALSE(OccupancyPattern::empty().occupied_at(12 * kHour));
  EXPECT_TRUE(OccupancyPattern::always().occupied_at(12 * kHour));
  EXPECT_TRUE(OccupancyPattern::always().occupied_at(0));
}

TEST(MotionSensorSim, ReportsTransitionsOnly) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("knactor-motion");
  OccupancyPattern pattern;
  pattern.windows.push_back({2 * kHour, 4 * kHour});

  MotionSensorSim::Options options;
  options.period = 10 * 60 * sim::kSecond;  // every 10 minutes
  MotionSensorSim sensor(clock, store, nullptr, pattern, options);
  sensor.start();
  clock.run_until(6 * kHour);
  sensor.stop();

  // 6h / 10min = 36 samples, but only 3 transitions: initial report
  // (false), 02:00 on, 04:00 off.
  EXPECT_GE(sensor.samples_taken(), 35u);
  EXPECT_EQ(sensor.transitions(), 3u);
  const de::StateObject* state = store.peek("state");
  ASSERT_NE(state, nullptr);
  EXPECT_FALSE(state->data->get("triggered")->as_bool());
}

TEST(MotionSensorSim, LogsEverySample) {
  sim::VirtualClock clock;
  de::ObjectDe ode(clock, de::ObjectDeProfile::instant());
  de::LogDe lde(clock, de::LogDeProfile::instant());
  de::ObjectStore& store = ode.create_store("knactor-motion");
  de::LogPool& pool = lde.create_pool("motion-telemetry");
  MotionSensorSim::Options options;
  options.period = 30 * 60 * sim::kSecond;
  MotionSensorSim sensor(clock, store, &pool, OccupancyPattern::weekday(),
                         options);
  sensor.start();
  clock.run_until(24 * kHour);
  sensor.stop();
  EXPECT_EQ(pool.size(), sensor.samples_taken());
  // Telemetry is queryable: count occupied samples (06:30-08:30 = 4,
  // 18:00-23:00 = 10).
  auto query = de::parse_query("where triggered == true | "
                               "summarize n=count(sensor)");
  ASSERT_TRUE(query.ok());
  auto rows = pool.query_sync("house", query.value());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0]->get("n")->as_int(), 14);
}

TEST(MotionSensorSim, FlakySensorStillBounded) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("knactor-motion");
  MotionSensorSim::Options options;
  options.period = 60 * sim::kSecond;
  options.flake_rate = 0.1;
  MotionSensorSim sensor(clock, store, nullptr, OccupancyPattern::empty(),
                         options);
  sensor.start();
  clock.run_until(4 * kHour);
  sensor.stop();
  // Roughly 10% of 240 samples flip; transitions bounded by 2x flakes + 1.
  EXPECT_GT(sensor.transitions(), 5u);
  EXPECT_LT(sensor.transitions(), 100u);
}

TEST(MotionSensorSim, DrivesTheFullSmartHomeApp) {
  core::Runtime runtime;
  auto app = build_smart_home_knactor_app(runtime);
  OccupancyPattern pattern;
  pattern.windows.push_back({1 * kHour, 2 * kHour});
  MotionSensorSim::Options options;
  options.period = 5 * 60 * sim::kSecond;
  MotionSensorSim sensor(runtime.clock(), *app.motion_store, app.motion_log,
                         pattern, options);
  sensor.start();

  // The sensor reschedules forever, so drive the clock by bounded windows
  // (run_until processes every event inside the window, including the
  // watch-driven exchange passes).
  runtime.clock().run_until(90 * 60 * sim::kSecond);  // inside the window
  EXPECT_EQ(app.lamp_intensity(), 90);

  runtime.clock().run_until(3 * kHour);  // after the window
  EXPECT_EQ(app.lamp_intensity(), 10);
  sensor.stop();
}

}  // namespace
}  // namespace knactor::apps
