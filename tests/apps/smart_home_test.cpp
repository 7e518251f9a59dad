#include "apps/smart_home.h"

#include <gtest/gtest.h>

namespace knactor::apps {
namespace {

using common::Value;

TEST(SmartHomeKnactor, MotionBrightensLamp) {
  core::Runtime runtime;
  auto app = build_smart_home_knactor_app(runtime);
  EXPECT_EQ(app.lamp_intensity(), 10);  // no motion -> dim

  app.trigger_motion(true);
  app.settle();
  EXPECT_EQ(app.lamp_intensity(), 90);

  app.trigger_motion(false);
  app.settle();
  EXPECT_EQ(app.lamp_intensity(), 10);
}

TEST(SmartHomeKnactor, TelemetrySyncRenamesTriggeredToMotion) {
  core::Runtime runtime;
  auto app = build_smart_home_knactor_app(runtime);
  app.trigger_motion(true);
  app.settle();
  auto records = app.house_log->query_sync("test", {});
  ASSERT_TRUE(records.ok());
  bool found = false;
  for (const auto& r : records.value()) {
    if (r->get("motion") != nullptr) {
      found = true;
      EXPECT_EQ(r->get("triggered"), nullptr);  // renamed away
    }
  }
  EXPECT_TRUE(found);
}

TEST(SmartHomeKnactor, LampEnergyFlowsToHouseLog) {
  core::Runtime runtime;
  auto app = build_smart_home_knactor_app(runtime);
  app.trigger_motion(true);
  app.settle();
  app.settle();  // second round moves the lamp's new energy record
  auto records = app.house_log->query_sync("test", {});
  ASSERT_TRUE(records.ok());
  bool energy_seen = false;
  for (const auto& r : records.value()) {
    if (r->get("energy") != nullptr) {
      energy_seen = true;
      EXPECT_GT(r->get("energy")->as_number(), 0.0);
    }
  }
  EXPECT_TRUE(energy_seen);
}

TEST(SmartHomeKnactor, HouseAggregatesEnergyWithLogQuery) {
  core::Runtime runtime;
  auto app = build_smart_home_knactor_app(runtime);
  for (bool motion : {true, false, true}) {
    app.trigger_motion(motion);
    app.settle();
    app.settle();
  }
  de::LogQuery q;
  q.push_back(de::LogOp::filter("energy > 0").value());
  q.push_back(de::LogOp::aggregate({}, {{"total", {"sum", "energy"}},
                                        {"n", {"count", "energy"}}}));
  auto result = app.house_log->query_sync("house", q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_GT(result.value()[0]->get("total")->as_number(), 0.0);
  EXPECT_GE(result.value()[0]->get("n")->as_int(), 2);
}

TEST(SmartHomeKnactor, MotionSensorHasConfigStore) {
  core::Runtime runtime;
  auto app = build_smart_home_knactor_app(runtime);
  const de::StateObject* config = app.motion_store->peek("state");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->data->get("sensitivity")->as_int(), 5);
}

TEST(SmartHomeKnactor, SleepHoursBlockLampWrites) {
  core::Runtime runtime;
  SmartHomeOptions options;
  // Sleep from 22:00 to 06:00; the sim starts at 00:00 (inside sleep).
  options.sleep_from = 22LL * 3600 * sim::kSecond;
  options.sleep_to = 6LL * 3600 * sim::kSecond;
  auto app = build_smart_home_knactor_app(runtime, options);

  app.trigger_motion(true);
  app.settle();
  // House saw the motion and raised desired brightness...
  const de::StateObject* house = app.house_store->peek("state");
  ASSERT_NE(house, nullptr);
  EXPECT_EQ(house->data->get("brightness")->as_int(), 90);
  // ...but the integrator may not touch the lamp during sleep hours.
  EXPECT_NE(app.lamp_intensity(), 90);

  // After 06:00 the window opens and the exchange goes through.
  runtime.clock().run_until(7LL * 3600 * sim::kSecond);
  app.trigger_motion(true);
  app.settle();
  EXPECT_EQ(app.lamp_intensity(), 90);
}

TEST(SmartHomePubSub, MotionDrivesLampViaBroker) {
  sim::VirtualClock clock;
  SmartHomePubSubApp app(clock);
  EXPECT_EQ(app.lamp_intensity(), -1);
  app.trigger_motion(true);
  EXPECT_EQ(app.lamp_intensity(), 90);
  app.trigger_motion(false);
  EXPECT_EQ(app.lamp_intensity(), 10);
}

TEST(SmartHomePubSub, EnergyReportsAccumulateAtHouse) {
  sim::VirtualClock clock;
  SmartHomePubSubApp app(clock);
  app.trigger_motion(true);
  double after_on = app.house_kwh();
  EXPECT_GT(after_on, 0.0);
  app.trigger_motion(false);
  EXPECT_GT(app.house_kwh(), after_on);
}

TEST(SmartHome, BothImplementationsAgreeOnPolicy) {
  // The same motion stimulus produces the same lamp level through the
  // data-centric and the pub/sub composition.
  core::Runtime runtime;
  auto kn = build_smart_home_knactor_app(runtime);
  sim::VirtualClock clock;
  SmartHomePubSubApp ps(clock);

  for (bool motion : {true, false, true, true, false}) {
    kn.trigger_motion(motion);
    kn.settle();
    ps.trigger_motion(motion);
    EXPECT_EQ(kn.lamp_intensity(), ps.lamp_intensity());
  }
}

}  // namespace
}  // namespace knactor::apps
