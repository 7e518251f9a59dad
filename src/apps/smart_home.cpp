#include "apps/smart_home.h"

#include "common/logging.h"

namespace knactor::apps {

using common::Value;
using core::Knactor;
using core::Reconciler;
using de::WatchEvent;

namespace {

/// House policy: when motion is detected, ask for bright light; dim after
/// the room goes quiet. The house only writes its own store; the Cast
/// integrator carries `brightness` into the Lamp's `intensity`.
class HouseReconciler : public Reconciler {
 public:
  void start(Knactor& kn) override {
    Value state = Value::object();
    state.set("brightness", Value(0));
    state.set("motion", Value(false));
    state.set("kwh", Value(0.0));
    (void)kn.put_state("state", std::move(state));
  }

  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.object.key != "state" ||
        event.type == de::WatchEventType::kDeleted || !event.object.data) {
      return;
    }
    const Value* motion = event.object.data->get("motion");
    const Value* brightness = event.object.data->get("brightness");
    if (motion == nullptr || !motion->is_bool()) return;
    std::int64_t want = motion->as_bool() ? 90 : 10;
    if (brightness != nullptr && brightness->is_int() &&
        brightness->as_int() == want) {
      return;
    }
    Value patch = Value::object();
    patch.set("brightness", Value(want));
    (void)kn.patch_state("state", std::move(patch));
  }
};

/// Lamp device: applies the externally-set intensity and reports energy
/// draw into its log pool.
class LampReconciler : public Reconciler {
 public:
  void start(Knactor& kn) override {
    Value state = Value::object();
    state.set("intensity", Value(0));
    (void)kn.put_state("state", std::move(state));
  }

  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.object.key != "state" ||
        event.type == de::WatchEventType::kDeleted || !event.object.data) {
      return;
    }
    const Value* intensity = event.object.data->get("intensity");
    if (intensity == nullptr || !intensity->is_int()) return;
    std::int64_t level = intensity->as_int();
    if (level == applied_) return;
    applied_ = level;
    de::LogPool* pool = kn.log_pool("telemetry");
    if (pool != nullptr) {
      Value record = Value::object();
      record.set("device", Value("lamp"));
      record.set("kwh", Value(0.06 * static_cast<double>(level) / 100.0));
      (void)pool->append_sync(kn.principal(), std::move(record));
    }
  }

 private:
  std::int64_t applied_ = -1;
};

/// Motion sensor device: holds sensitivity config in its Object store and
/// appends readings to its Log pool.
class MotionReconciler : public Reconciler {
 public:
  void start(Knactor& kn) override {
    Value state = Value::object();
    state.set("sensitivity", Value(5));
    (void)kn.put_state("state", std::move(state));
  }
};

}  // namespace

SmartHomeKnactorApp build_smart_home_knactor_app(core::Runtime& runtime,
                                                 SmartHomeOptions options) {
  SmartHomeKnactorApp app;
  app.runtime = &runtime;

  runtime.set_shards(options.shards);
  de::ObjectDe& ode = runtime.add_object_de("object", options.object_profile);
  de::LogDe& lde = runtime.add_log_de("log", options.log_profile);
  app.object_de = &ode;
  app.log_de = &lde;

  // Two stores per knactor, as in Fig. 4.
  de::ObjectStore& house_obj = ode.create_store("knactor-house");
  de::ObjectStore& lamp_obj = ode.create_store("knactor-lamp");
  de::ObjectStore& motion_obj = ode.create_store("knactor-motion");
  de::LogPool& house_log = lde.create_pool("house-telemetry");
  de::LogPool& lamp_log = lde.create_pool("lamp-telemetry");
  de::LogPool& motion_log = lde.create_pool("motion-telemetry");
  app.house_store = &house_obj;
  app.lamp_store = &lamp_obj;
  app.motion_store = &motion_obj;
  app.house_log = &house_log;
  app.lamp_log = &lamp_log;
  app.motion_log = &motion_log;

  auto house = std::make_unique<Knactor>("house",
                                         std::make_unique<HouseReconciler>());
  house->bind_object_store("state", house_obj);
  house->bind_log_pool("telemetry", house_log);
  runtime.add_knactor(std::move(house));

  auto lamp =
      std::make_unique<Knactor>("lamp", std::make_unique<LampReconciler>());
  lamp->bind_object_store("state", lamp_obj);
  lamp->bind_log_pool("telemetry", lamp_log);
  runtime.add_knactor(std::move(lamp));

  auto motion = std::make_unique<Knactor>(
      "motion", std::make_unique<MotionReconciler>());
  motion->bind_object_store("state", motion_obj);
  motion->bind_log_pool("telemetry", motion_log);
  runtime.add_knactor(std::move(motion));

  // Cast: House.brightness -> Lamp.intensity; latest motion state ->
  // House.motion (over Object stores).
  const char* dxg_spec = R"(Input:
  H: SmartHome/v1/House/knactor-house
  L: SmartHome/v1/Lamp/knactor-lamp
  M: SmartHome/v1/Motion/knactor-motion
DXG:
  L:
    intensity: H.brightness
  H:
    motion: M.triggered
)";
  auto dxg = core::Dxg::parse(dxg_spec);
  if (!dxg.ok()) {
    KN_ERROR << "smart-home: DXG parse failed: " << dxg.error().to_string();
    return app;
  }
  core::CastIntegrator::Options copts;
  copts.compute = sim::LatencyModel::constant_ms(0.02);
  auto cast = std::make_unique<core::CastIntegrator>(
      "home", ode, dxg.take(),
      std::map<std::string, de::ObjectStore*>{
          {"H", &house_obj}, {"L", &lamp_obj}, {"M", &motion_obj}},
      copts, nullptr, &runtime.tracer());
  app.cast = cast.get();
  runtime.add_integrator(std::move(cast));

  // Sync: motion readings -> house pool with the paper's rename
  // (triggered -> motion); lamp energy -> house pool filtered+renamed.
  // Manual rounds (settle() drives them): a periodic tick would keep the
  // event queue non-empty forever, which run_until_idle-style drivers in
  // tests and examples rely on. options.sync_interval is still honoured by
  // callers that run the clock for fixed windows (see examples).
  core::SyncIntegrator::Options sopts;
  sopts.interval = 0;
  auto sync = std::make_unique<core::SyncIntegrator>("home-telemetry", lde,
                                                     sopts,
                                                     &runtime.tracer());
  {
    core::SyncRoute route;
    route.name = "motion-to-house";
    route.source = &motion_log;
    route.target = &house_log;
    route.pipeline.push_back(
        de::LogOp::rename({{"triggered", "motion"}}));
    (void)sync->add_route(std::move(route));
  }
  {
    core::SyncRoute route;
    route.name = "lamp-energy-to-house";
    route.source = &lamp_log;
    route.target = &house_log;
    auto filter = de::LogOp::filter("kwh > 0");
    if (filter.ok()) route.pipeline.push_back(filter.take());
    route.pipeline.push_back(de::LogOp::rename({{"kwh", "energy"}}));
    (void)sync->add_route(std::move(route));
  }
  app.sync = sync.get();
  runtime.add_integrator(std::move(sync));

  // Sleep-hours policy: RBAC window denying the integrator writes to the
  // lamp outside the allowed hours (§3.3 access-control example).
  if (options.sleep_from != options.sleep_to) {
    de::Rbac& rbac = ode.rbac();
    de::Role everyone;
    everyone.name = "role-open";
    de::PolicyRule all;
    all.store = "*";
    all.verbs = {de::Verb::kGet, de::Verb::kList, de::Verb::kWatch,
                 de::Verb::kCreate, de::Verb::kUpdate, de::Verb::kDelete};
    everyone.rules.push_back(all);
    (void)rbac.add_role(everyone);
    for (const char* principal :
         {"knactor:house", "knactor:lamp", "knactor:motion"}) {
      (void)rbac.bind(principal, "role-open");
    }
    de::Role integ;
    integ.name = "role-home-integrator";
    de::PolicyRule read;
    read.store = "*";
    read.verbs = {de::Verb::kGet, de::Verb::kList, de::Verb::kWatch};
    integ.rules.push_back(read);
    de::PolicyRule write_house;
    write_house.store = "knactor-house";
    write_house.verbs = {de::Verb::kUpdate};
    integ.rules.push_back(write_house);
    // Lamp writes only outside sleep hours: an awake-window rule.
    de::PolicyRule write_lamp;
    write_lamp.store = "knactor-lamp";
    write_lamp.verbs = {de::Verb::kUpdate};
    write_lamp.window = de::TimeWindow{options.sleep_to, options.sleep_from};
    integ.rules.push_back(write_lamp);
    (void)rbac.add_role(integ);
    (void)rbac.bind("integrator:home", "role-home-integrator");
    rbac.set_enabled(true);
  }

  auto started = runtime.start_all();
  if (!started.ok()) {
    KN_ERROR << "smart-home: start failed: " << started.error().to_string();
  }
  runtime.run_until_idle();
  return app;
}

void SmartHomeKnactorApp::trigger_motion(bool triggered) {
  if (motion_store == nullptr) return;
  // The sensor reports into both its Object store (current state) and its
  // Log pool (reading history).
  Value patch = Value::object();
  patch.set("triggered", Value(triggered));
  (void)motion_store->patch_sync("knactor:motion", "state", std::move(patch));
  if (motion_log != nullptr) {
    Value record = Value::object();
    record.set("triggered", Value(triggered));
    record.set("sensor", Value("motion-1"));
    (void)motion_log->append_sync("knactor:motion", std::move(record));
  }
}

void SmartHomeKnactorApp::settle() {
  if (runtime == nullptr) return;
  if (sync != nullptr) (void)sync->run_round_sync();
  runtime->run_until_idle();
}

int SmartHomeKnactorApp::lamp_intensity() const {
  if (lamp_store == nullptr) return -1;
  const de::StateObject* obj = lamp_store->peek("state");
  if (obj == nullptr || !obj->data) return -1;
  const Value* intensity = obj->data->get("intensity");
  if (intensity == nullptr || !intensity->is_int()) return -1;
  return static_cast<int>(intensity->as_int());
}

SmartHomePubSubApp::SmartHomePubSubApp(sim::VirtualClock& clock,
                                       sim::LatencyModel link)
    : clock_(clock) {
  network_ = std::make_unique<net::SimNetwork>(clock_);
  network_->set_default_latency(link);
  broker_ = std::make_unique<net::Broker>(*network_, "broker");
  network_->add_node("pod-house");
  network_->add_node("pod-lamp");
  network_->add_node("pod-motion");

  // House subscribes to motion; on "triggered: true" it publishes a
  // brightness command to the lamp topic (§2). The schema of each topic's
  // messages is an out-of-band contract between the services.
  broker_->subscribe("home/motion", "pod-house",
                     [this](const std::string&, const Value& message) {
                       const Value* triggered = message.get("triggered");
                       bool on = triggered != nullptr && triggered->is_bool() &&
                                 triggered->as_bool();
                       Value cmd = Value::object();
                       cmd.set("brightness", Value(on ? 90 : 10));
                       (void)broker_->publish("pod-house", "home/lamp",
                                              std::move(cmd));
                     });
  broker_->subscribe("home/lamp", "pod-lamp",
                     [this](const std::string&, const Value& message) {
                       const Value* brightness = message.get("brightness");
                       if (brightness != nullptr && brightness->is_int()) {
                         lamp_intensity_ =
                             static_cast<int>(brightness->as_int());
                         Value report = Value::object();
                         report.set("kwh",
                                    Value(0.06 * lamp_intensity_ / 100.0));
                         (void)broker_->publish("pod-lamp", "home/energy",
                                                std::move(report));
                       }
                     });
  broker_->subscribe("home/energy", "pod-house",
                     [this](const std::string&, const Value& message) {
                       const Value* kwh = message.get("kwh");
                       if (kwh != nullptr && kwh->is_number()) {
                         house_kwh_ += kwh->as_number();
                       }
                     });
}

void SmartHomePubSubApp::trigger_motion(bool triggered) {
  Value reading = Value::object();
  reading.set("triggered", Value(triggered));
  (void)broker_->publish("pod-motion", "home/motion", std::move(reading));
  clock_.run_all();
}

}  // namespace knactor::apps
