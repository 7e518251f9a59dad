#include "apps/ride_hailing.h"

#include <set>

#include "common/logging.h"

namespace knactor::apps {

using common::Result;
using common::Value;
using core::Knactor;
using core::Reconciler;
using de::WatchEvent;

namespace {

/// The composition program. Aliases carry schema ids
/// (specs/ride_hailing_dxg.yaml is the lintable twin of this string; the
/// store binding happens in build_ride_hailing_app). Fan-out: one dispatch
/// decision per `ride/<id>` object; the assignment flows back into the
/// ride. `Watch:` filters keep the integrator asleep for events that
/// cannot change the exchange: rides already assigned and zones without
/// surge pricing.
constexpr const char* kRideHailingDxg = R"(Input:
  R: RideHail/v1/Ride/ride-requests
  Z: RideHail/v1/Zone/ride-zones
  X: RideHail/v1/Dispatch/ride-dispatch
DXG:
  X.*:
    $for: R ride/
    zone: get(R, it).zone
    rider: get(R, it).rider
    surge: 'get(Z, get(R, it).zoneKey).surge'
    quoted: 'get(R, it).fare * get(Z, get(R, it).zoneKey).surge'
  R.*:
    $for: R ride/
    driver: get(X, it).driver
    status: get(X, it).status
Watch:
  R:
    prefix: ride/
    filter: status == "requested"
    qos:
      window: 5
      stage: ride-watch
  Z:
    prefix: zone/
    filter: surge > 1
)";

/// Deterministic FNV-1a over the ride key — the dispatch policy must not
/// depend on std::hash (platform-defined) or iteration order.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Zone pricing: demand on the zone's counter sets a stepped surge factor.
/// Writes only on change, so the reconciler converges instead of looping.
class ZoneReconciler : public Reconciler {
 public:
  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.type == de::WatchEventType::kDeleted || !event.object.data) {
      return;
    }
    if (event.object.key.rfind("zone/", 0) != 0) return;
    const Value* demand = event.object.data->get("demand");
    if (demand == nullptr || !demand->is_number()) return;
    const auto d = static_cast<std::int64_t>(demand->as_number());
    double want = d >= 40 ? 1.0 + 0.25 * static_cast<double>(d / 40) : 1.0;
    const Value* surge = event.object.data->get("surge");
    if (surge != nullptr && surge->is_number() &&
        surge->as_number() == want) {
      return;
    }
    Value patch = Value::object();
    patch.set("surge", Value(want));
    de::ObjectStore* store = kn.object_store("state");
    store->patch(kn.principal(), event.object.key, std::move(patch),
                 [](Result<std::uint64_t>) {});
  }
};

/// Match policy: every dispatch request with a zone but no driver gets one,
/// chosen deterministically from the fleet by key hash. The decision also
/// stamps the driver's own object (last assignment), so the drivers store
/// sees write traffic too.
class DispatchReconciler : public Reconciler {
 public:
  explicit DispatchReconciler(int fleet) : fleet_(fleet) {}

  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.type == de::WatchEventType::kDeleted || !event.object.data) {
      return;
    }
    const std::string& key = event.object.key;
    if (key.rfind("ride/", 0) != 0) return;
    const Value& data = *event.object.data;
    const Value* zone = data.get("zone");
    const Value* driver = data.get("driver");
    if (zone == nullptr || zone->is_null()) return;
    if (driver != nullptr && !driver->is_null()) return;
    if (!in_flight_.insert(key).second) return;
    std::string assigned =
        "driver-" + std::to_string(fnv1a(key) %
                                   static_cast<std::uint64_t>(fleet_));
    Value patch = Value::object();
    patch.set("driver", Value(assigned));
    patch.set("status", Value("assigned"));
    de::ObjectStore* store = kn.object_store("state");
    std::string principal = kn.principal();
    store->patch(principal, key, std::move(patch),
                 [this, key](Result<std::uint64_t>) { in_flight_.erase(key); });
    de::ObjectStore* fleet_store = kn.object_store("drivers");
    if (fleet_store != nullptr) {
      Value note = Value::object();
      note.set("lastRide", Value(key));
      fleet_store->patch(principal, "driver/" + assigned, std::move(note),
                         [](Result<std::uint64_t>) {});
    }
  }

 private:
  int fleet_;
  std::set<std::string> in_flight_;
};

}  // namespace

const char* ride_hailing_dxg() { return kRideHailingDxg; }

RideHailingApp build_ride_hailing_app(core::Runtime& runtime,
                                      RideHailingOptions options) {
  RideHailingApp app;
  app.runtime = &runtime;
  app.options = options;

  runtime.set_shards(options.shards);
  de::ObjectDe& de = runtime.add_object_de("ride", options.de_profile);
  app.de = &de;

  de::ObjectStore& rides = de.create_store("ride-requests");
  de::ObjectStore& zones = de.create_store("ride-zones");
  de::ObjectStore& dispatch = de.create_store("ride-dispatch");
  de::ObjectStore& drivers = de.create_store("ride-drivers");
  app.rides = &rides;
  app.zones = &zones;
  app.dispatch = &dispatch;
  app.drivers = &drivers;

  auto zone_kn = std::make_unique<Knactor>("ride-zones",
                                           std::make_unique<ZoneReconciler>());
  zone_kn->bind_object_store("state", zones);
  runtime.add_knactor(std::move(zone_kn));

  auto dispatch_kn = std::make_unique<Knactor>(
      "ride-dispatch", std::make_unique<DispatchReconciler>(options.drivers));
  dispatch_kn->bind_object_store("state", dispatch);
  dispatch_kn->bind_object_store("drivers", drivers);
  runtime.add_knactor(std::move(dispatch_kn));

  auto dxg = core::Dxg::parse(kRideHailingDxg);
  if (!dxg.ok()) {
    KN_ERROR << "ride-hailing: DXG parse failed: " << dxg.error().to_string();
    return app;
  }
  core::CastIntegrator::Options copts;
  copts.compute = sim::LatencyModel::constant_ms(0.02);
  copts.batch_window = options.batch_window;
  copts.retry = options.integrator_retry;
  auto cast = std::make_unique<core::CastIntegrator>(
      "ride-match", de, dxg.take(),
      std::map<std::string, de::ObjectStore*>{
          {"R", &rides}, {"Z", &zones}, {"X", &dispatch}},
      copts, nullptr, &runtime.tracer());
  app.cast = cast.get();
  runtime.add_integrator(std::move(cast));

  // Every zone object exists before traffic starts (DXG expressions read
  // the zone unconditionally).
  for (int z = 0; z < options.zones; ++z) {
    Value state = Value::object();
    state.set("demand", Value(std::int64_t{0}));
    state.set("surge", Value(1.0));
    zones.put("city", "zone/z" + std::to_string(z), std::move(state),
              [](Result<std::uint64_t>) {});
  }

  auto started = runtime.start_all();
  if (!started.ok()) {
    KN_ERROR << "ride-hailing: start failed: " << started.error().to_string();
  }
  runtime.run_until_idle();
  return app;
}

std::string RideHailingApp::zone_for(std::uint64_t ride_id) const {
  const auto mille = ride_id % 1000;
  if (mille < static_cast<std::uint64_t>(options.hot_per_mille)) {
    return "z" + std::to_string(ride_id % 3);  // the busy zones
  }
  const auto cold = options.zones > 3 ? options.zones - 3 : 1;
  return "z" + std::to_string(3 + ride_id % static_cast<std::uint64_t>(cold));
}

void RideHailingApp::submit_ride(std::uint64_t ride_id) {
  if (rides == nullptr || zones == nullptr) return;
  const std::string zone = zone_for(ride_id);
  const std::string zone_key = "zone/" + zone;

  Value ride = Value::object();
  ride.set("rider", Value("rider-" + std::to_string(ride_id)));
  ride.set("zone", Value(zone));
  ride.set("zoneKey", Value(zone_key));
  ride.set("fare", Value(5.0 + static_cast<double>(ride_id % 20)));
  ride.set("status", Value("requested"));
  rides->put("rider", "ride/" + std::to_string(ride_id), std::move(ride),
             [](Result<std::uint64_t>) {});

  // The hot-key write: every submit bumps its zone's demand counter, and
  // most submits hit the same three zones. peek() reads the committed
  // counter at submit time (concurrent in-flight submits may coalesce a
  // step — the counter tracks demand, it is not an exact admission count).
  std::int64_t demand = 0;
  const de::StateObject* obj = zones->peek(zone_key);
  if (obj != nullptr && obj->data) {
    const Value* d = obj->data->get("demand");
    if (d != nullptr && d->is_number()) {
      demand = static_cast<std::int64_t>(d->as_number());
    }
  }
  Value patch = Value::object();
  patch.set("demand", Value(demand + 1));
  zones->patch("rider", zone_key, std::move(patch),
               [](Result<std::uint64_t>) {});
}

std::size_t RideHailingApp::assigned_count() const {
  if (rides == nullptr) return 0;
  std::size_t n = 0;
  for (const auto& key : rides->keys()) {
    const de::StateObject* obj = rides->peek(key);
    if (obj == nullptr || !obj->data) continue;
    const Value* driver = obj->data->get("driver");
    if (driver != nullptr && driver->is_string()) ++n;
  }
  return n;
}

std::string RideHailingApp::driver_of(std::uint64_t ride_id) const {
  if (rides == nullptr) return "";
  const de::StateObject* obj = rides->peek("ride/" + std::to_string(ride_id));
  if (obj == nullptr || !obj->data) return "";
  const Value* driver = obj->data->get("driver");
  return driver != nullptr && driver->is_string() ? driver->as_string() : "";
}

void RideHailingApp::settle() {
  if (runtime != nullptr) runtime->run_until_idle();
}

}  // namespace knactor::apps
