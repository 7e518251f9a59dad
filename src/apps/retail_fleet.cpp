#include "apps/retail_fleet.h"

#include <set>

#include "apps/retail_knactor.h"
#include "common/logging.h"

namespace knactor::apps {

using common::Error;
using common::Result;
using common::Value;
using core::Knactor;
using core::Reconciler;
using de::WatchEvent;

namespace {

constexpr const char* kFleetDxg = R"(Input:
  C: OnlineRetail/v1/Checkout/fleet-checkout
  S: OnlineRetail/v1/Shipping/fleet-shipping
  P: OnlineRetail/v1/Payment/fleet-payment
DXG:
  S.*:
    $for: C order/
    items: '[item.name for item in get(C, it).items]'
    addr: get(C, it).address
    method: '"air" if get(C, it).cost > 1000 else "ground"'
  P.*:
    $for: C order/
    amount: get(C, it).totalCost
    currency: get(C, it).currency
  C.*:
    $for: C order/
    shippingCost: >
      currency_convert(get(S, it).quote.price,
      get(S, it).quote.currency, get(C, it).currency)
    paymentID: get(P, it).id
    trackingID: get(S, it).id
)";

bool has_field(const WatchEvent& event, const char* name) {
  if (!event.object.data) return false;
  const Value* v = event.object.data->get(name);
  return v != nullptr && !v->is_null();
}

bool is_order_event(const WatchEvent& event) {
  return event.type != de::WatchEventType::kDeleted && event.object.data &&
         event.object.key.rfind("order/", 0) == 0;
}

/// Checkout fleet: per-order totalCost + status machine.
class CheckoutFleetReconciler : public Reconciler {
 public:
  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (!is_order_event(event)) return;
    const Value& data = *event.object.data;
    Value patches = Value::object();
    const Value* cost = data.get("cost");
    const Value* shipping_cost = data.get("shippingCost");
    const Value* total = data.get("totalCost");
    if (cost != nullptr && cost->is_number()) {
      double want = cost->as_number() +
                    (shipping_cost != nullptr && shipping_cost->is_number()
                         ? shipping_cost->as_number()
                         : 0.0);
      if (total == nullptr || !total->is_number() ||
          total->as_number() != want) {
        patches.set("totalCost", Value(want));
      }
    }
    const Value* status = data.get("status");
    std::string current =
        status != nullptr && status->is_string() ? status->as_string() : "";
    std::string want_status = current.empty() ? "pending" : current;
    if (has_field(event, "paymentID")) want_status = "paid";
    if (has_field(event, "trackingID")) want_status = "shipped";
    if (want_status != current) {
      patches.set("status", Value(want_status));
    }
    if (!patches.as_object().empty()) {
      de::ObjectStore* store = kn.object_store("state");
      store->patch(kn.principal(), event.object.key, std::move(patches),
                   [](Result<std::uint64_t>) {});
    }
  }
};

/// Payment fleet: charges every order object independently.
class PaymentFleetReconciler : public Reconciler {
 public:
  PaymentFleetReconciler(sim::VirtualClock& clock, sim::LatencyModel model)
      : clock_(clock), model_(model) {}

  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (!is_order_event(event)) return;
    if (!has_field(event, "amount") || !has_field(event, "currency")) return;
    if (has_field(event, "id")) return;
    if (!in_flight_.insert(event.object.key).second) return;
    std::string key = event.object.key;
    de::ObjectStore* store = kn.object_store("state");
    std::string principal = kn.principal();
    clock_.schedule_after(model_.sample(rng_), [this, store, principal, key]() {
      Value patch = Value::object();
      patch.set("id", Value("pay-" + std::to_string(++seq_)));
      store->patch(principal, key, std::move(patch),
                   [](Result<std::uint64_t>) {});
      in_flight_.erase(key);
    });
  }

 private:
  sim::VirtualClock& clock_;
  sim::LatencyModel model_;
  sim::Rng rng_{61};
  std::set<std::string> in_flight_;
  int seq_ = 0;
};

/// Shipping fleet: quotes immediately; ships (the long external call) each
/// order independently — many shipments can be in flight at once.
class ShippingFleetReconciler : public Reconciler {
 public:
  ShippingFleetReconciler(sim::VirtualClock& clock, sim::LatencyModel model)
      : clock_(clock), model_(model) {}

  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (!is_order_event(event)) return;
    const std::string& key = event.object.key;
    de::ObjectStore* store = kn.object_store("state");
    std::string principal = kn.principal();

    if (has_field(event, "items") && has_field(event, "addr") &&
        !has_field(event, "quote")) {
      const Value* items = event.object.data->get("items");
      double price =
          5.0 + 10.0 * static_cast<double>(
                           items->is_array() ? items->as_array().size() : 1);
      Value quote = Value::object();
      quote.set("price", Value(price));
      quote.set("currency", Value("USD"));
      Value patch = Value::object();
      patch.set("quote", std::move(quote));
      store->patch(principal, key, std::move(patch),
                   [](Result<std::uint64_t>) {});
      return;
    }
    if (has_field(event, "items") && has_field(event, "addr") &&
        has_field(event, "method") && !has_field(event, "id")) {
      if (!in_flight_.insert(key).second) return;
      clock_.schedule_after(
          model_.sample(rng_), [this, store, principal, key]() {
            Value patch = Value::object();
            patch.set("id", Value("track-" + std::to_string(++seq_)));
            store->patch(principal, key, std::move(patch),
                         [](Result<std::uint64_t>) {});
            in_flight_.erase(key);
          });
    }
  }

 private:
  sim::VirtualClock& clock_;
  sim::LatencyModel model_;
  sim::Rng rng_{62};
  std::set<std::string> in_flight_;
  int seq_ = 0;
};

}  // namespace

RetailFleetApp build_retail_fleet_app(core::Runtime& runtime,
                                      RetailFleetOptions options) {
  RetailFleetApp app;
  app.runtime = &runtime;
  de::ObjectDe& de = runtime.add_object_de("fleet", options.de_profile);
  app.de = &de;

  de::ObjectStore& checkout = de.create_store("fleet-checkout");
  de::ObjectStore& shipping = de.create_store("fleet-shipping");
  de::ObjectStore& payment = de.create_store("fleet-payment");
  app.checkout_store = &checkout;
  app.shipping_store = &shipping;
  app.payment_store = &payment;

  auto checkout_kn = std::make_unique<Knactor>(
      "fleet-checkout", std::make_unique<CheckoutFleetReconciler>());
  checkout_kn->bind_object_store("state", checkout);
  runtime.add_knactor(std::move(checkout_kn));

  auto payment_kn = std::make_unique<Knactor>(
      "fleet-payment", std::make_unique<PaymentFleetReconciler>(
                           runtime.clock(), options.payment_processing));
  payment_kn->bind_object_store("state", payment);
  runtime.add_knactor(std::move(payment_kn));

  auto shipping_kn = std::make_unique<Knactor>(
      "fleet-shipping", std::make_unique<ShippingFleetReconciler>(
                            runtime.clock(), options.shipment_processing));
  shipping_kn->bind_object_store("state", shipping);
  runtime.add_knactor(std::move(shipping_kn));

  auto dxg = core::Dxg::parse(kFleetDxg);
  if (!dxg.ok()) {
    KN_ERROR << "fleet: DXG parse failed: " << dxg.error().to_string();
    return app;
  }
  auto integrator = std::make_unique<core::CastIntegrator>(
      "fleet", de, dxg.take(),
      std::map<std::string, de::ObjectStore*>{
          {"C", &checkout}, {"S", &shipping}, {"P", &payment}});
  app.integrator = integrator.get();
  runtime.add_integrator(std::move(integrator));

  auto started = runtime.start_all();
  if (!started.ok()) {
    KN_ERROR << "fleet: start failed: " << started.error().to_string();
  }
  runtime.run_until_idle();
  return app;
}

Result<std::vector<Value>> RetailFleetApp::place_orders_sync(int count) {
  if (checkout_store == nullptr) {
    return Error::failed_precondition("fleet app not built");
  }
  for (int i = 1; i <= count; ++i) {
    Value order = i % 2 == 0 ? expensive_order() : sample_order();
    checkout_store->put("customer", "order/" + std::to_string(i),
                        std::move(order), [](Result<std::uint64_t>) {});
  }
  auto all_shipped = [this, count]() {
    return shipped_count() == static_cast<std::size_t>(count);
  };
  while (!all_shipped() && runtime->clock().step()) {
  }
  runtime->run_until_idle();
  if (!all_shipped()) {
    return Error::internal("fleet: orders did not all complete (queue "
                           "drained at " +
                           std::to_string(shipped_count()) + "/" +
                           std::to_string(count) + ")");
  }
  std::vector<Value> out;
  for (int i = 1; i <= count; ++i) {
    const de::StateObject* obj =
        checkout_store->peek("order/" + std::to_string(i));
    if (obj != nullptr && obj->data) out.push_back(*obj->data);
  }
  return out;
}

std::size_t RetailFleetApp::shipped_count() const {
  if (checkout_store == nullptr) return 0;
  std::size_t shipped = 0;
  for (const auto& key : checkout_store->keys()) {
    const de::StateObject* obj = checkout_store->peek(key);
    if (obj == nullptr || !obj->data) continue;
    const Value* status = obj->data->get("status");
    if (status != nullptr && status->is_string() &&
        status->as_string() == "shipped") {
      ++shipped;
    }
  }
  return shipped;
}

}  // namespace knactor::apps
