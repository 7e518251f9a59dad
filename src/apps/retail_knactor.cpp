#include "apps/retail_knactor.h"

#include <memory>

#include "apps/retail_specs.h"
#include "common/logging.h"

namespace knactor::apps {

using common::Error;
using common::Result;
using common::Value;
using core::Knactor;
using core::Reconciler;
using de::StateObject;
using de::WatchEvent;

namespace {

/// Fetches a field of an event object; nullptr-safe.
const Value* field(const WatchEvent& event, const char* name) {
  if (!event.object.data) return nullptr;
  return event.object.data->get(name);
}

bool has(const WatchEvent& event, const char* name) {
  const Value* v = field(event, name);
  return v != nullptr && !v->is_null();
}

// ---------------------------------------------------------------------------
// Reconcilers. Each reacts only to its own store (the Knactor pattern).
// ---------------------------------------------------------------------------

/// Checkout: owns the `order` object. Maintains totalCost and the order
/// status state machine (pending -> paid -> shipped).
class CheckoutReconciler : public Reconciler {
 public:
  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.object.key != "order" || event.type == de::WatchEventType::kDeleted) {
      return;
    }
    Value patches = Value::object();
    const Value* cost = field(event, "cost");
    const Value* shipping_cost = field(event, "shippingCost");
    const Value* total = field(event, "totalCost");
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
    const Value* status = field(event, "status");
    std::string current =
        status != nullptr && status->is_string() ? status->as_string() : "";
    std::string want_status = current.empty() ? "pending" : current;
    if (has(event, "paymentID")) want_status = "paid";
    if (has(event, "trackingID")) want_status = "shipped";
    if (want_status != current) {
      patches.set("status", Value(want_status));
    }
    if (!patches.as_object().empty()) {
      auto r = kn.patch_state("order", std::move(patches));
      if (!r.ok()) {
        KN_WARN << "checkout: patch failed: " << r.error().to_string();
      }
    }
  }
};

/// Payment: when amount+currency appear (filled by the integrator),
/// processes the charge (provider latency) and posts the payment id.
class PaymentReconciler : public Reconciler {
 public:
  PaymentReconciler(sim::VirtualClock& clock, sim::LatencyModel processing)
      : clock_(clock), processing_(processing) {}

  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.object.key != "state" ||
        event.type == de::WatchEventType::kDeleted) {
      return;
    }
    if (!has(event, "amount") || !has(event, "currency")) return;
    if (has(event, "id") || charging_) return;
    charging_ = true;
    Knactor* knactor = &kn;
    clock_.schedule_after(processing_.sample(rng_), [this, knactor]() {
      Value patch = Value::object();
      patch.set("id", Value("pay-" + std::to_string(++seq_)));
      auto r = knactor->patch_state("state", std::move(patch));
      if (!r.ok()) {
        KN_WARN << "payment: patch failed: " << r.error().to_string();
      }
      charging_ = false;
    });
  }

 private:
  sim::VirtualClock& clock_;
  sim::LatencyModel processing_;
  sim::Rng rng_{21};
  bool charging_ = false;
  int seq_ = 0;
};

/// Shipping: quotes immediately when items+addr appear; ships (the long
/// external FedEx-like call, Table 2 column S) once a method is chosen,
/// then posts the tracking id.
class ShippingReconciler : public Reconciler {
 public:
  ShippingReconciler(sim::VirtualClock& clock, sim::LatencyModel processing)
      : clock_(clock), processing_(processing) {}

  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.object.key != "state" ||
        event.type == de::WatchEventType::kDeleted) {
      return;
    }
    if (has(event, "items") && has(event, "addr") && !has(event, "quote")) {
      const Value* items = field(event, "items");
      double price =
          5.0 + 10.0 * static_cast<double>(
                           items->is_array() ? items->as_array().size() : 1);
      Value quote = Value::object();
      quote.set("price", Value(price));
      quote.set("currency", Value("USD"));
      Value patch = Value::object();
      patch.set("quote", std::move(quote));
      auto r = kn.patch_state("state", std::move(patch));
      if (!r.ok()) {
        KN_WARN << "shipping: quote failed: " << r.error().to_string();
      }
      return;
    }
    if (has(event, "items") && has(event, "addr") && has(event, "method") &&
        !has(event, "id") && !shipping_) {
      shipping_ = true;
      Knactor* knactor = &kn;
      // The external shipping-provider call dominates end-to-end latency
      // (Table 2, column S).
      clock_.schedule_after(processing_.sample(rng_), [this, knactor]() {
        Value patch = Value::object();
        patch.set("id", Value("track-" + std::to_string(++seq_)));
        auto r = knactor->patch_state("state", std::move(patch));
        if (!r.ok()) {
          KN_WARN << "shipping: tracking post failed: "
                  << r.error().to_string();
        }
        shipping_ = false;
      });
    }
  }

 private:
  sim::VirtualClock& clock_;
  sim::LatencyModel processing_;
  sim::Rng rng_{22};
  bool shipping_ = false;
  int seq_ = 0;
};

/// Email: sends the confirmation once recipient and tracking id are known.
class EmailReconciler : public Reconciler {
 public:
  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.object.key != "state" ||
        event.type == de::WatchEventType::kDeleted) {
      return;
    }
    if (!has(event, "recipient") || !has(event, "trackingID")) return;
    const Value* sent = field(event, "sent");
    if (sent != nullptr && sent->is_bool() && sent->as_bool()) return;
    Value patch = Value::object();
    patch.set("sent", Value(true));
    (void)kn.patch_state("state", std::move(patch));
  }
};

/// Recommendation: derives suggestions from the last purchased items.
class RecommendationReconciler : public Reconciler {
 public:
  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.object.key != "state" || !has(event, "lastItems") ||
        event.type == de::WatchEventType::kDeleted) {
      return;
    }
    const Value* items = field(event, "lastItems");
    if (!items->is_array()) return;
    Value::Array suggestions;
    for (const auto& item : items->as_array()) {
      if (item.is_string()) {
        suggestions.emplace_back("like:" + item.as_string());
      }
    }
    Value want(std::move(suggestions));
    const Value* current = field(event, "suggestions");
    if (current != nullptr && *current == want) return;
    Value patch = Value::object();
    patch.set("suggestions", std::move(want));
    (void)kn.patch_state("state", std::move(patch));
  }
};

/// Ad: picks a creative for the order's keywords.
class AdReconciler : public Reconciler {
 public:
  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.object.key != "state" || !has(event, "keywords") ||
        event.type == de::WatchEventType::kDeleted) {
      return;
    }
    const Value* kw = field(event, "keywords");
    std::string creative = "generic-banner";
    if (kw->is_array() && !kw->as_array().empty() &&
        kw->as_array()[0].is_string()) {
      creative = "promo:" + kw->as_array()[0].as_string();
    }
    const Value* current = field(event, "creative");
    if (current != nullptr && current->is_string() &&
        current->as_string() == creative) {
      return;
    }
    Value patch = Value::object();
    patch.set("creative", Value(creative));
    (void)kn.patch_state("state", std::move(patch));
  }
};

/// Inventory: applies stock decrements for the last order exactly once.
class InventoryReconciler : public Reconciler {
 public:
  void start(Knactor& kn) override {
    // Seed stock for the demo catalog.
    for (const char* product : {"keyboard", "mouse", "monitor", "laptop"}) {
      Value stock = Value::object();
      stock.set("stock", Value(100));
      (void)kn.put_state(std::string("product/") + product, std::move(stock));
    }
  }

  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.object.key != "state" || !has(event, "lastOrder") ||
        event.type == de::WatchEventType::kDeleted) {
      return;
    }
    const Value* applied = field(event, "applied");
    if (applied != nullptr && applied->is_bool() && applied->as_bool()) return;
    const Value* order = field(event, "lastOrder");
    if (!order->is_array()) return;
    for (const auto& line : order->as_array()) {
      const Value* name = line.get("name");
      const Value* qty = line.get("qty");
      if (name == nullptr || !name->is_string()) continue;
      std::int64_t n = qty != nullptr && qty->is_int() ? qty->as_int() : 1;
      std::string key = "product/" + name->as_string();
      auto current = kn.get_state(key);
      std::int64_t stock = 100;
      if (current.ok() && current.value().data) {
        const Value* s = current.value().data->get("stock");
        if (s != nullptr && s->is_int()) stock = s->as_int();
      }
      Value patch = Value::object();
      patch.set("stock", Value(stock - n));
      (void)kn.patch_state(key, std::move(patch));
    }
    Value done = Value::object();
    done.set("applied", Value(true));
    (void)kn.patch_state("state", std::move(done));
  }
};

/// Catalog: seeds the product list once.
class CatalogReconciler : public Reconciler {
 public:
  void start(Knactor& kn) override {
    Value products = Value::object();
    products.set("keyboard", Value(45.0));
    products.set("mouse", Value(25.0));
    products.set("monitor", Value(280.0));
    products.set("laptop", Value(1400.0));
    Value state = Value::object();
    state.set("products", std::move(products));
    (void)kn.put_state("state", std::move(state));
  }
};

/// Currency: maintains the rate table in its store.
class CurrencyReconciler : public Reconciler {
 public:
  void start(Knactor& kn) override {
    Value rates = Value::object();
    rates.set("USD", Value(1.0));
    rates.set("EUR", Value(0.92));
    rates.set("GBP", Value(0.79));
    Value state = Value::object();
    state.set("rates", std::move(rates));
    (void)kn.put_state("state", std::move(state));
  }
};

/// Cart and Frontend are passive stores in this pipeline (the workload
/// writes into Checkout directly, as the paper's benchmark does); their
/// reconcilers only seed session state.
class CartReconciler : public Reconciler {
 public:
  void start(Knactor& kn) override {
    Value state = Value::object();
    state.set("userID", Value("user-1"));
    state.set("items", Value::object());
    (void)kn.put_state("state", std::move(state));
  }
};

class FrontendReconciler : public Reconciler {
 public:
  void start(Knactor& kn) override {
    Value state = Value::object();
    state.set("userID", Value("user-1"));
    (void)kn.put_state("state", std::move(state));
  }
};

}  // namespace

Value sample_order(double cost) {
  Value::Array items;
  Value line1 = Value::object();
  line1.set("name", Value("keyboard"));
  line1.set("qty", Value(1));
  items.push_back(std::move(line1));
  Value line2 = Value::object();
  line2.set("name", Value("mouse"));
  line2.set("qty", Value(2));
  items.push_back(std::move(line2));

  Value order = Value::object();
  order.set("items", Value(std::move(items)));
  order.set("address", Value("1 Market St, San Francisco, CA"));
  order.set("cost", Value(cost));
  order.set("currency", Value("USD"));
  order.set("email", Value("user-1@example.com"));
  order.set("status", Value("pending"));
  return order;
}

Value expensive_order() {
  Value order = sample_order(1600.0);
  Value::Array items;
  Value line = Value::object();
  line.set("name", Value("laptop"));
  line.set("qty", Value(1));
  items.push_back(std::move(line));
  order.set("items", Value(std::move(items)));
  return order;
}

RetailKnactorApp build_retail_knactor_app(core::Runtime& runtime,
                                          RetailKnactorOptions options) {
  RetailKnactorApp app;
  app.runtime = &runtime;
  app.options = options;

  runtime.set_shards(options.shards);
  de::ObjectDe& de = runtime.add_object_de("object", options.de_profile);
  app.de = &de;

  // Register every schema (the "Externalize" workflow step).
  for (const char* schema :
       {kCheckoutSchema, kShippingSchema, kPaymentSchema, kEmailSchema,
        kRecommendationSchema, kAdSchema, kInventorySchema, kCartSchema,
        kCatalogSchema, kCurrencySchema, kFrontendSchema}) {
    auto added = runtime.schemas().add_yaml(schema);
    if (!added.ok()) {
      KN_WARN << "retail: schema registration failed: "
              << added.error().to_string();
    }
  }

  struct Spec {
    const char* name;
    std::unique_ptr<Reconciler> reconciler;
  };
  sim::VirtualClock& clock = runtime.clock();
  std::vector<Spec> specs;
  specs.push_back({"frontend", std::make_unique<FrontendReconciler>()});
  specs.push_back({"cart", std::make_unique<CartReconciler>()});
  specs.push_back({"catalog", std::make_unique<CatalogReconciler>()});
  specs.push_back({"currency", std::make_unique<CurrencyReconciler>()});
  specs.push_back({"checkout", std::make_unique<CheckoutReconciler>()});
  specs.push_back({"payment", std::make_unique<PaymentReconciler>(
                                  clock, options.payment_processing)});
  specs.push_back({"shipping", std::make_unique<ShippingReconciler>(
                                   clock, options.shipment_processing)});
  specs.push_back({"email", std::make_unique<EmailReconciler>()});
  specs.push_back(
      {"recommendation", std::make_unique<RecommendationReconciler>()});
  specs.push_back({"ad", std::make_unique<AdReconciler>()});
  specs.push_back({"inventory", std::make_unique<InventoryReconciler>()});

  for (auto& spec : specs) {
    de::ObjectStore& store =
        de.create_store(std::string("knactor-") + spec.name);
    auto knactor = std::make_unique<Knactor>(spec.name,
                                             std::move(spec.reconciler));
    knactor->bind_object_store("state", store);
    runtime.add_knactor(std::move(knactor));
  }
  app.checkout_store = de.store("knactor-checkout");
  app.shipping_store = de.store("knactor-shipping");
  app.payment_store = de.store("knactor-payment");

  // RBAC: least-privilege roles per knactor; the integrator may write only
  // "+kr: external" fields of each target store.
  if (options.rbac) {
    de::Rbac& rbac = de.rbac();
    for (auto& spec : specs) {
      de::Role role;
      role.name = std::string("role-") + spec.name;
      de::PolicyRule rule;
      rule.store = std::string("knactor-") + spec.name;
      rule.verbs = {de::Verb::kGet, de::Verb::kList, de::Verb::kWatch,
                    de::Verb::kCreate, de::Verb::kUpdate, de::Verb::kDelete};
      role.rules.push_back(rule);
      (void)rbac.add_role(role);
      (void)rbac.bind(std::string("knactor:") + spec.name, role.name);
    }
    de::Role integ;
    integ.name = "role-integrator";
    struct Target {
      const char* store;
      const char* schema_id;
    };
    for (auto [store, schema_id] :
         {Target{"knactor-checkout", "OnlineRetail/v1/Checkout/Order"},
          Target{"knactor-shipping", "OnlineRetail/v1/Shipping/Shipment"},
          Target{"knactor-payment", "OnlineRetail/v1/Payment/Charge"},
          Target{"knactor-email", "OnlineRetail/v1/Email/Notification"},
          Target{"knactor-recommendation",
                 "OnlineRetail/v1/Recommendation/Profile"},
          Target{"knactor-ad", "OnlineRetail/v1/Ad/Context"},
          Target{"knactor-inventory", "OnlineRetail/v1/Inventory/Ledger"},
          Target{"knactor-frontend", "OnlineRetail/v1/Frontend/Session"},
          Target{"knactor-cart", "OnlineRetail/v1/Cart/Cart"},
          Target{"knactor-catalog", "OnlineRetail/v1/Catalog/Products"},
          Target{"knactor-currency", "OnlineRetail/v1/Currency/Rates"}}) {
      de::PolicyRule read;
      read.store = store;
      read.verbs = {de::Verb::kGet, de::Verb::kList, de::Verb::kWatch};
      integ.rules.push_back(read);
      const de::StoreSchema* schema = runtime.schemas().find(schema_id);
      if (schema != nullptr) {
        auto external = schema->external_fields();
        if (!external.empty()) {
          de::PolicyRule write;
          write.store = store;
          write.verbs = {de::Verb::kUpdate};
          write.fields.allowed = external;
          integ.rules.push_back(write);
        }
      }
    }
    (void)rbac.add_role(integ);
    (void)rbac.bind("integrator:retail", "role-integrator");
    de::Role admin;
    admin.name = "role-admin";
    de::PolicyRule all;
    all.store = "*";
    all.verbs = {de::Verb::kGet, de::Verb::kList, de::Verb::kWatch,
                 de::Verb::kCreate, de::Verb::kUpdate, de::Verb::kDelete,
                 de::Verb::kInvokeUdf};
    admin.rules.push_back(all);
    (void)rbac.add_role(admin);
    (void)rbac.bind("admin", "role-admin");
    rbac.set_enabled(true);
  }

  // Configure the Cast integrator with the DXG.
  auto dxg = core::Dxg::parse(options.full_dxg ? kRetailDxgFull : kRetailDxg);
  if (!dxg.ok()) {
    KN_ERROR << "retail: DXG parse failed: " << dxg.error().to_string();
    return app;
  }
  std::map<std::string, de::ObjectStore*> bindings = {
      {"C", de.store("knactor-checkout")},
      {"S", de.store("knactor-shipping")},
      {"P", de.store("knactor-payment")},
  };
  if (options.full_dxg) {
    bindings["E"] = de.store("knactor-email");
    bindings["R"] = de.store("knactor-recommendation");
    bindings["A"] = de.store("knactor-ad");
    bindings["I"] = de.store("knactor-inventory");
    bindings["F"] = de.store("knactor-frontend");
  }
  core::CastIntegrator::Options copts;
  copts.compute = options.integrator_compute;
  copts.retry = options.integrator_retry;
  copts.batch_window = options.batch_window;
  copts.metrics = options.metrics != nullptr ? options.metrics
                                             : &runtime.metrics();
  auto integrator = std::make_unique<core::CastIntegrator>(
      "retail", de, dxg.take(), std::move(bindings), copts, &runtime.schemas(),
      &runtime.tracer());
  app.integrator = integrator.get();
  runtime.add_integrator(std::move(integrator));

  auto started = runtime.start_all();
  if (!started.ok()) {
    KN_ERROR << "retail: start failed: " << started.error().to_string();
  }
  if (options.pushdown) {
    auto pd = app.integrator->enable_pushdown();
    if (!pd.ok()) {
      KN_ERROR << "retail: pushdown failed: " << pd.error().to_string();
    }
  }
  runtime.run_until_idle();
  return app;
}

Result<Value> RetailKnactorApp::place_order_sync(Value order) {
  if (checkout_store == nullptr) {
    return Error::failed_precondition("retail app not built");
  }
  auto put = checkout_store->put_sync("knactor:checkout", "order",
                                      std::move(order));
  KN_TRY(put);
  sim::VirtualClock& clock = runtime->clock();
  auto done = [this]() {
    const StateObject* obj = checkout_store->peek("order");
    if (obj == nullptr || !obj->data) return false;
    const Value* tracking = obj->data->get("trackingID");
    const Value* status = obj->data->get("status");
    return tracking != nullptr && !tracking->is_null() && status != nullptr &&
           status->is_string() && status->as_string() == "shipped";
  };
  while (!done() && clock.step()) {
  }
  // Let trailing exchanges (email, recommendations) settle.
  runtime->run_until_idle();
  const StateObject* obj = checkout_store->peek("order");
  if (obj == nullptr || !obj->data) {
    return Error::internal("retail: order object disappeared");
  }
  if (!done()) {
    return Error::internal("retail: order did not complete (queue drained)");
  }
  return *obj->data;
}

void RetailKnactorApp::reset_order_state() {
  if (de == nullptr) return;
  // Pause the exchange while wiping: otherwise a pass triggered by one
  // deletion would re-create the target object from not-yet-deleted
  // sources (e.g. C.order.paymentID re-filled from the old P.id).
  bool was_pushdown = integrator != nullptr && integrator->pushdown_enabled();
  if (integrator != nullptr) {
    if (was_pushdown) integrator->disable_pushdown();
    integrator->stop();
  }
  const char* principal = options.rbac ? "admin" : "reset";
  for (const char* store_name :
       {"knactor-checkout", "knactor-payment", "knactor-shipping",
        "knactor-email", "knactor-recommendation", "knactor-ad",
        "knactor-inventory"}) {
    de::ObjectStore* store = de->store(store_name);
    if (store == nullptr) continue;
    for (const auto& key : store->keys()) {
      if (key == "order" || key == "state") {
        (void)store->remove_sync(principal, key);
      }
    }
  }
  runtime->run_until_idle();
  if (integrator != nullptr) {
    if (was_pushdown) (void)integrator->enable_pushdown();
    (void)integrator->start();
    runtime->run_until_idle();
  }
}

}  // namespace knactor::apps
