// Cross-module integration tests: live reconfiguration, schema evolution,
// durability, retention, and tracing over the full retail app.
#include <gtest/gtest.h>

#include "apps/retail_knactor.h"
#include "apps/retail_rpc.h"
#include "apps/retail_specs.h"
#include "de/retention.h"

namespace knactor {
namespace {

using common::Value;

apps::RetailKnactorOptions fast_options() {
  apps::RetailKnactorOptions options;
  options.shipment_processing = sim::LatencyModel::constant_ms(50.0);
  options.payment_processing = sim::LatencyModel::constant_ms(1.0);
  return options;
}

TEST(Integration, LiveReconfigurationAddsPolicyWithoutRedeploy) {
  // Run the app with the T1 DXG (no shipment-method policy), then add the
  // T2 policy at run-time and observe it applying to the next order —
  // no service was rebuilt or redeployed (§3.3).
  core::Runtime runtime;
  auto app = apps::build_retail_knactor_app(runtime, fast_options());

  // Strip the method mapping (pre-T2 configuration).
  std::string pre_t2(apps::kRetailDxg);
  auto pos = pre_t2.find("    method: >");
  ASSERT_NE(pos, std::string::npos);
  pre_t2.resize(pos);
  ASSERT_TRUE(app.integrator->reconfigure_yaml(pre_t2).ok());

  // Without a method, shipping never starts: the order stalls at "paid".
  auto put = app.checkout_store->put_sync("knactor:checkout", "order",
                                          apps::expensive_order());
  ASSERT_TRUE(put.ok());
  runtime.run_until_idle();
  const de::StateObject* shipment = app.shipping_store->peek("state");
  ASSERT_NE(shipment, nullptr);
  EXPECT_EQ(shipment->data->get("method"), nullptr);
  EXPECT_EQ(shipment->data->get("id"), nullptr);

  // Live reconfiguration to the full Fig. 6 DXG (with the T2 policy).
  ASSERT_TRUE(app.integrator->reconfigure_yaml(apps::kRetailDxg).ok());
  runtime.run_until_idle();
  shipment = app.shipping_store->peek("state");
  ASSERT_NE(shipment->data->get("method"), nullptr);
  EXPECT_EQ(shipment->data->get("method")->as_string(), "air");
  // The stalled order now completes.
  const de::StateObject* order = app.checkout_store->peek("order");
  ASSERT_NE(order, nullptr);
  EXPECT_NE(order->data->get("trackingID"), nullptr);
}

TEST(Integration, SchemaEvolutionHandledInIntegratorOnly) {
  // T3: Shipping moves to a v2 schema (packages/address). In Knactor only
  // the integrator's DXG changes; Checkout's data and reconciler are
  // untouched.
  core::Runtime runtime;
  auto app = apps::build_retail_knactor_app(runtime, fast_options());

  const char* v2_dxg = R"(Input:
  C: OnlineRetail/v1/Checkout/knactor-checkout
  S: OnlineRetail/v2/Shipping/knactor-shipping
  P: OnlineRetail/v1/Payment/knactor-payment
DXG:
  C.order:
    shippingCost: >
      currency_convert(S.quote.price,
      S.quote.currency, this.currency)
    paymentID: P.id
    trackingID: S.id
  P:
    amount: C.order.totalCost
    currency: C.order.currency
  S:
    packages: '[{"name": item.name, "qty": item.qty} for item in C.order.items]'
    address: C.order.address
    insurance: C.order.cost > 500
    method: '"air" if C.order.cost > 1000 else "ground"'
)";
  ASSERT_TRUE(app.integrator->reconfigure_yaml(v2_dxg).ok());

  auto put = app.checkout_store->put_sync("knactor:checkout", "order",
                                          apps::sample_order(800.0));
  ASSERT_TRUE(put.ok());
  runtime.run_until_idle();
  const de::StateObject* shipment = app.shipping_store->peek("state");
  ASSERT_NE(shipment, nullptr);
  const Value* packages = shipment->data->get("packages");
  ASSERT_NE(packages, nullptr);
  ASSERT_TRUE(packages->is_array());
  EXPECT_EQ(packages->as_array()[0].get("name")->as_string(), "keyboard");
  EXPECT_EQ(packages->as_array()[0].get("qty")->as_int(), 1);
  EXPECT_NE(shipment->data->get("address"), nullptr);
  EXPECT_TRUE(shipment->data->get("insurance")->as_bool());  // 800 > 500
}

TEST(Integration, DurableDeRecoversMidPipeline) {
  core::Runtime runtime;
  apps::RetailKnactorOptions options = fast_options();
  options.de_profile = de::ObjectDeProfile::apiserver();
  auto app = apps::build_retail_knactor_app(runtime, options);
  ASSERT_TRUE(app.place_order_sync(apps::sample_order()).ok());

  // Crash-restart the DE: durable state survives; the order is intact.
  app.de->restart();
  const de::StateObject* order = app.checkout_store->peek("order");
  ASSERT_NE(order, nullptr);
  EXPECT_EQ(order->data->get("status")->as_string(), "shipped");
  EXPECT_NE(order->data->get("trackingID"), nullptr);
}

TEST(Integration, NonDurableDeLosesStateOnRestart) {
  core::Runtime runtime;
  auto app = apps::build_retail_knactor_app(runtime, fast_options());
  ASSERT_TRUE(app.place_order_sync(apps::sample_order()).ok());
  app.de->restart();
  EXPECT_EQ(app.checkout_store->peek("order"), nullptr);
}

TEST(Integration, RetentionCollectsCompletedOrders) {
  core::Runtime runtime;
  auto app = apps::build_retail_knactor_app(runtime, fast_options());
  ASSERT_TRUE(app.place_order_sync(apps::sample_order()).ok());

  de::RetentionManager retention(*app.de);
  retention.set_policy("knactor-checkout", de::RetentionPolicy::ref_count());
  retention.claim("knactor-checkout", "order", "archiver");
  // Pause the exchange so GC deletions don't re-materialize fields.
  app.integrator->stop();
  retention.release("knactor-checkout", "order", "archiver", /*done=*/true);
  EXPECT_EQ(retention.sweep("gc"), 1u);
  runtime.run_until_idle();
  EXPECT_EQ(app.checkout_store->peek("order"), nullptr);
}

TEST(Integration, RetentionTtlArchivesOldOrders) {
  core::Runtime runtime;
  auto app = apps::build_retail_knactor_app(runtime, fast_options());
  ASSERT_TRUE(app.place_order_sync(apps::sample_order()).ok());
  de::RetentionManager retention(*app.de);
  retention.set_policy("knactor-checkout",
                       de::RetentionPolicy::ttl_policy(60 * sim::kSecond));
  app.integrator->stop();
  EXPECT_EQ(retention.sweep("gc"), 0u);  // too fresh
  runtime.clock().advance(120 * sim::kSecond);
  EXPECT_EQ(retention.sweep("gc"), 1u);
}

TEST(Integration, ExchangePassesAreTraced) {
  core::Runtime runtime;
  auto app = apps::build_retail_knactor_app(runtime, fast_options());
  ASSERT_TRUE(app.place_order_sync(apps::sample_order()).ok());
  auto passes = runtime.tracer().by_name("cast.pass.retail");
  EXPECT_GE(passes.size(), 2u);
  auto snapshots = runtime.tracer().by_name("cast.snapshot.retail");
  EXPECT_GE(snapshots.size(), 2u);
  // Sub-spans parented under passes.
  bool parented = false;
  for (const auto& snap : snapshots) {
    for (const auto& pass : passes) {
      if (snap.parent == pass.id) parented = true;
    }
  }
  EXPECT_TRUE(parented);
}

TEST(Integration, KnactorAndRpcAgreeOnBusinessOutcome) {
  // Same order through both architectures: same shipping method decision
  // and an equivalent set of side effects.
  core::Runtime runtime;
  auto kn = apps::build_retail_knactor_app(runtime, fast_options());
  ASSERT_TRUE(kn.place_order_sync(apps::expensive_order()).ok());
  std::string kn_method =
      kn.shipping_store->peek("state")->data->get("method")->as_string();

  sim::VirtualClock clock;
  apps::RetailRpcOptions rpc_options;
  rpc_options.shipment_processing = sim::LatencyModel::constant_ms(50.0);
  rpc_options.payment_processing = sim::LatencyModel::constant_ms(1.0);
  apps::RetailRpcApp rpc(clock, rpc_options);
  ASSERT_TRUE(rpc.place_order_sync(1600.0, {"laptop"}).ok());

  EXPECT_EQ(kn_method, "air");  // both sides pick air for a 1600 USD order
}

TEST(Integration, IntegratorSwapReplacesCompositionEntirely) {
  // P1 (decoupling): replace the integrator with a different one that
  // routes shipping through a "premium" policy — services unchanged.
  core::Runtime runtime;
  auto app = apps::build_retail_knactor_app(runtime, fast_options());
  app.integrator->stop();

  const char* premium_dxg = R"(Input:
  C: OnlineRetail/v1/Checkout/knactor-checkout
  S: OnlineRetail/v1/Shipping/knactor-shipping
  P: OnlineRetail/v1/Payment/knactor-payment
DXG:
  C.order:
    paymentID: P.id
    trackingID: S.id
    shippingCost: 0
  P:
    amount: C.order.totalCost
    currency: C.order.currency
  S:
    items: '[item.name for item in C.order.items]'
    addr: C.order.address
    method: '"air"'
)";
  auto dxg = core::Dxg::parse(premium_dxg);
  ASSERT_TRUE(dxg.ok());
  core::CastIntegrator premium(
      "premium", *app.de, dxg.take(),
      {{"C", app.checkout_store},
       {"S", app.shipping_store},
       {"P", app.payment_store}});
  ASSERT_TRUE(premium.start().ok());

  auto put = app.checkout_store->put_sync("knactor:checkout", "order",
                                          apps::sample_order(10.0));
  ASSERT_TRUE(put.ok());
  runtime.run_until_idle();
  // Premium policy ships everything by air, free shipping.
  EXPECT_EQ(app.shipping_store->peek("state")->data->get("method")->as_string(),
            "air");
  EXPECT_DOUBLE_EQ(
      app.checkout_store->peek("order")->data->get("shippingCost")->as_number(),
      0.0);
  premium.stop();
}

TEST(Integration, ConditionalCompositionVisibleAtAppLevel) {
  // Problem 3 (visibility): with data-centric composition, an app-level
  // observer can watch the exchanged state directly.
  core::Runtime runtime;
  auto app = apps::build_retail_knactor_app(runtime, fast_options());
  std::vector<std::string> observed_methods;
  auto sub = app.shipping_store->subscribe(
      "observer", {}, [&](const de::WatchEvent& e) {
        if (!e.object.data) return;
        const Value* method = e.object.data->get("method");
        if (method != nullptr && method->is_string()) {
          observed_methods.push_back(method->as_string());
        }
      });
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(app.place_order_sync(apps::expensive_order()).ok());
  ASSERT_FALSE(observed_methods.empty());
  EXPECT_EQ(observed_methods.back(), "air");
}

}  // namespace
}  // namespace knactor
