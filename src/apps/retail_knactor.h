// Knactor-style online retail app (§4): 11 knactors — frontend, cart,
// catalog, currency, checkout, payment, shipping, email, recommendation,
// ad, inventory — composed by a Cast integrator over an Object DE.
//
// Services never call each other: each reconciler reacts only to its own
// data store. The integrator (configured with the Fig. 6 DXG or the full
// extended DXG) moves state between stores.
#pragma once

#include <string>

#include "core/runtime.h"
#include "sim/latency.h"

namespace knactor::apps {

struct RetailKnactorOptions {
  /// DE profile the app's stores live on.
  de::ObjectDeProfile de_profile = de::ObjectDeProfile::redis();
  /// Use the extended all-service DXG instead of the Fig. 6 three-service
  /// one.
  bool full_dxg = false;
  /// Compile the DXG into a DE-side UDF with triggers (push-down).
  bool pushdown = false;
  /// Integrator compute latency (the Table 2 "I" column).
  sim::LatencyModel integrator_compute = sim::LatencyModel::constant_ms(0.05);
  /// External shipment-processing duration (the Table 2 "S" column; the
  /// paper's FedEx-API stand-in).
  sim::LatencyModel shipment_processing =
      sim::LatencyModel::normal_ms(446.0, 4.0);
  /// Payment-provider processing duration.
  sim::LatencyModel payment_processing = sim::LatencyModel::normal_ms(2.0, 0.2);
  /// Enable RBAC with least-privilege roles for every reconciler and the
  /// integrator.
  bool rbac = false;
  /// Exchange-pass retry policy for the Cast integrator (chaos resilience;
  /// disabled by default).
  sim::RetryPolicy integrator_retry;
  /// Server-side watch-batch window for the Cast integrator (0 = one pass
  /// per watch event; see CastIntegrator::Options::batch_window).
  sim::SimTime batch_window = 0;
  /// Optional counters sink passed through to the integrator.
  core::Metrics* metrics = nullptr;
};

/// Handles to the deployed app.
struct RetailKnactorApp {
  core::Runtime* runtime = nullptr;
  de::ObjectDe* de = nullptr;
  core::CastIntegrator* integrator = nullptr;
  de::ObjectStore* checkout_store = nullptr;
  de::ObjectStore* shipping_store = nullptr;
  de::ObjectStore* payment_store = nullptr;
  RetailKnactorOptions options;

  /// Places an order by writing it into the Checkout store (as the
  /// checkout knactor would after a cart checkout), then drives the clock
  /// until the order completes (trackingID present) or the event queue
  /// drains. Returns the final order object.
  common::Result<common::Value> place_order_sync(common::Value order);

  /// Resets per-order state so a fresh order can run (the pipeline is
  /// single-order, like the paper's benchmark).
  void reset_order_state();
};

/// Builds the app into `runtime`. The runtime must outlive the returned
/// handles.
RetailKnactorApp build_retail_knactor_app(core::Runtime& runtime,
                                          RetailKnactorOptions options = {});

/// A representative order: two items, US address, USD.
common::Value sample_order(double cost = 120.0);
/// An expensive order that triggers the air-shipping policy (T2).
common::Value expensive_order();

}  // namespace knactor::apps
