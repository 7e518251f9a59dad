// Multi-order ("fleet") variant of the online retail app: orders live as
// `order/<id>` objects and the composition uses fan-out DXG nodes
// (`S.* / $for: C order/`), so any number of orders move through the
// pipeline concurrently — the production shape of the paper's singleton
// example. Reconcilers process per-key (no global in-flight flag).
#pragma once

#include <string>
#include <vector>

#include "core/runtime.h"

namespace knactor::apps {

struct RetailFleetOptions {
  de::ObjectDeProfile de_profile = de::ObjectDeProfile::redis();
  sim::LatencyModel shipment_processing =
      sim::LatencyModel::normal_ms(446.0, 4.0);
  sim::LatencyModel payment_processing = sim::LatencyModel::normal_ms(2.0, 0.2);
  /// Key-space shards for the runtime's DEs (deterministic; see
  /// docs/ARCHITECTURE.md).
  std::size_t shards = 1;
};

struct RetailFleetApp {
  core::Runtime* runtime = nullptr;
  de::ObjectDe* de = nullptr;
  core::CastIntegrator* integrator = nullptr;
  de::ObjectStore* checkout_store = nullptr;
  de::ObjectStore* shipping_store = nullptr;
  de::ObjectStore* payment_store = nullptr;

  /// Places `count` orders at once (alternating cheap/expensive) and runs
  /// the clock until every one is shipped. Returns the completed order
  /// objects in id order.
  common::Result<std::vector<common::Value>> place_orders_sync(int count);

  /// Number of orders currently shipped.
  [[nodiscard]] std::size_t shipped_count() const;
};

RetailFleetApp build_retail_fleet_app(core::Runtime& runtime,
                                      RetailFleetOptions options = {});

}  // namespace knactor::apps
