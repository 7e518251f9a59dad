// Lineage differential suite (tentpole of the tracing work): a derived
// record must be reproducible byte-for-byte from nothing but its recorded
// lineage inputs and the same integrator logic. The exported causal trace
// and lineage of a seeded retail run are pinned by the golden-history
// suite (tests/property/golden_history_test.cpp).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/retail_knactor.h"
#include "apps/smart_home.h"
#include "common/json.h"
#include "core/cast.h"
#include "core/runtime.h"
#include "de/log.h"
#include "de/object.h"

namespace knactor {
namespace {

using common::Value;

// Replays a Cast lineage record through a fresh integrator hosting ONLY
// the recorded inputs, running the same DXG. Returns the
// rebuilt record's bytes ("" when the replay produced nothing).
std::string replay_cast_record(const core::Dxg& dxg,
                               const core::LineageRecord& rec) {
  sim::VirtualClock clock;
  de::ObjectDe replay_de{clock, de::ObjectDeProfile::instant()};
  std::map<std::string, de::ObjectStore*> bindings;
  for (const auto& [alias, store_id] : dxg.inputs()) {
    auto slash = store_id.rfind('/');
    std::string store_name =
        slash == std::string::npos ? store_id : store_id.substr(slash + 1);
    de::ObjectStore* store = replay_de.store(store_name);
    if (store == nullptr) store = &replay_de.create_store(store_name);
    bindings[alias] = store;
  }
  for (const auto& input : rec.inputs) {
    if (!input.data) return "";
    de::ObjectStore* store = replay_de.store(input.store);
    if (store == nullptr) store = &replay_de.create_store(input.store);
    auto put = store->put_sync("replay", input.key, Value(*input.data));
    if (!put.ok()) return "";
  }
  core::CastIntegrator cast("replay", replay_de, dxg, bindings);
  for (int round = 0; round < 8; ++round) {
    auto written = cast.run_pass_sync();
    if (!written.ok() || written.value() == 0) break;
  }
  const de::StateObject* rebuilt =
      replay_de.store(rec.output.store) != nullptr
          ? replay_de.store(rec.output.store)->peek(rec.output.key)
          : nullptr;
  return rebuilt != nullptr && rebuilt->data ? common::to_json(*rebuilt->data)
                                             : "";
}

// Newest lineage record for (store, key) produced by a Cast pass — the
// ring also holds the kernel's per-commit version-chain records
// (op "write:<principal>"), which replay through the DXG does not apply to.
const core::LineageRecord* latest_cast(const core::ProvenanceRing& ring,
                                       const std::string& store,
                                       const std::string& key) {
  const auto& records = ring.records();
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->op.rfind("cast:", 0) == 0 && it->output.store == store &&
        it->output.key == key) {
      return &*it;
    }
  }
  return nullptr;
}

// One retail order with lineage + tracing on; hands the live app to
// `inspect`.
void run_retail(const std::function<void(apps::RetailKnactorApp&)>& inspect) {
  core::Runtime rt;
  rt.enable_lineage();
  auto app = apps::build_retail_knactor_app(rt, apps::RetailKnactorOptions{});
  EXPECT_TRUE(rt.start_all().ok());
  auto order = app.place_order_sync(apps::sample_order());
  EXPECT_TRUE(order.ok());
  EXPECT_NE(order.value().get("trackingID"), nullptr);
  inspect(app);
}

TEST(LineageDifferential, RetailDerivedRecordsReplayByteForByte) {
  run_retail([](apps::RetailKnactorApp& app) {
    const auto& ring = app.de->kernel().provenance();
    ASSERT_FALSE(ring.records().empty());
    for (const char* target : {"knactor-checkout", "knactor-shipping",
                               "knactor-payment"}) {
      const char* key =
          std::string(target) == "knactor-checkout" ? "order" : "state";
      const core::LineageRecord* rec = latest_cast(ring, target, key);
      ASSERT_NE(rec, nullptr) << target;
      ASSERT_NE(rec->output.data, nullptr) << target;
      EXPECT_EQ(replay_cast_record(app.integrator->dxg(), *rec),
                common::to_json(*rec->output.data))
          << target << "/" << key << "@" << rec->output.version;
    }
  });
}

// Every recorded derivation — not just the final state — must replay.
TEST(LineageDifferential, EveryRetailLineageRecordReplays) {
  run_retail([](apps::RetailKnactorApp& app) {
    const auto& ring = app.de->kernel().provenance();
    std::size_t replayed = 0;
    for (const auto& rec : ring.records()) {
      if (rec.op != "cast:retail" || !rec.output.data) continue;
      EXPECT_EQ(replay_cast_record(app.integrator->dxg(), rec),
                common::to_json(*rec.output.data))
          << rec.output.store << "/" << rec.output.key << "@"
          << rec.output.version;
      ++replayed;
    }
    EXPECT_GT(replayed, 0u);
  });
}

// Sync (log pipeline) lineage: each synced house record replays from its
// single attributed motion record through the same route pipeline.
TEST(LineageDifferential, SmartHomeSyncRecordsReplayByteForByte) {
  core::Runtime rt;
  rt.enable_lineage();
  auto app = apps::build_smart_home_knactor_app(rt);
  ASSERT_TRUE(rt.start_all().ok());
  app.trigger_motion(true);
  app.settle();
  app.trigger_motion(false);
  app.settle();
  const auto& ring = app.log_de->kernel().provenance();
  std::size_t replayed = 0;
  for (const auto& rec : ring.records()) {
    if (rec.op.rfind("sync:", 0) != 0) continue;
    ASSERT_NE(rec.output.data, nullptr);
    // Both smart-home routes target the house pool, so match the route by
    // name (the op is "sync:<integrator>/<route>").
    const core::SyncRoute* route = nullptr;
    for (const auto& r : app.sync->routes()) {
      if (rec.op == "sync:" + app.sync->name() + "/" + r.name) route = &r;
    }
    ASSERT_NE(route, nullptr) << rec.op;
    std::vector<Value> inputs;
    for (const auto& ref : rec.inputs) {
      ASSERT_NE(ref.data, nullptr);
      inputs.push_back(Value(*ref.data));
    }
    auto out = de::run_pipeline(route->pipeline, std::move(inputs));
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.value().size(), 1u);  // record-local: 1:1 attribution
    EXPECT_EQ(common::to_json(out.value()[0]),
              common::to_json(*rec.output.data))
        << rec.output.store << "/" << rec.output.key;
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);
}

// Chaos seed: a knactor crash mid-order (heal via restart + resync) must
// not leave dangling lineage — the final record's derivation chain still
// closes (every input payload present) and still replays byte-for-byte.
TEST(LineageDifferential, LineageClosesUnderChaos) {
  core::Runtime rt;
  rt.enable_lineage();
  apps::RetailKnactorOptions options;
  options.shipment_processing = sim::LatencyModel::constant_ms(10.0);
  options.payment_processing = sim::LatencyModel::constant_ms(1.0);
  auto app = apps::build_retail_knactor_app(rt, options);
  ASSERT_TRUE(rt.start_all().ok());

  core::Knactor* shipping = rt.knactor("shipping");
  ASSERT_NE(shipping, nullptr);
  shipping->stop();
  ASSERT_TRUE(app.checkout_store
                  ->put_sync("knactor:checkout", "order",
                             apps::sample_order())
                  .ok());
  rt.run_until_idle();
  shipping->start();
  ASSERT_TRUE(shipping->resync().ok());
  rt.run_until_idle();

  const de::StateObject* order = app.checkout_store->peek("order");
  ASSERT_NE(order, nullptr);
  ASSERT_NE(order->data->get("trackingID"), nullptr);

  const auto& ring = app.de->kernel().provenance();
  auto dag = core::lineage_dag(ring, "knactor-checkout", "order");
  ASSERT_FALSE(dag.empty());
  bool saw_shipping = false;
  for (const auto& node : dag) {
    ASSERT_NE(node.ref.data, nullptr)
        << node.ref.store << "/" << node.ref.key << "@" << node.ref.version;
    if (node.ref.store == "knactor-shipping") saw_shipping = true;
  }
  EXPECT_TRUE(saw_shipping);
  const core::LineageRecord* rec =
      latest_cast(ring, "knactor-checkout", "order");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(replay_cast_record(app.integrator->dxg(), *rec),
            common::to_json(*rec->output.data));
}

}  // namespace
}  // namespace knactor
