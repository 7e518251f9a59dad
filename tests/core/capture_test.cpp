#include "core/capture.h"

#include <gtest/gtest.h>

#include "apps/retail_knactor.h"
#include "de/query.h"
#include "de/retention.h"

namespace knactor::core {
namespace {

using common::Value;

class CaptureTest : public ::testing::Test {
 protected:
  CaptureTest()
      : ode_(clock_, de::ObjectDeProfile::instant()),
        lde_(clock_, de::LogDeProfile::instant()) {
    store_ = &ode_.create_store("s");
    pool_ = &lde_.create_pool("s-history");
  }

  sim::VirtualClock clock_;
  de::ObjectDe ode_;
  de::LogDe lde_;
  de::ObjectStore* store_ = nullptr;
  de::LogPool* pool_ = nullptr;
};

TEST_F(CaptureTest, RecordsAddModifyDelete) {
  ChangeCapture capture("cdc", *store_, *pool_);
  ASSERT_TRUE(capture.start().ok());
  (void)store_->put_sync("w", "k", Value::object({{"n", 1}}));
  (void)store_->put_sync("w", "k", Value::object({{"n", 2}}));
  (void)store_->remove_sync("w", "k");
  clock_.run_all();
  EXPECT_EQ(capture.events_captured(), 3u);
  auto records = pool_->query_sync("r", {});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 3u);
  EXPECT_EQ(records.value()[0]->get("event")->as_string(), "added");
  EXPECT_EQ(records.value()[1]->get("event")->as_string(), "modified");
  EXPECT_EQ(records.value()[2]->get("event")->as_string(), "deleted");
  EXPECT_EQ(records.value()[1]->get("data")->get("n")->as_int(), 2);
  // Versions captured monotonically.
  EXPECT_LT(records.value()[0]->get("version")->as_int(),
            records.value()[1]->get("version")->as_int());
}

TEST_F(CaptureTest, PrefixScoping) {
  ChangeCapture::Options options;
  options.key_prefix = "order/";
  ChangeCapture capture("cdc", *store_, *pool_, options);
  ASSERT_TRUE(capture.start().ok());
  (void)store_->put_sync("w", "order/1", Value::object({}));
  (void)store_->put_sync("w", "cart/1", Value::object({}));
  clock_.run_all();
  EXPECT_EQ(capture.events_captured(), 1u);
}

TEST_F(CaptureTest, MetadataOnlyMode) {
  ChangeCapture::Options options;
  options.include_data = false;
  ChangeCapture capture("cdc", *store_, *pool_, options);
  ASSERT_TRUE(capture.start().ok());
  (void)store_->put_sync("w", "k", Value::object({{"secret", "x"}}));
  clock_.run_all();
  auto records = pool_->query_sync("r", {});
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0]->get("data"), nullptr);
  EXPECT_NE(records.value()[0]->get("version"), nullptr);
}

TEST_F(CaptureTest, StopHaltsCapture) {
  ChangeCapture capture("cdc", *store_, *pool_);
  ASSERT_TRUE(capture.start().ok());
  (void)store_->put_sync("w", "a", Value::object({}));
  clock_.run_all();
  capture.stop();
  EXPECT_FALSE(capture.running());
  (void)store_->put_sync("w", "b", Value::object({}));
  clock_.run_all();
  EXPECT_EQ(capture.events_captured(), 1u);
}

TEST_F(CaptureTest, HistorySurvivesRetentionGc) {
  // The archival story end-to-end: live objects are GC'd, the change
  // history in the Log DE remains queryable (§3.3).
  ChangeCapture capture("cdc", *store_, *pool_);
  ASSERT_TRUE(capture.start().ok());
  (void)store_->put_sync("w", "order", Value::object({{"status", "pending"}}));
  (void)store_->patch_sync("w", "order",
                           Value::object({{"status", "shipped"}}));
  clock_.run_all();

  de::RetentionManager retention(ode_);
  retention.set_policy("s", de::RetentionPolicy::ref_count());
  retention.claim("s", "order", "archiver");
  retention.release("s", "order", "archiver", true);
  EXPECT_EQ(retention.sweep("gc"), 1u);
  clock_.run_all();
  EXPECT_EQ(store_->peek("order"), nullptr);

  auto query = de::parse_query(
      "where key == \"order\" | summarize n=count(event), last=last(event)");
  ASSERT_TRUE(query.ok());
  auto rows = pool_->query_sync("analyst", query.value());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0]->get("n")->as_int(), 3);  // add, modify, delete
  EXPECT_EQ(rows.value()[0]->get("last")->as_string(), "deleted");
}

TEST_F(CaptureTest, AnalyticsOverRetailOrderHistory) {
  // Attach capture to the retail app's shipping store and ask the log how
  // the order progressed.
  core::Runtime runtime;
  apps::RetailKnactorOptions options;
  options.shipment_processing = sim::LatencyModel::constant_ms(50.0);
  options.payment_processing = sim::LatencyModel::constant_ms(1.0);
  auto app = apps::build_retail_knactor_app(runtime, options);
  de::LogDe& lde = runtime.add_log_de("log", de::LogDeProfile::instant());
  de::LogPool& history = lde.create_pool("shipping-history");
  ChangeCapture capture("retail-cdc", *app.shipping_store, history);
  ASSERT_TRUE(capture.start().ok());

  ASSERT_TRUE(app.place_order_sync(apps::sample_order()).ok());
  auto query = de::parse_query("summarize versions=count(version)");
  auto rows = history.query_sync("analyst", query.value());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  // items/addr/method fill + quote + tracking id: several captured writes.
  EXPECT_GE(rows.value()[0]->get("versions")->as_int(), 3);
  capture.stop();
}

TEST_F(CaptureTest, RbacDeniedWatchSurfacesAtStart) {
  ode_.rbac().set_enabled(true);  // no roles: everything denied
  ChangeCapture capture("cdc", *store_, *pool_);
  auto status = capture.start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Error::Code::kPermissionDenied);
}

}  // namespace
}  // namespace knactor::core
