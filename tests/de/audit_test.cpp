#include <gtest/gtest.h>

#include "de/object.h"

namespace knactor::de {
namespace {

using common::Value;

class AuditTest : public ::testing::Test {
 protected:
  AuditTest() : de_(clock_, ObjectDeProfile::instant()) {
    store_ = &de_.create_store("s");
  }

  sim::VirtualClock clock_;
  ObjectDe de_;
  ObjectStore* store_ = nullptr;
};

TEST_F(AuditTest, DisabledByDefault) {
  (void)store_->put_sync("me", "k", Value::object({}));
  EXPECT_TRUE(de_.audit_log().empty());
}

TEST_F(AuditTest, RecordsAllowedOperations) {
  de_.enable_audit();
  (void)store_->put_sync("alice", "k", Value::object({{"a", 1}}));
  (void)store_->get_sync("bob", "k");
  ASSERT_EQ(de_.audit_log().size(), 2u);
  const auto& write = de_.audit_log()[0];
  EXPECT_EQ(write.principal, "alice");
  EXPECT_EQ(write.verb, Verb::kUpdate);
  EXPECT_EQ(write.store, "s");
  EXPECT_EQ(write.key, "k");
  EXPECT_TRUE(write.allowed);
  EXPECT_EQ(de_.audit_log()[1].principal, "bob");
  EXPECT_EQ(de_.audit_log()[1].verb, Verb::kGet);
}

TEST_F(AuditTest, RecordsDenials) {
  Rbac& rbac = de_.rbac();
  Role reader;
  reader.name = "reader";
  PolicyRule rule;
  rule.store = "s";
  rule.verbs = {Verb::kGet};
  reader.rules.push_back(rule);
  ASSERT_TRUE(rbac.add_role(reader).ok());
  ASSERT_TRUE(rbac.bind("alice", "reader").ok());
  rbac.set_enabled(true);
  de_.enable_audit();

  EXPECT_FALSE(store_->put_sync("alice", "k", Value::object({})).ok());
  ASSERT_EQ(de_.audit_log().size(), 1u);
  EXPECT_FALSE(de_.audit_log()[0].allowed);
  EXPECT_EQ(de_.audit_log()[0].verb, Verb::kUpdate);
}

TEST_F(AuditTest, RecordsWatchRegistrations) {
  de_.enable_audit();
  SubscriptionSpec spec;
  spec.prefix = "prefix/";
  ASSERT_TRUE(
      store_->subscribe("observer", spec, [](const WatchEvent&) {}).ok());
  ASSERT_EQ(de_.audit_log().size(), 1u);
  EXPECT_EQ(de_.audit_log()[0].verb, Verb::kWatch);
  EXPECT_EQ(de_.audit_log()[0].key, "prefix/");
}

TEST_F(AuditTest, RingBufferBounded) {
  de_.enable_audit(5);
  for (int i = 0; i < 20; ++i) {
    (void)store_->put_sync("w", "k" + std::to_string(i), Value::object({}));
  }
  EXPECT_EQ(de_.audit_log().size(), 5u);
  // The newest entries survive.
  EXPECT_EQ(de_.audit_log().back().key, "k19");
  EXPECT_EQ(de_.audit_log().front().key, "k15");
}

TEST_F(AuditTest, DisableStopsRecording) {
  de_.enable_audit();
  (void)store_->put_sync("w", "a", Value::object({}));
  de_.disable_audit();
  (void)store_->put_sync("w", "b", Value::object({}));
  EXPECT_EQ(de_.audit_log().size(), 1u);
}

TEST_F(AuditTest, TimestampsAreSimTime) {
  ObjectDe timed(clock_, ObjectDeProfile::redis());
  ObjectStore& store = timed.create_store("s");
  timed.enable_audit();
  (void)store.put_sync("w", "k", Value::object({}));
  ASSERT_EQ(timed.audit_log().size(), 1u);
  EXPECT_GT(timed.audit_log()[0].time, 0);
}

TEST_F(AuditTest, UdfAccessesAudited) {
  de_.enable_audit();
  (void)de_.register_udf("owner", "f",
                         [](UdfContext& ctx, const Value&)
                             -> common::Result<Value> {
                           Value v = Value::object();
                           v.set("x", Value(1));
                           KN_TRY(ctx.put("s", "k", v));
                           return Value(true);
                         });
  ASSERT_TRUE(de_.call_udf_sync("caller", "f", Value::object({})).ok());
  // The invoke check and the engine write are both on the trail.
  bool saw_invoke = false;
  bool saw_engine_write = false;
  for (const auto& entry : de_.audit_log()) {
    if (entry.verb == Verb::kInvokeUdf && entry.principal == "caller") {
      saw_invoke = true;
    }
    if (entry.verb == Verb::kUpdate && entry.principal == "owner") {
      saw_engine_write = true;
    }
  }
  EXPECT_TRUE(saw_invoke);
  EXPECT_TRUE(saw_engine_write);
}

}  // namespace
}  // namespace knactor::de
