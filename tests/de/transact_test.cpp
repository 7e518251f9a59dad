#include <gtest/gtest.h>

#include "de/object.h"

namespace knactor::de {
namespace {

using common::Value;

class TransactTest : public ::testing::Test {
 protected:
  TransactTest() : de_(clock_, ObjectDeProfile::instant()) {
    a_ = &de_.create_store("a");
    b_ = &de_.create_store("b");
  }

  sim::VirtualClock clock_;
  ObjectDe de_;
  ObjectStore* a_ = nullptr;
  ObjectStore* b_ = nullptr;
};

TEST_F(TransactTest, AppliesAllWrites) {
  std::vector<ObjectDe::TxnOp> ops;
  ops.push_back({"a", "k1", Value::object({{"x", 1}}), true, std::nullopt});
  ops.push_back({"b", "k2", Value::object({{"y", 2}}), true, std::nullopt});
  auto r = de_.transact_sync("me", std::move(ops));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(a_->peek("k1")->data->get("x")->as_int(), 1);
  EXPECT_EQ(b_->peek("k2")->data->get("y")->as_int(), 2);
}

TEST_F(TransactTest, UnknownStoreAbortsEverything) {
  std::vector<ObjectDe::TxnOp> ops;
  ops.push_back({"a", "k1", Value::object({{"x", 1}}), true, std::nullopt});
  ops.push_back({"ghost", "k2", Value::object({}), true, std::nullopt});
  auto r = de_.transact_sync("me", std::move(ops));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(a_->peek("k1"), nullptr);  // nothing applied
}

TEST_F(TransactTest, VersionConflictAbortsEverything) {
  (void)a_->put_sync("me", "k1", Value::object({{"x", 0}}));
  std::vector<ObjectDe::TxnOp> ops;
  ops.push_back({"b", "k2", Value::object({{"y", 2}}), true, std::nullopt});
  ObjectDe::TxnOp guarded{"a", "k1", Value::object({{"x", 1}}), true,
                          std::uint64_t{9999}};
  ops.push_back(std::move(guarded));
  auto r = de_.transact_sync("me", std::move(ops));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, common::Error::Code::kFailedPrecondition);
  EXPECT_EQ(b_->peek("k2"), nullptr);
  EXPECT_EQ(a_->peek("k1")->data->get("x")->as_int(), 0);
}

TEST_F(TransactTest, RbacDenialAbortsEverything) {
  Rbac& rbac = de_.rbac();
  Role only_a;
  only_a.name = "only-a";
  PolicyRule rule;
  rule.store = "a";
  rule.verbs = {Verb::kUpdate};
  only_a.rules.push_back(rule);
  ASSERT_TRUE(rbac.add_role(only_a).ok());
  ASSERT_TRUE(rbac.bind("limited", "only-a").ok());
  rbac.set_enabled(true);

  std::vector<ObjectDe::TxnOp> ops;
  ops.push_back({"a", "k1", Value::object({{"x", 1}}), true, std::nullopt});
  ops.push_back({"b", "k2", Value::object({{"y", 2}}), true, std::nullopt});
  auto r = de_.transact_sync("limited", std::move(ops));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, common::Error::Code::kPermissionDenied);
  EXPECT_EQ(a_->peek("k1"), nullptr);
}

TEST_F(TransactTest, WatchesFireAfterFullCommit) {
  // An observer of store `a` must already see store `b`'s write when its
  // event for `a` arrives (atomicity from the observer's perspective).
  bool b_was_visible = false;
  ASSERT_TRUE(a_->subscribe("me", {},
                            [&](const WatchEvent&) {
                              b_was_visible = b_->peek("k2") != nullptr;
                            })
                  .ok());
  std::vector<ObjectDe::TxnOp> ops;
  ops.push_back({"a", "k1", Value::object({{"x", 1}}), true, std::nullopt});
  ops.push_back({"b", "k2", Value::object({{"y", 2}}), true, std::nullopt});
  ASSERT_TRUE(de_.transact_sync("me", std::move(ops)).ok());
  clock_.run_all();
  EXPECT_TRUE(b_was_visible);
}

TEST_F(TransactTest, AbortedTransactionAuditsWritesButNoWatch) {
  // Watch decisions are made when an epoch publishes; an aborted one
  // publishes nothing, so only its write decisions reach the trail.
  ASSERT_TRUE(a_->subscribe("observer", {}, [](const WatchEvent&) {}).ok());
  de_.enable_audit();
  std::vector<ObjectDe::TxnOp> ops;
  ops.push_back({"a", "k1", Value::object({{"x", 1}}), true, std::nullopt});
  ops.push_back({"a", "k2", Value::object({{"x", 2}}), true,
                 std::uint64_t{9999}});
  auto r = de_.transact_sync("me", std::move(ops));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, common::Error::Code::kFailedPrecondition);
  const auto& trail = de_.audit_log();
  ASSERT_EQ(trail.size(), 2u);
  for (const AuditEntry& e : trail) {
    EXPECT_EQ(e.verb, Verb::kUpdate);
    EXPECT_EQ(e.principal, "me");
    EXPECT_TRUE(e.allowed);
  }
  EXPECT_EQ(trail[0].key, "k1");
  EXPECT_EQ(trail[1].key, "k2");
}

TEST_F(TransactTest, TriggersFireOncePerWrite) {
  int fired = 0;
  ASSERT_TRUE(de_.register_udf("me", "count",
                               [&fired](UdfContext&, const Value&)
                                   -> common::Result<Value> {
                                 ++fired;
                                 return Value(nullptr);
                               })
                  .ok());
  ASSERT_TRUE(de_.add_trigger("a", "", "count").ok());
  std::vector<ObjectDe::TxnOp> ops;
  ops.push_back({"a", "k1", Value::object({{"x", 1}}), true, std::nullopt});
  ops.push_back({"a", "k2", Value::object({{"x", 2}}), true, std::nullopt});
  ASSERT_TRUE(de_.transact_sync("me", std::move(ops)).ok());
  clock_.run_all();
  EXPECT_EQ(fired, 2);
}

TEST_F(TransactTest, MergeAndReplaceSemantics) {
  (void)a_->put_sync("me", "k", Value::object({{"keep", 1}, {"old", 2}}));
  std::vector<ObjectDe::TxnOp> merge_ops;
  merge_ops.push_back({"a", "k", Value::object({{"new", 3}}), true,
                       std::nullopt});
  ASSERT_TRUE(de_.transact_sync("me", std::move(merge_ops)).ok());
  EXPECT_NE(a_->peek("k")->data->get("keep"), nullptr);
  EXPECT_NE(a_->peek("k")->data->get("new"), nullptr);

  std::vector<ObjectDe::TxnOp> replace_ops;
  replace_ops.push_back({"a", "k", Value::object({{"only", 4}}), false,
                         std::nullopt});
  ASSERT_TRUE(de_.transact_sync("me", std::move(replace_ops)).ok());
  EXPECT_EQ(a_->peek("k")->data->get("keep"), nullptr);
  EXPECT_NE(a_->peek("k")->data->get("only"), nullptr);
}

TEST_F(TransactTest, ChargesOneWriteRoundTrip) {
  ObjectDe timed(clock_, ObjectDeProfile::redis());
  timed.create_store("a");
  timed.create_store("b");
  timed.create_store("c");
  sim::SimTime t0 = clock_.now();
  std::vector<ObjectDe::TxnOp> ops;
  for (const char* s : {"a", "b", "c"}) {
    ops.push_back({s, "k", Value::object({{"x", 1}}), true, std::nullopt});
  }
  ASSERT_TRUE(timed.transact_sync("me", std::move(ops)).ok());
  sim::SimTime txn_time = clock_.now() - t0;
  // One round trip (~2.7 ms), not three.
  EXPECT_LT(txn_time, sim::from_ms(4.0));
  EXPECT_GT(txn_time, sim::from_ms(1.5));
}

TEST_F(TransactTest, UpdateSyncReadModifyWrite) {
  (void)a_->put_sync("me", "counter", Value::object({{"n", 0}}));
  for (int i = 0; i < 5; ++i) {
    auto r = a_->update_sync("me", "counter", [](const Value& current) {
      Value next = current.is_object() ? current : Value::object();
      std::int64_t n = 0;
      if (const Value* v = next.get("n"); v != nullptr && v->is_int()) {
        n = v->as_int();
      }
      next.set("n", Value(n + 1));
      return next;
    });
    ASSERT_TRUE(r.ok()) << r.error().to_string();
  }
  EXPECT_EQ(a_->peek("counter")->data->get("n")->as_int(), 5);
}

TEST_F(TransactTest, UpdateSyncCreatesMissingObject) {
  auto r = a_->update_sync("me", "fresh", [](const Value&) {
    return Value::object({{"born", true}});
  });
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(a_->peek("fresh")->data->get("born")->as_bool());
}

TEST_F(TransactTest, UpdateSyncRetriesThroughInterferingWriter) {
  (void)a_->put_sync("me", "k", Value::object({{"n", 0}}));
  // An interfering writer bumps the version between our read and write by
  // hooking the store's watch (fires on our first failed attempt's read —
  // we emulate interference by mutating on a schedule).
  bool interfered = false;
  int calls = 0;
  auto r = a_->update_sync("me", "k", [&](const Value& current) {
    ++calls;
    if (!interfered) {
      interfered = true;
      // Direct conflicting write while our optimistic txn is in flight.
      (void)a_->put_sync("me", "k", Value::object({{"n", 100}}));
    }
    Value next = current;
    std::int64_t n = next.get("n") != nullptr ? next.get("n")->as_int() : 0;
    next.set("n", Value(n + 1));
    return next;
  });
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  // First attempt read n=0 but conflicted; retry read n=100 and wrote 101.
  EXPECT_GE(calls, 2);
  EXPECT_EQ(a_->peek("k")->data->get("n")->as_int(), 101);
}

}  // namespace
}  // namespace knactor::de
