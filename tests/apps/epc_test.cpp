#include "apps/epc.h"

#include <gtest/gtest.h>

namespace knactor::apps {
namespace {

using common::Value;

TEST(EpcKnactor, PremiumSubscriberAttaches) {
  core::Runtime runtime;
  auto app = build_epc_knactor_app(runtime);
  auto attach = app.attach_sync("001010000000001");
  ASSERT_TRUE(attach.ok()) << attach.error().to_string();
  const Value& a = attach.value();
  EXPECT_EQ(a.get("state")->as_string(), "active");
  EXPECT_TRUE(a.get("authorized")->as_bool());
  EXPECT_EQ(a.get("qos")->as_string(), "qci5");  // premium plan
  EXPECT_NE(a.get("bearerID"), nullptr);
  EXPECT_NE(a.get("ipAddress"), nullptr);
}

TEST(EpcKnactor, BasicSubscriberGetsBasicQos) {
  core::Runtime runtime;
  auto app = build_epc_knactor_app(runtime);
  auto attach = app.attach_sync("001010000000002");
  ASSERT_TRUE(attach.ok());
  EXPECT_EQ(attach.value().get("qos")->as_string(), "qci9");
  EXPECT_EQ(attach.value().get("state")->as_string(), "active");
}

TEST(EpcKnactor, BlockedSubscriberRejected) {
  core::Runtime runtime;
  auto app = build_epc_knactor_app(runtime);
  auto attach = app.attach_sync("001010000000666");
  ASSERT_TRUE(attach.ok());
  EXPECT_EQ(attach.value().get("state")->as_string(), "rejected");
  EXPECT_FALSE(attach.value().get("authorized")->as_bool());
  // The authorization gate kept state out of the bearer function.
  const de::StateObject* bearer = app.bearer_store->peek("state");
  if (bearer != nullptr && bearer->data) {
    EXPECT_EQ(bearer->data->get("imsi"), nullptr);
    EXPECT_EQ(bearer->data->get("bearerID"), nullptr);
  }
}

TEST(EpcKnactor, UnknownSubscriberRejected) {
  core::Runtime runtime;
  auto app = build_epc_knactor_app(runtime);
  auto attach = app.attach_sync("999999999999999");
  ASSERT_TRUE(attach.ok());
  EXPECT_EQ(attach.value().get("state")->as_string(), "rejected");
}

TEST(EpcKnactor, SequentialAttachesWithReset) {
  core::Runtime runtime;
  auto app = build_epc_knactor_app(runtime);
  ASSERT_TRUE(app.attach_sync("001010000000001").ok());
  app.reset_attach_state();
  EXPECT_EQ(app.session_store->peek("attach"), nullptr);
  auto second = app.attach_sync("001010000000002");
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().get("state")->as_string(), "active");
  // Fresh bearer for the second UE.
  EXPECT_NE(second.value().get("bearerID")->as_string(),
            std::string("brr-1"));
}

TEST(EpcKnactor, BearerOnlyAfterAuthorization) {
  // Watch the bearer store: it must never see an unauthorized imsi.
  core::Runtime runtime;
  auto app = build_epc_knactor_app(runtime);
  std::vector<std::string> seen_imsis;
  auto sub = app.bearer_store->subscribe(
      "observer", {}, [&](const de::WatchEvent& e) {
        if (!e.object.data) return;
        const Value* imsi = e.object.data->get("imsi");
        if (imsi != nullptr && imsi->is_string()) {
          seen_imsis.push_back(imsi->as_string());
        }
      });
  ASSERT_TRUE(sub.ok());
  (void)app.attach_sync("001010000000666");  // blocked
  EXPECT_TRUE(seen_imsis.empty());
  app.reset_attach_state();
  (void)app.attach_sync("001010000000001");  // allowed
  ASSERT_FALSE(seen_imsis.empty());
  EXPECT_EQ(seen_imsis.back(), "001010000000001");
}

TEST(EpcRpc, AttachChainsAcrossFunctions) {
  sim::VirtualClock clock;
  EpcRpcApp app(clock);
  auto attach = app.attach_sync("001010000000001");
  ASSERT_TRUE(attach.ok()) << attach.error().to_string();
  EXPECT_EQ(attach.value().get("qos")->as_string(), "qci5");
  EXPECT_EQ(attach.value().get("bearer_id")->as_string(), "brr-1");
  EXPECT_EQ(attach.value().get("ip")->as_string(), "10.0.0.1");
}

TEST(EpcRpc, BlockedSubscriberRejected) {
  sim::VirtualClock clock;
  EpcRpcApp app(clock);
  auto attach = app.attach_sync("001010000000666");
  ASSERT_FALSE(attach.ok());
  EXPECT_NE(attach.error().message.find("rejected"), std::string::npos);
}

TEST(Epc, BothFormsAgreeOnOutcomes) {
  for (const std::string& imsi : epc_known_imsis()) {
    core::Runtime runtime;
    auto kn = build_epc_knactor_app(runtime);
    auto kn_attach = kn.attach_sync(imsi);
    ASSERT_TRUE(kn_attach.ok());
    bool kn_ok = kn_attach.value().get("state")->as_string() == "active";

    sim::VirtualClock clock;
    EpcRpcApp rpc(clock);
    bool rpc_ok = rpc.attach_sync(imsi).ok();
    EXPECT_EQ(kn_ok, rpc_ok) << imsi;
    if (kn_ok) {
      EXPECT_EQ(kn_attach.value().get("qos")->as_string(),
                imsi == "001010000000001" ? "qci5" : "qci9");
    }
  }
}

TEST(Epc, KnactorAttachWorksOnApiserverProfile) {
  core::Runtime runtime;
  EpcOptions options;
  options.de_profile = de::ObjectDeProfile::apiserver();
  auto app = build_epc_knactor_app(runtime, options);
  auto attach = app.attach_sync("001010000000002");
  ASSERT_TRUE(attach.ok());
  EXPECT_EQ(attach.value().get("state")->as_string(), "active");
}

}  // namespace
}  // namespace knactor::apps
