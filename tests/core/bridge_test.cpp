#include "core/bridge.h"

#include <gtest/gtest.h>

#include "core/cast.h"
#include "core/knactor.h"

namespace knactor::core {
namespace {

using common::Result;
using common::Value;

class BridgeTest : public ::testing::Test {
 protected:
  BridgeTest() : net_(clock_), de_(clock_, de::ObjectDeProfile::instant()) {
    net_.set_default_latency(sim::LatencyModel::constant_ms(0.5));
    store_ = &de_.create_store("knactor-echo");

    net::MessageDescriptor req;
    req.full_name = "t.EchoRequest";
    req.fields = {{1, "text", net::FieldType::kString}};
    EXPECT_TRUE(pool_.add(req).ok());
    net::MessageDescriptor resp;
    resp.full_name = "t.EchoResponse";
    resp.fields = {{1, "text", net::FieldType::kString}};
    EXPECT_TRUE(pool_.add(resp).ok());

    service_.name = "t.Echo";
    service_.methods = {{"Echo", "t.EchoRequest", "t.EchoResponse"}};
  }

  sim::VirtualClock clock_;
  net::SimNetwork net_;
  de::ObjectDe de_;
  de::ObjectStore* store_ = nullptr;
  net::SchemaPool pool_;
  net::RpcRegistry registry_;
  net::ServiceDescriptor service_;
};

/// A data-centric "service": watches its store for bridged requests and
/// answers by patching the response field — it has no RPC code at all.
void install_echo_reconciler(de::ObjectStore& store) {
  de::SubscriptionSpec spec;
  spec.prefix = "rpc/";
  auto sub = store.subscribe(
      "knactor:echo", spec, [&store](const de::WatchEvent& event) {
        if (event.type == de::WatchEventType::kDeleted || !event.object.data) {
          return;
        }
        if (event.object.data->get("response") != nullptr) return;
        const Value* text = event.object.data->get("text");
        if (text == nullptr) return;
        Value response = Value::object();
        response.set("text", Value("echo: " + text->as_string()));
        Value patch = Value::object();
        patch.set("response", std::move(response));
        store.patch("knactor:echo", event.object.key, std::move(patch),
                    [](Result<std::uint64_t>) {});
      });
  ASSERT_TRUE(sub.ok());
}

TEST_F(BridgeTest, IngressExposesStoreAsRpcService) {
  RpcIngressBridge bridge(net_, "bridge-node", pool_, *store_);
  ASSERT_TRUE(bridge.expose(service_, {{"Echo", {}}}, registry_).ok());
  install_echo_reconciler(*store_);

  net::RpcChannel client(net_, "legacy-client", registry_, pool_);
  auto resp = client.call_sync(service_, "Echo",
                               Value::object({{"text", "hello"}}));
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(resp.value().get("text")->as_string(), "echo: hello");
  EXPECT_EQ(bridge.calls_bridged(), 1u);
  // The request object was cleaned up after the reply.
  clock_.run_all();
  EXPECT_TRUE(store_->keys().empty());
}

TEST_F(BridgeTest, IngressConcurrentCallsIsolated) {
  RpcIngressBridge bridge(net_, "bridge-node", pool_, *store_);
  ASSERT_TRUE(bridge.expose(service_, {{"Echo", {}}}, registry_).ok());
  install_echo_reconciler(*store_);

  net::RpcChannel client(net_, "legacy-client", registry_, pool_);
  std::vector<std::string> got;
  for (int i = 0; i < 3; ++i) {
    client.call(service_, "Echo",
                Value::object({{"text", "m" + std::to_string(i)}}),
                [&got](Result<Value> r) {
                  ASSERT_TRUE(r.ok());
                  got.push_back(r.value().get("text")->as_string());
                });
  }
  clock_.run_all();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "echo: m0");
  EXPECT_EQ(got[2], "echo: m2");
}

TEST_F(BridgeTest, IngressTimesOutWhenServiceSilent) {
  RpcIngressBridge bridge(net_, "bridge-node", pool_, *store_);
  RpcIngressBridge::MethodBinding binding;
  binding.timeout = sim::from_ms(20.0);
  ASSERT_TRUE(bridge.expose(service_, {{"Echo", binding}}, registry_).ok());
  // No reconciler installed: nobody answers.
  net::RpcChannel client(net_, "legacy-client", registry_, pool_);
  auto resp = client.call_sync(service_, "Echo",
                               Value::object({{"text", "x"}}));
  ASSERT_FALSE(resp.ok());
  // The RPC layer surfaces remote handler errors as Internal with the
  // original error stringized into the message.
  EXPECT_NE(resp.error().message.find("did not respond"), std::string::npos);
}

TEST_F(BridgeTest, IngressRejectsUnboundMethods) {
  RpcIngressBridge bridge(net_, "bridge-node", pool_, *store_);
  EXPECT_FALSE(bridge.expose(service_, {}, registry_).ok());
}

TEST_F(BridgeTest, EgressIssuesRpcFromStateWrites) {
  // A legacy RPC server.
  net::RpcServer legacy(net_, "legacy-server", pool_);
  ASSERT_TRUE(legacy.add_service(service_, registry_).ok());
  ASSERT_TRUE(legacy
                  .add_handler("t.Echo", "Echo",
                               [](const Value& req,
                                  net::RpcServer::Respond respond) {
                                 Value resp = Value::object();
                                 resp.set("text",
                                          Value("legacy: " +
                                                req.get("text")->as_string()));
                                 respond(std::move(resp));
                               })
                  .ok());

  RpcEgressBridge::Options options;
  options.method = "Echo";
  RpcEgressBridge bridge(net_, "egress-node", registry_, pool_, *store_,
                         service_, options);
  ASSERT_TRUE(bridge.start().ok());

  // The data-centric side just writes a request object into its store.
  (void)store_->put_sync("knactor:echo", "egress/1",
                         Value::object({{"text", "from-state"}}));
  clock_.run_all();
  const de::StateObject* obj = store_->peek("egress/1");
  ASSERT_NE(obj, nullptr);
  const Value* response = obj->data->get("response");
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(response->get("text")->as_string(), "legacy: from-state");
  EXPECT_EQ(bridge.calls_issued(), 1u);
}

TEST_F(BridgeTest, EgressRecordsFailures) {
  // No legacy server registered: calls fail; the error lands in state.
  RpcEgressBridge::Options options;
  options.method = "Echo";
  RpcEgressBridge bridge(net_, "egress-node", registry_, pool_, *store_,
                         service_, options);
  ASSERT_TRUE(bridge.start().ok());
  (void)store_->put_sync("knactor:echo", "egress/1",
                         Value::object({{"text", "x"}}));
  clock_.run_all();
  const de::StateObject* obj = store_->peek("egress/1");
  ASSERT_NE(obj, nullptr);
  EXPECT_NE(obj->data->get("bridge_error"), nullptr);
  // The failure does not retrigger an infinite call loop.
  EXPECT_EQ(bridge.calls_issued(), 1u);
}

TEST_F(BridgeTest, EgressStopsCleanly) {
  RpcEgressBridge::Options options;
  options.method = "Echo";
  RpcEgressBridge bridge(net_, "egress-node", registry_, pool_, *store_,
                         service_, options);
  ASSERT_TRUE(bridge.start().ok());
  bridge.stop();
  (void)store_->put_sync("knactor:echo", "egress/1",
                         Value::object({{"text", "x"}}));
  clock_.run_all();
  EXPECT_EQ(bridge.calls_issued(), 0u);
}

TEST_F(BridgeTest, EndToEndMigrationPath) {
  // Legacy client -> ingress bridge -> store <- Cast integrator fills the
  // response from another store: a legacy API served entirely by
  // data-centric composition.
  de::ObjectStore& answers = de_.create_store("knactor-answers");
  (void)answers.put_sync("svc", "state",
                         Value::object({{"greeting", "bridged world"}}));

  RpcIngressBridge bridge(net_, "bridge-node", pool_, *store_);
  ASSERT_TRUE(bridge.expose(service_, {{"Echo", {}}}, registry_).ok());

  // The integrator (not a reconciler) answers: response = {"text": A.greeting}.
  auto dxg = core::Dxg::parse(
      "Input:\n  E: knactor-echo\n  A: knactor-answers\nDXG:\n"
      "  E.rpc/1:\n"
      "    response: '{\"text\": A.greeting}'\n");
  ASSERT_TRUE(dxg.ok()) << dxg.error().to_string();
  CastIntegrator cast("answerer", de_, dxg.take(),
                      {{"E", store_}, {"A", &answers}});
  ASSERT_TRUE(cast.start().ok());

  net::RpcChannel client(net_, "legacy-client", registry_, pool_);
  auto resp = client.call_sync(service_, "Echo",
                               Value::object({{"text", "anyone?"}}));
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(resp.value().get("text")->as_string(), "bridged world");
}

}  // namespace
}  // namespace knactor::core
