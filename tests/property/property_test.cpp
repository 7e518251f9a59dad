// Property-style randomized tests: each TEST_P instance draws a seeded
// random scenario and checks an invariant that must hold for all of them.
#include <gtest/gtest.h>

#include "common/json.h"
#include "core/cast.h"
#include "core/sync.h"
#include "de/log.h"
#include "de/retention.h"
#include "de/object.h"
#include "net/broker.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "sim/random.h"
#include "yaml/yaml.h"

namespace knactor {
namespace {

using common::Value;

// ---------------------------------------------------------------------------
// Random value generation.
// ---------------------------------------------------------------------------

std::string random_string(sim::Rng& rng, bool yaml_safe) {
  static const char* kSafe =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
  static const char* kSpicy = " -+./:#'\"\\{}[],\t";
  std::size_t len = 1 + rng.next_below(12);
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    if (!yaml_safe && rng.next_below(6) == 0) {
      out.push_back(kSpicy[rng.next_below(16)]);
    } else {
      out.push_back(kSafe[rng.next_below(63)]);
    }
  }
  return out;
}

Value random_value(sim::Rng& rng, int depth, bool yaml_safe) {
  std::uint32_t pick = rng.next_below(depth <= 0 ? 5 : 7);
  switch (pick) {
    case 0: return Value(nullptr);
    case 1: return Value(rng.next_below(2) == 0);
    case 2:
      return Value(static_cast<std::int64_t>(rng.next_u32()) -
                   std::int64_t{1LL << 31});
    case 3: return Value(rng.uniform(-1e6, 1e6));
    case 4: return Value(random_string(rng, yaml_safe));
    case 5: {
      Value::Array arr;
      std::size_t n = rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i) {
        arr.push_back(random_value(rng, depth - 1, yaml_safe));
      }
      return Value(std::move(arr));
    }
    default: {
      Value obj = Value::object();
      std::size_t n = rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i) {
        obj.set("k" + std::to_string(i) + random_string(rng, true),
                random_value(rng, depth - 1, yaml_safe));
      }
      return obj;
    }
  }
}

// ---------------------------------------------------------------------------
// JSON round trip.
// ---------------------------------------------------------------------------

class JsonRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(JsonRoundTrip, ParseOfSerializeIsIdentity) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 20; ++i) {
    Value v = random_value(rng, 4, /*yaml_safe=*/false);
    auto back = common::parse_json(common::to_json(v));
    ASSERT_TRUE(back.ok()) << common::to_json(v);
    // Doubles round-trip through shortest-representation to_chars exactly.
    EXPECT_TRUE(v == back.value()) << common::to_json(v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip, ::testing::Range(1, 16));

// ---------------------------------------------------------------------------
// YAML round trip (dump -> parse).
// ---------------------------------------------------------------------------

class YamlRoundTrip : public ::testing::TestWithParam<int> {};

/// YAML scalars can't distinguish 1 from 1.0 when the double has no
/// fractional digits in std::to_string; normalize object/array shells and
/// numbers for comparison.
bool yaml_equivalent(const Value& a, const Value& b) {
  if (a.is_number() && b.is_number()) {
    return std::abs(a.as_number() - b.as_number()) <=
           1e-6 * std::max(1.0, std::abs(a.as_number()));
  }
  if (a.type() != b.type()) return false;
  if (a.is_array()) {
    if (a.as_array().size() != b.as_array().size()) return false;
    for (std::size_t i = 0; i < a.as_array().size(); ++i) {
      if (!yaml_equivalent(a.as_array()[i], b.as_array()[i])) return false;
    }
    return true;
  }
  if (a.is_object()) {
    if (a.as_object().size() != b.as_object().size()) return false;
    for (const auto& [k, v] : a.as_object()) {
      const Value* other = b.get(k);
      if (other == nullptr || !yaml_equivalent(v, *other)) return false;
    }
    return true;
  }
  return a == b;
}

TEST_P(YamlRoundTrip, ParseOfDumpIsEquivalent) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  for (int i = 0; i < 10; ++i) {
    // Root must be an object for block YAML.
    Value v = Value::object();
    std::size_t n = 1 + rng.next_below(5);
    for (std::size_t k = 0; k < n; ++k) {
      v.set("key" + std::to_string(k), random_value(rng, 3, /*yaml_safe=*/true));
    }
    std::string dumped = yaml::dump(v);
    auto back = yaml::parse(dumped);
    ASSERT_TRUE(back.ok()) << dumped << ": " << back.error().to_string();
    EXPECT_TRUE(yaml_equivalent(v, back.value()))
        << dumped << "\nvs\n" << common::to_json(back.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, YamlRoundTrip, ::testing::Range(1, 16));

// ---------------------------------------------------------------------------
// Wire codec round trip over random typed messages.
// ---------------------------------------------------------------------------

class WireRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(WireRoundTrip, DecodeOfEncodeIsIdentity) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  net::SchemaPool pool;
  net::MessageDescriptor desc;
  desc.full_name = "p.Msg";
  desc.fields = {{1, "i", net::FieldType::kInt},
                 {2, "d", net::FieldType::kDouble},
                 {3, "s", net::FieldType::kString},
                 {4, "b", net::FieldType::kBool},
                 {5, "tags", net::FieldType::kString, true}};
  ASSERT_TRUE(pool.add(desc).ok());

  for (int i = 0; i < 30; ++i) {
    Value v = Value::object();
    if (rng.next_below(4) != 0) {
      v.set("i", Value(static_cast<std::int64_t>(rng.next_u32()) -
                       std::int64_t{1LL << 31}));
    }
    if (rng.next_below(4) != 0) v.set("d", Value(rng.uniform(-1e9, 1e9)));
    if (rng.next_below(4) != 0) v.set("s", Value(random_string(rng, false)));
    if (rng.next_below(4) != 0) v.set("b", Value(rng.next_below(2) == 0));
    if (rng.next_below(2) != 0) {
      Value::Array tags;
      std::size_t n = rng.next_below(5);
      for (std::size_t t = 0; t < n; ++t) {
        tags.emplace_back(random_string(rng, false));
      }
      if (!tags.empty()) v.set("tags", Value(std::move(tags)));
    }
    auto bytes = net::encode(pool, *pool.find("p.Msg"), v);
    ASSERT_TRUE(bytes.ok());
    auto decoded = net::decode(pool, *pool.find("p.Msg"), bytes.value());
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(v == decoded.value())
        << common::to_json(v) << " vs " << common::to_json(decoded.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip, ::testing::Range(1, 16));

// ---------------------------------------------------------------------------
// Cast convergence on dependency chains of arbitrary depth.
// ---------------------------------------------------------------------------

class CastChain : public ::testing::TestWithParam<int> {};

TEST_P(CastChain, ChainsResolveAcrossPasses) {
  int depth = GetParam();
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  std::map<std::string, de::ObjectStore*> stores;
  std::string spec = "Input:\n";
  for (int i = 0; i <= depth; ++i) {
    std::string alias = "S" + std::to_string(i);
    stores[alias] = &de.create_store("store-" + std::to_string(i));
    spec += "  " + alias + ": store-" + std::to_string(i) + "\n";
  }
  spec += "DXG:\n";
  for (int i = 1; i <= depth; ++i) {
    spec += "  S" + std::to_string(i) + ":\n";
    spec += "    v: S" + std::to_string(i - 1) + ".v + 1\n";
  }
  auto dxg = core::Dxg::parse(spec);
  ASSERT_TRUE(dxg.ok());
  core::CastIntegrator::Options options;
  options.max_rounds_per_event = depth + 2;
  core::CastIntegrator cast("chain", de, dxg.take(), stores, options);
  ASSERT_TRUE(cast.start().ok());
  (void)stores["S0"]->put_sync("svc", "state", Value::object({{"v", 0}}));
  clock.run_all();
  const de::StateObject* last = stores["S" + std::to_string(depth)]->peek("state");
  ASSERT_NE(last, nullptr) << "depth " << depth;
  EXPECT_EQ(last->data->get("v")->as_int(), depth);
}

INSTANTIATE_TEST_SUITE_P(Depths, CastChain, ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------------
// Push-down equivalence on random DXGs.
// ---------------------------------------------------------------------------

class PushdownEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PushdownEquivalence, SameFinalStateEitherWay) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  // Random source object and random mappings over its fields.
  Value source = Value::object();
  int nfields = 2 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < nfields; ++i) {
    source.set("f" + std::to_string(i),
               Value(static_cast<std::int64_t>(rng.next_below(100))));
  }
  std::string spec = "Input:\n  A: src\n  B: dst\nDXG:\n  B:\n";
  int nmappings = 1 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < nmappings; ++i) {
    int src_field = static_cast<int>(rng.next_below(
        static_cast<std::uint32_t>(nfields)));
    switch (rng.next_below(3)) {
      case 0:
        spec += "    m" + std::to_string(i) + ": A.f" +
                std::to_string(src_field) + " * 2\n";
        break;
      case 1:
        spec += "    m" + std::to_string(i) + ": A.f" +
                std::to_string(src_field) + " + 10\n";
        break;
      default:
        spec += "    m" + std::to_string(i) + ": '\"hi\" if A.f" +
                std::to_string(src_field) + " > 50 else \"lo\"'\n";
    }
  }

  auto run = [&](bool pushdown) -> Value {
    sim::VirtualClock clock;
    de::ObjectDe de(clock, de::ObjectDeProfile::redis());
    de::ObjectStore& src = de.create_store("src");
    de::ObjectStore& dst = de.create_store("dst");
    auto dxg = core::Dxg::parse(spec);
    EXPECT_TRUE(dxg.ok()) << spec;
    core::CastIntegrator cast("pd", de, dxg.take(),
                              {{"A", &src}, {"B", &dst}});
    if (pushdown) {
      EXPECT_TRUE(cast.enable_pushdown().ok());
    }
    EXPECT_TRUE(cast.start().ok());
    (void)src.put_sync("svc", "state", source);
    clock.run_all();
    const de::StateObject* obj = dst.peek("state");
    return obj != nullptr && obj->data ? *obj->data : Value();
  };

  Value watch_result = run(false);
  Value pushdown_result = run(true);
  EXPECT_TRUE(watch_result == pushdown_result)
      << spec << "\nwatch: " << common::to_json(watch_result)
      << "\npushdown: " << common::to_json(pushdown_result);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PushdownEquivalence, ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// Sync consolidation equivalence on random pipelines.
// ---------------------------------------------------------------------------

class ConsolidationEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ConsolidationEquivalence, SameOutputEitherWay) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 733);
  sim::VirtualClock clock;
  de::LogDe de(clock, de::LogDeProfile::instant());
  de::LogPool& src = de.create_pool("src");
  for (int i = 0; i < 50; ++i) {
    Value v = Value::object();
    v.set("a", Value(static_cast<std::int64_t>(rng.next_below(100))));
    v.set("b", Value(rng.uniform(0, 10)));
    v.set("tag", Value(rng.next_below(2) == 0 ? "x" : "y"));
    (void)src.append_sync("p", std::move(v));
  }
  // Random pipeline of 1-5 operators.
  de::LogQuery pipeline;
  int nops = 1 + static_cast<int>(rng.next_below(5));
  for (int i = 0; i < nops; ++i) {
    switch (rng.next_below(6)) {
      case 0: pipeline.push_back(de::LogOp::filter("a > 30").value()); break;
      case 1: pipeline.push_back(de::LogOp::rename({{"b", "bb"}})); break;
      case 2: pipeline.push_back(de::LogOp::map("c", "a * 2").value()); break;
      case 3: pipeline.push_back(de::LogOp::sort("a")); break;
      case 4: pipeline.push_back(de::LogOp::head(20)); break;
      default: pipeline.push_back(de::LogOp::drop({"tag"})); break;
    }
  }

  auto run = [&](bool consolidate) {
    de::LogPool& dst = de.create_pool(consolidate ? "dst-fused"
                                                  : "dst-separate");
    core::SyncIntegrator::Options options;
    options.consolidate = consolidate;
    core::SyncIntegrator sync(consolidate ? "f" : "s", de, options);
    core::SyncRoute route;
    route.name = "r";
    route.source = &src;
    route.target = &dst;
    route.pipeline = pipeline;
    EXPECT_TRUE(sync.add_route(std::move(route)).ok());
    EXPECT_TRUE(sync.run_round_sync().ok());
    return dst.query_sync("p", {}).value_or({});
  };

  auto fused = run(true);
  auto separate = run(false);
  ASSERT_EQ(fused.size(), separate.size());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_TRUE(*fused[i] == *separate[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsolidationEquivalence,
                         ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// Retention safety: GC never collects a referenced object.
// ---------------------------------------------------------------------------

class RetentionSafety : public ::testing::TestWithParam<int> {};

TEST_P(RetentionSafety, ReferencedObjectsSurviveRandomWorkloads) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 499);
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("s");
  de::RetentionManager retention(de);
  retention.set_policy("s", de::RetentionPolicy::ref_count());

  std::map<std::string, int> live_refs;
  for (int step = 0; step < 200; ++step) {
    std::string key = "k" + std::to_string(rng.next_below(10));
    switch (rng.next_below(4)) {
      case 0:
        (void)store.put_sync("w", key, Value::object({{"step", step}}));
        break;
      case 1:
        retention.claim("s", key, "c");
        ++live_refs[key];
        break;
      case 2:
        if (live_refs[key] > 0) {
          retention.release("s", key, "c", true);
          --live_refs[key];
        }
        break;
      default:
        (void)retention.sweep("gc");
        break;
    }
    // Invariant: anything still referenced and present is never collected.
    for (const auto& [k, refs] : live_refs) {
      if (refs > 0 && store.peek(k) != nullptr) {
        (void)retention.sweep("gc");
        EXPECT_NE(store.peek(k), nullptr) << k << " at step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetentionSafety, ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Transport equivalence: the same random update stream pushed through RPC,
// Pub/Sub, and a Cast fan-out DXG must converge to the same last-writer-wins
// map. This is the paper's composition-mechanism-agnosticism claim: the
// mechanism moves the data, the data defines the state.
// ---------------------------------------------------------------------------

class TransportEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TransportEquivalence, SameFinalStateOnAllThreeTransports) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 8117);
  static const char* kStatuses[] = {"placed", "paid", "packed", "shipped",
                                    "delivered"};
  struct Update {
    std::string key;
    std::string status;
  };
  std::vector<Update> updates;
  std::size_t n = 10 + rng.next_below(30);
  for (std::size_t i = 0; i < n; ++i) {
    updates.push_back({"order/" + std::to_string(rng.next_below(6)),
                       kStatuses[rng.next_below(5)]});
  }
  std::map<std::string, std::string> expected;
  for (const auto& u : updates) expected[u.key] = u.status;

  // 1) RPC: one Update call per event; the server's map is the state.
  std::map<std::string, std::string> via_rpc;
  {
    sim::VirtualClock clock;
    net::SimNetwork net(clock);
    net.set_default_latency(sim::LatencyModel::constant_ms(0.5));
    net::SchemaPool pool;
    net::MessageDescriptor req;
    req.full_name = "t.UpdateRequest";
    req.fields = {{1, "key", net::FieldType::kString},
                  {2, "status", net::FieldType::kString}};
    ASSERT_TRUE(pool.add(req).ok());
    net::MessageDescriptor ack;
    ack.full_name = "t.Ack";
    ack.fields = {{1, "ok", net::FieldType::kBool}};
    ASSERT_TRUE(pool.add(ack).ok());
    net::ServiceDescriptor service;
    service.name = "t.Status";
    service.methods = {{"Update", "t.UpdateRequest", "t.Ack"}};
    net::RpcRegistry registry;
    net::RpcServer server(net, "server", pool);
    ASSERT_TRUE(server.add_service(service, registry).ok());
    ASSERT_TRUE(server
                    .add_handler("t.Status", "Update",
                                 [&](const Value& request,
                                     net::RpcServer::Respond done) {
                                   via_rpc[request.get("key")->as_string()] =
                                       request.get("status")->as_string();
                                   done(Value::object({{"ok", true}}));
                                 })
                    .ok());
    net::RpcChannel channel(net, "client", registry, pool);
    for (const auto& u : updates) {
      auto resp = channel.call_sync(
          service, "Update",
          Value::object({{"key", u.key}, {"status", u.status}}));
      ASSERT_TRUE(resp.ok()) << resp.error().to_string();
    }
  }

  // 2) Pub/Sub: publish every update; the subscriber's map is the state.
  std::map<std::string, std::string> via_pubsub;
  {
    sim::VirtualClock clock;
    net::SimNetwork net(clock);
    net.set_default_latency(sim::LatencyModel::constant_ms(0.5));
    net.add_node("pub");
    net::Broker broker(net, "broker");
    broker.subscribe("status", "sub",
                     [&](const std::string&, const Value& m) {
                       via_pubsub[m.get("key")->as_string()] =
                           m.get("status")->as_string();
                     });
    for (const auto& u : updates) {
      ASSERT_TRUE(
          broker
              .publish("pub", "status",
                       Value::object({{"key", u.key}, {"status", u.status}}))
              .ok());
      clock.run_all();  // preserve publish order deterministically
    }
  }

  // 3) Cast: updates land in a store; a fan-out DXG mirrors the status.
  std::map<std::string, std::string> via_cast;
  {
    sim::VirtualClock clock;
    de::ObjectDe de(clock, de::ObjectDeProfile::instant());
    de::ObjectStore& orders = de.create_store("orders");
    de::ObjectStore& mirror = de.create_store("mirror");
    auto dxg = core::Dxg::parse(R"(Input:
  C: orders
  M: mirror
DXG:
  M.*:
    $for: C order/
    status: get(C, it).status
)");
    ASSERT_TRUE(dxg.ok()) << dxg.error().to_string();
    core::CastIntegrator cast("mirror", de, dxg.take(),
                              {{"C", &orders}, {"M", &mirror}});
    ASSERT_TRUE(cast.start().ok());
    for (const auto& u : updates) {
      (void)orders.put_sync("svc", u.key,
                            Value::object({{"status", u.status}}));
    }
    clock.run_all();
    for (const auto& key : mirror.keys()) {
      const de::StateObject* obj = mirror.peek(key);
      ASSERT_NE(obj, nullptr);
      const Value* status = obj->data->get("status");
      if (status != nullptr && status->is_string()) {
        via_cast[key] = status->as_string();
      }
    }
  }

  EXPECT_EQ(via_rpc, expected);
  EXPECT_EQ(via_pubsub, expected);
  EXPECT_EQ(via_cast, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportEquivalence, ::testing::Range(1, 13));

}  // namespace
}  // namespace knactor
