// Edge-case coverage batch: corner behaviours across modules that the
// main suites don't pin down.
#include <gtest/gtest.h>

#include <cmath>

#include "common/json.h"
#include "core/cast.h"
#include "core/sync.h"
#include "de/log.h"
#include "de/object.h"
#include "expr/eval.h"
#include "expr/parser.h"
#include "net/broker.h"
#include "net/rpc.h"
#include "yaml/yaml.h"

namespace knactor {
namespace {

using common::Value;

// ---------------------------------------------------------------------------
// YAML corners.
// ---------------------------------------------------------------------------

TEST(YamlEdge, QuotedKeys) {
  auto v = yaml::parse("'weird: key': 1\n\"other:key\": 2\n").value();
  EXPECT_EQ(v.get("weird: key")->as_int(), 1);
  EXPECT_EQ(v.get("other:key")->as_int(), 2);
}

TEST(YamlEdge, NestedSequences) {
  auto v = yaml::parse("m:\n  - - 1\n    - 2\n  - - 3\n").value();
  const Value* m = v.get("m");
  ASSERT_TRUE(m->is_array());
  ASSERT_EQ(m->as_array().size(), 2u);
  EXPECT_EQ(m->as_array()[0].as_array()[1].as_int(), 2);
  EXPECT_EQ(m->as_array()[1].as_array()[0].as_int(), 3);
}

TEST(YamlEdge, WindowsLineEndings) {
  auto v = yaml::parse("a: 1\r\nb: two\r\n").value();
  EXPECT_EQ(v.get("a")->as_int(), 1);
  EXPECT_EQ(v.get("b")->as_string(), "two");
}

TEST(YamlEdge, DeepNesting) {
  std::string text;
  for (int i = 0; i < 30; ++i) {
    text += std::string(static_cast<std::size_t>(i) * 2, ' ') + "k" +
            std::to_string(i) + ":\n";
  }
  text += std::string(60, ' ') + "leaf: 1\n";
  auto v = yaml::parse(text);
  ASSERT_TRUE(v.ok());
}

TEST(YamlEdge, TabIndentationInContentTolerated) {
  // A value containing tabs is fine (only leading spaces are structure).
  auto v = yaml::parse("a: has\ttab\n").value();
  EXPECT_EQ(v.get("a")->as_string(), "has\ttab");
}

TEST(YamlEdge, NumericLookingKeysStayStrings) {
  auto v = yaml::parse("2024: year\n").value();
  EXPECT_NE(v.get("2024"), nullptr);
}

// ---------------------------------------------------------------------------
// Expression corners.
// ---------------------------------------------------------------------------

TEST(ExprEdge, UnaryMinusWithPower) {
  expr::MapEnv env;
  // Python: -x**2 == -(x**2).
  env.bind("x", Value(3));
  auto r = expr::evaluate("-x ** 2", env, expr::FunctionRegistry::builtins());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().as_int(), -9);
}

TEST(ExprEdge, ChainedComparisonsAreLeftFolds) {
  // We implement (a < b) < c, not Python chaining; pin it down so the
  // behaviour is documented.
  expr::MapEnv env;
  auto r = expr::evaluate("1 < 2 == true", env,
                          expr::FunctionRegistry::builtins());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().as_bool());
}

TEST(ExprEdge, KeywordsAsAttributeNames) {
  expr::MapEnv env;
  env.bind("m", Value::object({{"in", 5}}));
  auto r = expr::evaluate("m.in", env, expr::FunctionRegistry::builtins());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().as_int(), 5);
}

TEST(ExprEdge, EmptyListLiteralAndComprehensionOverEmpty) {
  expr::MapEnv env;
  env.bind("xs", Value::array({}));
  auto empty = expr::evaluate("[]", env, expr::FunctionRegistry::builtins());
  EXPECT_TRUE(empty.value().as_array().empty());
  auto comp = expr::evaluate("[x * 2 for x in xs]", env,
                             expr::FunctionRegistry::builtins());
  EXPECT_TRUE(comp.value().as_array().empty());
}

TEST(ExprEdge, NestedComprehensions) {
  expr::MapEnv env;
  env.bind("xss", Value::array({Value::array({1, 2}), Value::array({3})}));
  auto r = expr::evaluate("[[y * 10 for y in xs] for xs in xss]", env,
                          expr::FunctionRegistry::builtins());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().as_array()[0].as_array()[1].as_int(), 20);
  EXPECT_EQ(r.value().as_array()[1].as_array()[0].as_int(), 30);
}

TEST(ExprEdge, IntOverflowFallsBackToDoublePower) {
  expr::MapEnv env;
  auto r =
      expr::evaluate("10 ** 20", env, expr::FunctionRegistry::builtins());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().is_double());
  EXPECT_NEAR(r.value().as_double(), 1e20, 1e6);
}

// ---------------------------------------------------------------------------
// Object DE corners.
// ---------------------------------------------------------------------------

TEST(ObjectEdge, WatchSurvivesDeRestart) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::apiserver());
  de::ObjectStore& store = de.create_store("s");
  int events = 0;
  ASSERT_TRUE(
      store.subscribe("w", {}, [&](const de::WatchEvent&) { ++events; }).ok());
  (void)store.put_sync("w", "k", Value::object({{"n", 1}}));
  clock.run_all();
  EXPECT_EQ(events, 1);
  de.restart();  // the durable state survives silently
  clock.run_all();
  EXPECT_EQ(events, 1);
  // New writes after recovery notify as usual.
  (void)store.put_sync("w", "k", Value::object({{"n", 2}}));
  clock.run_all();
  EXPECT_EQ(events, 2);
}

TEST(ObjectEdge, TriggersSurviveDeRestart) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::redis());
  de::ObjectStore& store = de.create_store("s");
  int fired = 0;
  (void)de.register_udf("o", "count",
                        [&fired](de::UdfContext&, const Value&)
                            -> common::Result<Value> {
                          ++fired;
                          return Value(nullptr);
                        });
  (void)de.add_trigger("s", "", "count");
  de.restart();
  (void)store.put_sync("w", "k", Value::object({}));
  clock.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(ObjectEdge, PatchNonObjectReplacesIt) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("s");
  (void)store.put_sync("w", "k", Value(42));  // scalar state object
  (void)store.patch_sync("w", "k", Value::object({{"a", 1}}));
  EXPECT_TRUE(store.peek("k")->data->is_object());
}

TEST(ObjectEdge, EmptyKeyAndUnicodeKeys) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("s");
  EXPECT_TRUE(store.put_sync("w", "", Value::object({})).ok());
  EXPECT_TRUE(store.put_sync("w", "ключ/键", Value::object({})).ok());
  EXPECT_TRUE(store.get_sync("w", "ключ/键").ok());
}

TEST(ObjectEdge, ListSeesConsistentSnapshotUnderInterleavedWrites) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::redis());
  de::ObjectStore& store = de.create_store("s");
  for (int i = 0; i < 5; ++i) {
    (void)store.put_sync("w", "k" + std::to_string(i),
                         Value::object({{"i", i}}));
  }
  // Issue a list and a write concurrently; the list returns a coherent
  // set (all five or six objects, never a torn view).
  std::optional<std::size_t> listed;
  store.list("w", "", [&](common::Result<std::vector<de::StateObject>> r) {
    ASSERT_TRUE(r.ok());
    listed = r.value().size();
  });
  store.put("w", "k5", Value::object({{"i", 5}}),
            [](common::Result<std::uint64_t>) {});
  clock.run_all();
  ASSERT_TRUE(listed.has_value());
  EXPECT_TRUE(*listed == 5u || *listed == 6u);
}

// ---------------------------------------------------------------------------
// Broker corners.
// ---------------------------------------------------------------------------

TEST(BrokerEdge, RetainedMessageUpdatedBySubsequentPublish) {
  sim::VirtualClock clock;
  net::SimNetwork net(clock);
  net::Broker broker(net, "broker");
  broker.set_retain(true);
  net.add_node("pub");
  (void)broker.publish("pub", "t", Value::object({{"v", 1}}));
  clock.run_all();
  (void)broker.publish("pub", "t", Value::object({{"v", 2}}));
  clock.run_all();
  int got = 0;
  broker.subscribe("t", "late", [&](const std::string&, const Value& m) {
    got = static_cast<int>(m.get("v")->as_int());
  });
  clock.run_all();
  EXPECT_EQ(got, 2);
}

TEST(BrokerEdge, UnsubscribeWildcard) {
  sim::VirtualClock clock;
  net::SimNetwork net(clock);
  net::Broker broker(net, "broker");
  net.add_node("pub");
  int got = 0;
  broker.subscribe("home/#", "sub",
                   [&](const std::string&, const Value&) { ++got; });
  (void)broker.publish("pub", "home/x", Value::object({}));
  clock.run_all();
  broker.unsubscribe("home/#", "sub");
  (void)broker.publish("pub", "home/y", Value::object({}));
  clock.run_all();
  EXPECT_EQ(got, 1);
}

// ---------------------------------------------------------------------------
// Cast corners.
// ---------------------------------------------------------------------------

TEST(CastEdge, EmptyDxgIsAHarmlessNoop) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& a = de.create_store("a");
  auto dxg = core::Dxg::parse("Input:\n  A: a\nDXG:\n");
  core::CastIntegrator cast("noop", de, dxg.take(), {{"A", &a}});
  ASSERT_TRUE(cast.start().ok());
  (void)a.put_sync("w", "k", Value::object({{"x", 1}}));
  clock.run_all();
  EXPECT_EQ(cast.stats().fields_written, 0u);
}

TEST(CastEdge, TwoIntegratorsOnDisjointFieldsCoexist) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& src = de.create_store("src");
  de::ObjectStore& dst = de.create_store("dst");
  auto dxg1 = core::Dxg::parse("Input:\n  A: src\n  B: dst\nDXG:\n"
                               "  B:\n    one: A.x\n");
  auto dxg2 = core::Dxg::parse("Input:\n  A: src\n  B: dst\nDXG:\n"
                               "  B:\n    two: A.x * 2\n");
  core::CastIntegrator cast1("i1", de, dxg1.take(), {{"A", &src}, {"B", &dst}});
  core::CastIntegrator cast2("i2", de, dxg2.take(), {{"A", &src}, {"B", &dst}});
  ASSERT_TRUE(cast1.start().ok());
  ASSERT_TRUE(cast2.start().ok());
  (void)src.put_sync("w", "state", Value::object({{"x", 21}}));
  clock.run_all();
  EXPECT_EQ(dst.peek("state")->data->get("one")->as_int(), 21);
  EXPECT_EQ(dst.peek("state")->data->get("two")->as_int(), 42);
  cast1.stop();
  cast2.stop();
}

TEST(CastEdge, DeletedSourceObjectStopsFutureWritesButKeepsTarget) {
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& src = de.create_store("src");
  de::ObjectStore& dst = de.create_store("dst");
  auto dxg = core::Dxg::parse("Input:\n  A: src\n  B: dst\nDXG:\n"
                              "  B:\n    copied: A.value\n");
  core::CastIntegrator cast("i", de, dxg.take(), {{"A", &src}, {"B", &dst}});
  ASSERT_TRUE(cast.start().ok());
  (void)src.put_sync("w", "state", Value::object({{"value", 1}}));
  clock.run_all();
  EXPECT_EQ(dst.peek("state")->data->get("copied")->as_int(), 1);
  (void)src.remove_sync("w", "state");
  clock.run_all();
  // Source gone -> expression is "not ready": the last exchanged value
  // remains (state is retained, per §3.3, until retention GC says
  // otherwise).
  EXPECT_EQ(dst.peek("state")->data->get("copied")->as_int(), 1);
}

// ---------------------------------------------------------------------------
// Sync corners.
// ---------------------------------------------------------------------------

TEST(SyncEdge, RoundOverEmptySourceIsCheap) {
  sim::VirtualClock clock;
  de::LogDe de(clock, de::LogDeProfile::instant());
  de::LogPool& src = de.create_pool("src");
  de::LogPool& dst = de.create_pool("dst");
  core::SyncIntegrator sync("s", de);
  core::SyncRoute route;
  route.name = "r";
  route.source = &src;
  route.target = &dst;
  ASSERT_TRUE(sync.add_route(std::move(route)).ok());
  auto moved = sync.run_round_sync();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 0u);
  EXPECT_EQ(dst.size(), 0u);
}

TEST(SyncEdge, SelfRouteIsRejectedByDesign) {
  // A route from a pool to itself would duplicate records forever; the
  // cursor makes a single round safe, but each round re-appends. Pin the
  // (documented) behaviour: one round moves the pre-existing records once.
  sim::VirtualClock clock;
  de::LogDe de(clock, de::LogDeProfile::instant());
  de::LogPool& pool = de.create_pool("p");
  (void)pool.append_sync("w", Value::object({{"n", 1}}));
  core::SyncIntegrator sync("s", de);
  core::SyncRoute route;
  route.name = "self";
  route.source = &pool;
  route.target = &pool;
  ASSERT_TRUE(sync.add_route(std::move(route)).ok());
  ASSERT_TRUE(sync.run_round_sync().ok());
  EXPECT_EQ(pool.size(), 2u);
  // The cursor advanced past its own append: the next round moves only
  // the one new record, not everything again.
  ASSERT_TRUE(sync.run_round_sync().ok());
  EXPECT_EQ(pool.size(), 3u);
}

// ---------------------------------------------------------------------------
// JSON corners.
// ---------------------------------------------------------------------------

TEST(JsonEdge, SpecialDoublesSerialize) {
  EXPECT_EQ(common::to_json(Value(std::nan(""))), "null");
  std::string inf = common::to_json(Value(1.0 / 0.0 * 1e308));
  EXPECT_FALSE(inf.empty());
}

TEST(JsonEdge, ControlCharactersEscaped) {
  Value v(std::string{'a', '\x01', 'b'});
  std::string json = common::to_json(v);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  auto back = common::parse_json(json);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().as_string(), (std::string{'a', '\x01', 'b'}));
}

}  // namespace
}  // namespace knactor
