#include "core/causality.h"

#include <gtest/gtest.h>

#include "apps/retail_knactor.h"
#include "common/json.h"
#include "core/runtime.h"
#include "core/slo.h"
#include "core/trace_export.h"
#include "de/object.h"

namespace knactor::core {
namespace {

using common::Value;

LineageRecord make_record(const std::string& store, const std::string& key,
                          std::uint64_t version) {
  LineageRecord rec;
  rec.output.store = store;
  rec.output.key = key;
  rec.output.version = version;
  rec.op = "test";
  rec.stage = "I-S";
  return rec;
}

TEST(ProvenanceRingTest, DisabledByDefaultAndDropsRecords) {
  ProvenanceRing ring;
  EXPECT_FALSE(ring.enabled());
  ring.record(make_record("s", "k", 1));
  EXPECT_TRUE(ring.records().empty());
}

TEST(ProvenanceRingTest, BoundedAtCapacity) {
  ProvenanceRing ring;
  ring.set_capacity(3);
  for (std::uint64_t v = 1; v <= 5; ++v) {
    ring.record(make_record("s", "k", v));
  }
  ASSERT_EQ(ring.records().size(), 3u);
  EXPECT_EQ(ring.records().front().output.version, 3u);
  EXPECT_EQ(ring.records().back().output.version, 5u);
}

TEST(ProvenanceRingTest, LatestForAndExactFind) {
  ProvenanceRing ring;
  ring.set_capacity(8);
  ring.record(make_record("s", "k", 1));
  ring.record(make_record("s", "k", 2));
  ring.record(make_record("s", "other", 3));
  ASSERT_NE(ring.latest_for("s", "k"), nullptr);
  EXPECT_EQ(ring.latest_for("s", "k")->output.version, 2u);
  ASSERT_NE(ring.find("s", "k", 1), nullptr);
  EXPECT_EQ(ring.find("s", "k", 9), nullptr);
  EXPECT_EQ(ring.latest_for("s", "missing"), nullptr);
}

TEST(LineageDagTest, WalksChainAndFormats) {
  ProvenanceRing ring;
  ring.set_capacity(8);
  LineageRecord base = make_record("mid", "m", 2);
  base.inputs.push_back({"src", "a", 1, nullptr});
  ring.record(base);
  LineageRecord top = make_record("out", "o", 3);
  top.inputs.push_back({"mid", "m", 2, nullptr});
  ring.record(top);

  auto dag = lineage_dag(ring, "out", "o");
  ASSERT_EQ(dag.size(), 3u);
  EXPECT_EQ(dag[0].ref.store, "out");
  EXPECT_EQ(dag[0].depth, 0u);
  EXPECT_EQ(dag[1].ref.store, "mid");
  EXPECT_EQ(dag[2].ref.store, "src");
  EXPECT_EQ(dag[2].producer, nullptr);  // source: no recorded producer

  std::string text = format_lineage(dag);
  EXPECT_NE(text.find("out/o@3"), std::string::npos);
  EXPECT_NE(text.find("<- src/a@1  (source)"), std::string::npos);
}

// A root write (no ambient trace context) adopts its own commit seq as the
// trace id; the watch event carries it.
TEST(TraceContextTest, RootWriteAdoptsCommitSeqAsTraceId) {
  sim::VirtualClock clock;
  de::ObjectDe de{clock, de::ObjectDeProfile::instant()};
  de::ObjectStore& store = de.create_store("s");
  std::vector<de::WatchEvent> events;
  ASSERT_TRUE(store
                  .subscribe("w", {},
                             [&](const de::WatchEvent& e) { events.push_back(e); })
                  .ok());
  (void)store.put_sync("me", "k", Value::object({{"a", 1}}));
  clock.run_all();
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(events[0].ctx.active());
  EXPECT_EQ(events[0].ctx.trace_id, events[0].ctx.commit_seq);
}

// An ambient context set on the kernel is captured at call time and rides
// out on the fired watch event unchanged (trace id preserved, commit seq
// stamped at fire time).
TEST(TraceContextTest, AmbientContextPropagatesThroughCommit) {
  sim::VirtualClock clock;
  de::ObjectDe de{clock, de::ObjectDeProfile::instant()};
  de::ObjectStore& store = de.create_store("s");
  std::vector<de::WatchEvent> events;
  ASSERT_TRUE(store
                  .subscribe("w", {},
                             [&](const de::WatchEvent& e) { events.push_back(e); })
                  .ok());
  TraceContext ctx;
  ctx.trace_id = 42;
  ctx.parent_span = 7;
  de.kernel().set_trace_context(ctx);
  (void)store.put_sync("me", "k", Value::object({{"a", 1}}));
  de.kernel().clear_trace_context();
  clock.run_all();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].ctx.trace_id, 42u);
  EXPECT_EQ(events[0].ctx.parent_span, 7u);
  EXPECT_GT(events[0].ctx.commit_seq, 0u);
}

TEST(TracerContractTest, SpansReturnsSnapshotNotLiveReference) {
  sim::VirtualClock clock;
  Tracer tracer(clock);
  auto s1 = tracer.begin("a");
  tracer.end(s1);
  auto snapshot = tracer.spans();
  ASSERT_EQ(snapshot.size(), 1u);
  auto s2 = tracer.begin("b");
  tracer.end(s2);
  EXPECT_EQ(snapshot.size(), 1u);  // unaffected by later spans
  EXPECT_EQ(tracer.spans().size(), 2u);
}

TEST(SloStageTest, StageSelectorMatchesByAttribute) {
  sim::VirtualClock clock;
  Tracer tracer(clock);
  auto span = tracer.begin("cast.write.x");
  tracer.annotate(span, "stage", "I-S");
  clock.advance(100);
  tracer.end(span);
  SloMonitor monitor(tracer);
  Slo slo;
  slo.span_name = "stage:I-S";
  slo.target = 1000;
  auto report = monitor.evaluate(slo);
  EXPECT_EQ(report.samples, 1u);
  EXPECT_TRUE(report.met);
  slo.target = 10;
  EXPECT_EQ(monitor.evaluate(slo).violations, 1u);
}

// End to end on the retail app: the composed order record has recorded
// lineage whose inputs are the payment/shipping records, the trace is
// causally connected (pass spans parent under the triggering commit), and
// both exporters render it.
class RetailLineageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rt_.enable_lineage();
    app_ = apps::build_retail_knactor_app(rt_);
    ASSERT_TRUE(rt_.start_all().ok());
    auto order = app_.place_order_sync(apps::sample_order());
    ASSERT_TRUE(order.ok());
    ASSERT_NE(order.value().get("trackingID"), nullptr);
  }

  Runtime rt_;
  apps::RetailKnactorApp app_;
};

TEST_F(RetailLineageTest, DerivedOrderHasCompleteLineage) {
  const auto& ring = app_.de->kernel().provenance();
  // The newest record for the order may be a service write (the kernel's
  // version-chain entry); the newest Cast-produced one carries the
  // integrator attribution.
  const LineageRecord* rec = nullptr;
  for (auto it = ring.records().rbegin(); it != ring.records().rend(); ++it) {
    if (it->op == "cast:retail" && it->output.store == "knactor-checkout" &&
        it->output.key == "order") {
      rec = &*it;
      break;
    }
  }
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->stage, "I-S");
  EXPECT_GT(rec->trace_id, 0u);
  EXPECT_GT(rec->span_id, 0u);
  ASSERT_FALSE(rec->inputs.empty());
  // The order's derived fields come from shipping and payment state;
  // walking the derivation chain must reach both source stores.
  bool saw_shipping = false, saw_payment = false;
  for (const auto& node :
       lineage_dag(ring, "knactor-checkout", "order")) {
    if (node.ref.store == "knactor-shipping") saw_shipping = true;
    if (node.ref.store == "knactor-payment") saw_payment = true;
    ASSERT_NE(node.ref.data, nullptr)
        << node.ref.store << "/" << node.ref.key;
  }
  EXPECT_TRUE(saw_shipping);
  EXPECT_TRUE(saw_payment);
}

TEST_F(RetailLineageTest, ExplainRendersDerivationChainWithStages) {
  std::string out =
      explain(app_.de->kernel().provenance(), rt_.tracer().spans(),
              "knactor-checkout", "order");
  EXPECT_NE(out.find("derivation of knactor-checkout/order"),
            std::string::npos);
  EXPECT_NE(out.find("cast:retail"), std::string::npos);
  EXPECT_NE(out.find("stage latencies"), std::string::npos);
  EXPECT_NE(out.find("C-I"), std::string::npos);
  EXPECT_NE(out.find("I-S"), std::string::npos);
}

TEST_F(RetailLineageTest, PassSpansCarryStageAttribution) {
  auto spans = rt_.tracer().spans();
  auto breakdown = stage_breakdown(spans);
  EXPECT_GT(breakdown["C-I"].count, 0u);
  EXPECT_GT(breakdown["I"].count, 0u);
  EXPECT_GT(breakdown["I-S"].count, 0u);
}

TEST_F(RetailLineageTest, ChromeExportIsValidJson) {
  std::string json = export_chrome_trace(rt_.tracer().spans());
  auto parsed = common::parse_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const Value* events = parsed.value().get("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->as_array().size(), 0u);
}

TEST_F(RetailLineageTest, TextSummaryHasFlameAndCriticalPath) {
  std::string text = export_text_summary(rt_.tracer().spans());
  EXPECT_NE(text.find("spans by name"), std::string::npos);
  EXPECT_NE(text.find("stage breakdown"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);
}

// Derived writes continue the triggering commit's trace: the lineage
// record's trace id shows up on watch-triggered pass spans.
TEST_F(RetailLineageTest, PassSpanAnnotatedWithInheritedTrace) {
  const auto& ring = app_.de->kernel().provenance();
  const LineageRecord* rec = nullptr;
  for (auto it = ring.records().rbegin(); it != ring.records().rend(); ++it) {
    if (it->op == "cast:retail") {
      rec = &*it;
      break;
    }
  }
  ASSERT_NE(rec, nullptr);
  auto traced =
      rt_.tracer().by_attribute("trace", std::to_string(rec->trace_id));
  EXPECT_FALSE(traced.empty());
}

}  // namespace
}  // namespace knactor::core
