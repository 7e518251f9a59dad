// `window NAME := FIELD every WIDTH` (de/log.h kWindow): parse/print
// round-trip, record-local bucket semantics (null bucket for missing or
// non-numeric sources, integer-preserving keys), and fused-plan equivalence
// against the unfused plan — the telemetry rollup's load-bearing stage.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/value.h"
#include "de/log.h"
#include "de/plan.h"
#include "de/query.h"
#include "plan_values.h"

namespace knactor::de {
namespace {

using common::Value;

Value record(double ts, double temp) {
  Value v = Value::object();
  v.set("ts", Value(ts));
  v.set("temp", Value(temp));
  return v;
}

TEST(WindowOp, ParsesAndPrintsRoundTrip) {
  auto q = parse_query("window wstart := ts every 60");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  ASSERT_EQ(q.value().size(), 1u);
  const LogOp& op = q.value()[0];
  EXPECT_EQ(op.kind, LogOp::Kind::kWindow);
  EXPECT_EQ(op.field, "wstart");
  EXPECT_EQ(op.source_field, "ts");
  EXPECT_EQ(op.width, 60.0);
  // Integral widths print without a decimal point, so the round-trip is
  // textual, not just structural.
  EXPECT_EQ(query_to_string(q.value()), "window wstart := ts every 60");
  auto again = parse_query(query_to_string(q.value()));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(query_to_string(again.value()), query_to_string(q.value()));
}

TEST(WindowOp, ParseRejectsMalformedClauses) {
  EXPECT_FALSE(parse_query("window wstart := ts").ok());
  EXPECT_FALSE(parse_query("window wstart := ts every abc").ok());
  EXPECT_FALSE(parse_query("window wstart := ts every 0").ok());
  EXPECT_FALSE(parse_query("window wstart := ts every -5").ok());
  EXPECT_FALSE(LogOp::window("w", "ts", 0.0).ok());
}

TEST(WindowOp, BucketsIntegerSourcesToIntegerKeys) {
  auto q = parse_query("window wstart := ts every 60");
  ASSERT_TRUE(q.ok());
  Value r = Value::object();
  r.set("ts", Value(static_cast<std::int64_t>(179)));
  auto out = run_plan_values(plan_query(q.value()), {std::move(r)});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  const Value* w = out.value()[0].get("wstart");
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->is_int());  // int source + integral width -> int bucket
  EXPECT_EQ(static_cast<std::int64_t>(w->as_number()), 120);
}

TEST(WindowOp, MissingAndNonNumericSourcesLandInTheNullBucket) {
  auto q = parse_query("window wstart := ts every 60");
  ASSERT_TRUE(q.ok());
  Value no_ts = Value::object();
  no_ts.set("temp", Value(50.0));
  Value bad_ts = Value::object();
  bad_ts.set("ts", Value(std::string("later")));
  auto out = run_plan_values(plan_query(q.value()),
                             {std::move(no_ts), std::move(bad_ts)});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 2u);
  for (const auto& r : out.value()) {
    const Value* w = r.get("wstart");
    ASSERT_NE(w, nullptr);  // the field exists...
    EXPECT_TRUE(w->is_null());  // ...but holds the null bucket
  }
}

TEST(WindowOp, FractionalWidthKeepsDoubleKeys) {
  auto q = parse_query("window b := ts every 0.5");
  ASSERT_TRUE(q.ok());
  Value r = Value::object();
  r.set("ts", Value(static_cast<std::int64_t>(3)));
  auto out = run_plan_values(plan_query(q.value()), {std::move(r)});
  ASSERT_TRUE(out.ok());
  const Value* w = out.value()[0].get("b");
  ASSERT_NE(w, nullptr);
  EXPECT_FALSE(w->is_int());  // fractional width -> double bucket keys
  EXPECT_EQ(w->as_number(), 3.0);
}

TEST(WindowOp, FusesIntoTheScanAndMatchesTheNaiveExecutor) {
  // The telemetry rollup shape: window | summarize. The planner must fuse
  // the record-local window into stage 0 and keep only the summarize
  // barrier; the fused result must match the unfused plan byte for byte.
  auto q = parse_query(
      "window wstart := ts every 60 "
      "| summarize n := count(), hi := max(temp) by wstart");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  QueryPlan plan = plan_query(q.value());
  ASSERT_EQ(plan.passes(), 2u);
  EXPECT_FALSE(plan.stages[0].is_barrier);
  ASSERT_EQ(plan.stages[0].fused.size(), 1u);
  EXPECT_EQ(plan.stages[0].fused[0].kind, LogOp::Kind::kWindow);
  EXPECT_TRUE(plan.stages[1].is_barrier);

  std::vector<Value> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(record(i * 7.0, 60.0 + i));
  }
  auto naive = run_plan_values(plan_query(q.value(), /*fuse=*/false), records);
  auto fused = run_plan_values(plan, records);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ(naive.value().size(), fused.value().size());
  for (std::size_t i = 0; i < naive.value().size(); ++i) {
    EXPECT_EQ(common::to_json(naive.value()[i]),
              common::to_json(fused.value()[i]))
        << "row " << i;
  }
}

}  // namespace
}  // namespace knactor::de
