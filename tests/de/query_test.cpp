#include "de/query.h"

#include <gtest/gtest.h>

#include "plan_values.h"

namespace knactor::de {
namespace {

using common::Value;

std::vector<Value> sample_records() {
  std::vector<Value> out;
  struct Row {
    const char* device;
    double kwh;
    int seq;
  };
  for (Row row : {Row{"lamp", 0.05, 1}, Row{"heater", 2.4, 2},
                  Row{"lamp", 0.09, 3}, Row{"fridge", 1.1, 4},
                  Row{"heater", 2.0, 5}}) {
    Value v = Value::object();
    v.set("device", Value(row.device));
    v.set("kwh", Value(row.kwh));
    v.set("seq", Value(row.seq));
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<Value> run(const std::string& text) {
  auto query = parse_query(text);
  EXPECT_TRUE(query.ok()) << text << ": "
                          << (query.ok() ? "" : query.error().to_string());
  if (!query.ok()) return {};
  auto result = run_plan_values(plan_query(query.value()), sample_records());
  EXPECT_TRUE(result.ok()) << text;
  return result.ok() ? result.take() : std::vector<Value>{};
}

TEST(Query, EmptyIsPassThrough) {
  EXPECT_EQ(run("").size(), 5u);
  EXPECT_EQ(run("   ").size(), 5u);
}

TEST(Query, BareExpressionIsFilter) {
  auto rows = run("kwh > 1");
  ASSERT_EQ(rows.size(), 3u);
}

TEST(Query, WhereKeyword) {
  auto rows = run("where device == \"lamp\"");
  ASSERT_EQ(rows.size(), 2u);
}

TEST(Query, RenameStage) {
  auto rows = run("rename energy=kwh");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].get("kwh"), nullptr);
  EXPECT_NE(rows[0].get("energy"), nullptr);
}

TEST(Query, CutAndProjectAndDrop) {
  auto cut = run("cut device");
  EXPECT_EQ(cut[0].as_object().size(), 1u);
  auto project = run("project device, kwh");
  EXPECT_EQ(project[0].as_object().size(), 2u);
  auto drop = run("drop seq");
  EXPECT_EQ(drop[0].get("seq"), nullptr);
  EXPECT_NE(drop[0].get("kwh"), nullptr);
}

TEST(Query, SortAscDesc) {
  auto asc = run("sort kwh");
  EXPECT_EQ(asc.front().get("device")->as_string(), "lamp");
  auto desc = run("sort kwh desc");
  EXPECT_EQ(desc.front().get("device")->as_string(), "heater");
  auto explicit_asc = run("sort kwh asc");
  EXPECT_EQ(explicit_asc.front().get("device")->as_string(), "lamp");
}

TEST(Query, HeadAndTail) {
  EXPECT_EQ(run("head 2").size(), 2u);
  auto tail = run("tail 2");
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[1].get("seq")->as_int(), 5);
}

TEST(Query, PutComputedField) {
  auto rows = run("put wh := kwh * 1000");
  EXPECT_DOUBLE_EQ(rows[0].get("wh")->as_double(), 50.0);
}

TEST(Query, Summarize) {
  auto rows = run("summarize total=sum(kwh), n=count(kwh) by device");
  ASSERT_EQ(rows.size(), 3u);
  // First-seen order: lamp first.
  EXPECT_EQ(rows[0].get("device")->as_string(), "lamp");
  EXPECT_NEAR(rows[0].get("total")->as_double(), 0.14, 1e-9);
  EXPECT_EQ(rows[0].get("n")->as_int(), 2);
}

TEST(Query, SummarizeWithoutGroupBy) {
  auto rows = run("summarize hi=max(kwh)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].get("hi")->as_double(), 2.4);
}

TEST(Query, FullPipeline) {
  auto rows = run(
      "where kwh > 0.5 | put wh := kwh * 1000 | sort wh desc | head 2 | "
      "cut device, wh");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].get("device")->as_string(), "heater");
  EXPECT_DOUBLE_EQ(rows[0].get("wh")->as_double(), 2400.0);
  EXPECT_EQ(rows[0].as_object().size(), 2u);
}

TEST(Query, PipeInsideStringLiteralNotASeparator) {
  std::vector<Value> records;
  Value v = Value::object();
  v.set("name", Value("a|b"));
  records.push_back(std::move(v));
  auto query = parse_query("where name == \"a|b\"");
  ASSERT_TRUE(query.ok());
  auto result = run_plan_values(plan_query(query.value()), std::move(records));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 1u);
}

TEST(Query, IdentifierStartingWithKeywordIsExpression) {
  std::vector<Value> records;
  Value v = Value::object();
  v.set("heading", Value(5));
  records.push_back(std::move(v));
  auto query = parse_query("heading > 1");
  ASSERT_TRUE(query.ok());
  auto result = run_plan_values(plan_query(query.value()), std::move(records));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 1u);
}

TEST(Query, ParseErrors) {
  EXPECT_FALSE(parse_query("where kwh >").ok());
  EXPECT_FALSE(parse_query("rename kwh").ok());
  EXPECT_FALSE(parse_query("head lots").ok());
  EXPECT_FALSE(parse_query("head -3").ok());
  EXPECT_FALSE(parse_query("sort").ok());
  EXPECT_FALSE(parse_query("put x = 1").ok());
  EXPECT_FALSE(parse_query("summarize kwh").ok());
  EXPECT_FALSE(parse_query("kwh > 1 | | head 2").ok());
  EXPECT_FALSE(parse_query("cut").ok());
}

TEST(Query, RoundTripThroughToString) {
  const char* text =
      "where kwh > 0.5 | rename energy=kwh | put e2 := energy * 2 | "
      "sort e2 desc | head 3 | cut device, e2 | "
      "summarize total=sum(e2) by device";
  auto query = parse_query(text);
  ASSERT_TRUE(query.ok());
  std::string rendered = query_to_string(query.value());
  auto reparsed = parse_query(rendered);
  ASSERT_TRUE(reparsed.ok()) << rendered;
  // Same results either way.
  auto a = run_plan_values(plan_query(query.value()), sample_records());
  auto b = run_plan_values(plan_query(reparsed.value()), sample_records());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (std::size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_TRUE(a.value()[i] == b.value()[i]);
  }
}

TEST(Query, UsableThroughLogPool) {
  sim::VirtualClock clock;
  LogDe de(clock, LogDeProfile::instant());
  LogPool& pool = de.create_pool("p");
  for (auto& record : sample_records()) {
    (void)pool.append_sync("w", std::move(record));
  }
  auto query = parse_query("where device == \"heater\" | summarize s=sum(kwh)");
  ASSERT_TRUE(query.ok());
  auto rows = pool.query_sync("r", query.value());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_NEAR(rows.value()[0]->get("s")->as_double(), 4.4, 1e-9);
}

}  // namespace
}  // namespace knactor::de
