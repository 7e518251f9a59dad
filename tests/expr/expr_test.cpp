#include <gtest/gtest.h>

#include "common/json.h"
#include "expr/eval.h"
#include "expr/parser.h"
#include "expr/token.h"

namespace knactor::expr {
namespace {

using common::Value;

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

TEST(Token, NumbersAndTypes) {
  auto tokens = tokenize("1 2.5 1e3 -4").value();
  EXPECT_EQ(tokens[0].type, TokenType::kNumber);
  EXPECT_TRUE(tokens[0].is_int);
  EXPECT_EQ(tokens[0].int_value, 1);
  EXPECT_FALSE(tokens[1].is_int);
  EXPECT_DOUBLE_EQ(tokens[1].number, 2.5);
  EXPECT_DOUBLE_EQ(tokens[2].number, 1000.0);
  EXPECT_TRUE(tokens[3].is_op("-"));  // unary handled by parser
}

TEST(Token, StringsWithBothQuotes) {
  auto tokens = tokenize("\"air\" 'ground'").value();
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "air");
  EXPECT_EQ(tokens[1].text, "ground");
}

TEST(Token, StringEscapes) {
  auto tokens = tokenize(R"("a\nb\"c")").value();
  EXPECT_EQ(tokens[0].text, "a\nb\"c");
}

TEST(Token, UnterminatedStringErrors) {
  EXPECT_FALSE(tokenize("\"oops").ok());
}

TEST(Token, KeywordsVsIdents) {
  auto tokens = tokenize("if order in xs and not done").value();
  EXPECT_EQ(tokens[0].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[1].type, TokenType::kIdent);
  EXPECT_EQ(tokens[2].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[3].type, TokenType::kIdent);
  EXPECT_EQ(tokens[4].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[5].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[6].type, TokenType::kIdent);
}

TEST(Token, TwoCharOperators) {
  auto tokens = tokenize("== != <= >= // **").value();
  EXPECT_TRUE(tokens[0].is_op("=="));
  EXPECT_TRUE(tokens[1].is_op("!="));
  EXPECT_TRUE(tokens[2].is_op("<="));
  EXPECT_TRUE(tokens[3].is_op(">="));
  EXPECT_TRUE(tokens[4].is_op("//"));
  EXPECT_TRUE(tokens[5].is_op("**"));
}

TEST(Token, UnknownCharacterErrors) {
  EXPECT_FALSE(tokenize("a @ b").ok());
}

TEST(Token, EndsWithEndToken) {
  auto tokens = tokenize("x").value();
  EXPECT_EQ(tokens.back().type, TokenType::kEnd);
}

// ---------------------------------------------------------------------------
// Parser (via to_string normalization).
// ---------------------------------------------------------------------------

std::string normalized(const std::string& text) {
  auto node = parse(text);
  EXPECT_TRUE(node.ok()) << text << ": "
                         << (node.ok() ? "" : node.error().to_string());
  return node.ok() ? to_string(*node.value()) : "<error>";
}

TEST(Parser, Precedence) {
  EXPECT_EQ(normalized("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(normalized("(1 + 2) * 3"), "((1 + 2) * 3)");
  EXPECT_EQ(normalized("1 < 2 + 3"), "(1 < (2 + 3))");
  EXPECT_EQ(normalized("not a and b"), "((not a) and b)");
  EXPECT_EQ(normalized("a or b and c"), "(a or (b and c))");
}

TEST(Parser, PowerIsRightAssociative) {
  EXPECT_EQ(normalized("2 ** 3 ** 2"), "(2 ** (3 ** 2))");
}

TEST(Parser, AttributeChains) {
  EXPECT_EQ(normalized("C.order.items"), "C.order.items");
  EXPECT_EQ(normalized("this.currency"), "this.currency");
}

TEST(Parser, CallsAndIndexing) {
  EXPECT_EQ(normalized("f(a, b + 1)"), "f(a, (b + 1))");
  EXPECT_EQ(normalized("xs[0].name"), "xs[0].name");
  EXPECT_EQ(normalized("m[\"key\"]"), "m[\"key\"]");
}

TEST(Parser, Ternary) {
  EXPECT_EQ(normalized("\"air\" if cost > 1000 else \"ground\""),
            "(\"air\" if (cost > 1000) else \"ground\")");
}

TEST(Parser, NestedTernaryRightAssociative) {
  EXPECT_EQ(normalized("a if p else b if q else c"),
            "(a if p else (b if q else c))");
}

TEST(Parser, ListComprehension) {
  EXPECT_EQ(normalized("[item.name for item in C.order.items]"),
            "[item.name for item in C.order.items]");
  EXPECT_EQ(normalized("[x for x in xs if x > 2]"),
            "[x for x in xs if (x > 2)]");
}

TEST(Parser, ListAndDictLiterals) {
  EXPECT_EQ(normalized("[1, 2, 3]"), "[1, 2, 3]");
  EXPECT_EQ(normalized("[]"), "[]");
  EXPECT_EQ(normalized("{\"a\": 1, \"b\": x}"), "{\"a\": 1, \"b\": x}");
}

TEST(Parser, NotIn) {
  EXPECT_EQ(normalized("x not in xs"), "(x not in xs)");
}

TEST(Parser, Errors) {
  EXPECT_FALSE(parse("").ok());
  EXPECT_FALSE(parse("1 +").ok());
  EXPECT_FALSE(parse("(1").ok());
  EXPECT_FALSE(parse("f(1,").ok());
  EXPECT_FALSE(parse("[1 for]").ok());
  EXPECT_FALSE(parse("a if b").ok());
  EXPECT_FALSE(parse("1 2").ok());
  EXPECT_FALSE(parse("xs[1").ok());
  EXPECT_FALSE(parse("{\"a\" 1}").ok());
}

TEST(Parser, OnlyNamedFunctionsCallable) {
  EXPECT_FALSE(parse("a.b(1)").ok());
}

TEST(Parser, PathologicalNestingRejectedGracefully) {
  // Deep paren nesting must produce a parse error, not a stack overflow.
  std::string deep(5000, '(');
  deep += "1";
  deep += std::string(5000, ')');
  auto r = parse(deep);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("nested too deeply"), std::string::npos);
  // Same for unary chains and 'not' chains.
  EXPECT_FALSE(parse(std::string(5000, '-') + "x").ok());
  std::string nots;
  for (int i = 0; i < 5000; ++i) nots += "not ";
  EXPECT_FALSE(parse(nots + "x").ok());
  // Moderate nesting still parses.
  std::string ok(50, '(');
  ok += "1";
  ok += std::string(50, ')');
  EXPECT_TRUE(parse(ok).ok());
}

// ---------------------------------------------------------------------------
// collect_refs.
// ---------------------------------------------------------------------------

std::vector<std::string> refs(const std::string& text) {
  auto node = parse(text);
  EXPECT_TRUE(node.ok());
  return collect_refs(*node.value());
}

TEST(Refs, SimplePaths) {
  EXPECT_EQ(refs("C.order.totalCost"),
            (std::vector<std::string>{"C.order.totalCost"}));
}

TEST(Refs, MultipleAndDeduplicated) {
  auto r = refs("currency_convert(S.quote.price, S.quote.currency, "
                "this.currency)");
  EXPECT_EQ(r, (std::vector<std::string>{"S.quote.currency", "S.quote.price",
                                         "this.currency"}));
}

TEST(Refs, ComprehensionLoopVarMapsToIterable) {
  auto r = refs("[item.name for item in C.order.items]");
  EXPECT_EQ(r, (std::vector<std::string>{"C.order.items"}));
}

TEST(Refs, ComprehensionFilterRefsCollected) {
  auto r = refs("[x.a for x in S.rows if x.b > P.threshold]");
  EXPECT_EQ(r, (std::vector<std::string>{"P.threshold", "S.rows"}));
}

TEST(Refs, FunctionNamesAreNotRefs) {
  auto r = refs("len(C.xs)");
  EXPECT_EQ(r, (std::vector<std::string>{"C.xs"}));
}

TEST(Refs, LiteralsHaveNone) {
  EXPECT_TRUE(refs("1 + 2").empty());
  EXPECT_TRUE(refs("\"s\"").empty());
}

// ---------------------------------------------------------------------------
// Evaluator.
// ---------------------------------------------------------------------------

Value eval_with(const std::string& text, const MapEnv& env) {
  auto r = evaluate(text, env, FunctionRegistry::builtins());
  EXPECT_TRUE(r.ok()) << text << ": "
                      << (r.ok() ? "" : r.error().to_string());
  return r.ok() ? r.take() : Value();
}

common::Error eval_error(const std::string& text, const MapEnv& env) {
  auto r = evaluate(text, env, FunctionRegistry::builtins());
  EXPECT_FALSE(r.ok()) << text;
  return r.ok() ? common::Error{} : r.error();
}

TEST(Eval, Arithmetic) {
  MapEnv env;
  EXPECT_EQ(eval_with("1 + 2 * 3", env).as_int(), 7);
  EXPECT_EQ(eval_with("10 - 4", env).as_int(), 6);
  EXPECT_DOUBLE_EQ(eval_with("7 / 2", env).as_double(), 3.5);
  EXPECT_EQ(eval_with("7 // 2", env).as_int(), 3);
  EXPECT_EQ(eval_with("-7 // 2", env).as_int(), -4);  // Python floor
  EXPECT_EQ(eval_with("7 % 3", env).as_int(), 1);
  EXPECT_EQ(eval_with("-7 % 3", env).as_int(), 2);  // Python sign rule
  EXPECT_EQ(eval_with("2 ** 10", env).as_int(), 1024);
  EXPECT_DOUBLE_EQ(eval_with("1.5 + 1", env).as_double(), 2.5);
}

TEST(Eval, DivisionByZero) {
  MapEnv env;
  EXPECT_EQ(eval_error("1 / 0", env).code, common::Error::Code::kEval);
  EXPECT_EQ(eval_error("1 % 0", env).code, common::Error::Code::kEval);
  EXPECT_EQ(eval_error("1 // 0", env).code, common::Error::Code::kEval);
}

TEST(Eval, UnaryOperators) {
  MapEnv env;
  EXPECT_EQ(eval_with("-5", env).as_int(), -5);
  EXPECT_DOUBLE_EQ(eval_with("-2.5", env).as_double(), -2.5);
  EXPECT_EQ(eval_with("not true", env).as_bool(), false);
  EXPECT_EQ(eval_with("not 0", env).as_bool(), true);
  EXPECT_EQ(eval_with("not \"\"", env).as_bool(), true);
}

TEST(Eval, Comparisons) {
  MapEnv env;
  EXPECT_TRUE(eval_with("1 < 2", env).as_bool());
  EXPECT_TRUE(eval_with("2 <= 2", env).as_bool());
  EXPECT_TRUE(eval_with("3 > 2", env).as_bool());
  EXPECT_TRUE(eval_with("1 == 1.0", env).as_bool());  // numeric equality
  EXPECT_TRUE(eval_with("\"a\" < \"b\"", env).as_bool());
  EXPECT_TRUE(eval_with("\"x\" != \"y\"", env).as_bool());
  EXPECT_TRUE(eval_with("[1, 2] == [1, 2]", env).as_bool());
}

TEST(Eval, OrderingTypeError) {
  MapEnv env;
  EXPECT_EQ(eval_error("1 < \"a\"", env).code, common::Error::Code::kEval);
}

TEST(Eval, ShortCircuitSemantics) {
  MapEnv env;
  env.bind("xs", Value::array({1}));
  // Python returns operands, not booleans.
  EXPECT_EQ(eval_with("0 or 5", env).as_int(), 5);
  EXPECT_EQ(eval_with("3 and 5", env).as_int(), 5);
  EXPECT_EQ(eval_with("0 and unknown_name", env).as_int(), 0);
  EXPECT_EQ(eval_with("1 or unknown_name", env).as_int(), 1);
}

TEST(Eval, StringAndListConcat) {
  MapEnv env;
  EXPECT_EQ(eval_with("\"a\" + \"b\"", env).as_string(), "ab");
  Value v = eval_with("[1] + [2, 3]", env);
  EXPECT_EQ(v.as_array().size(), 3u);
}

TEST(Eval, InOperator) {
  MapEnv env;
  env.bind("xs", Value::array({1, 2, 3}));
  env.bind("m", Value::object({{"k", 1}}));
  EXPECT_TRUE(eval_with("2 in xs", env).as_bool());
  EXPECT_FALSE(eval_with("9 in xs", env).as_bool());
  EXPECT_TRUE(eval_with("9 not in xs", env).as_bool());
  EXPECT_TRUE(eval_with("\"k\" in m", env).as_bool());
  EXPECT_TRUE(eval_with("\"ell\" in \"hello\"", env).as_bool());
  EXPECT_EQ(eval_error("1 in 2", env).code, common::Error::Code::kEval);
}

TEST(Eval, Ternary) {
  MapEnv env;
  env.bind("cost", Value(1500));
  EXPECT_EQ(eval_with("\"air\" if cost > 1000 else \"ground\"", env).as_string(),
            "air");
  env.bind("cost", Value(120));
  EXPECT_EQ(eval_with("\"air\" if cost > 1000 else \"ground\"", env).as_string(),
            "ground");
}

TEST(Eval, AttributeAccess) {
  MapEnv env;
  env.bind("C", Value::object(
                    {{"order", Value::object({{"totalCost", 120.5}})}}));
  EXPECT_DOUBLE_EQ(eval_with("C.order.totalCost", env).as_double(), 120.5);
}

TEST(Eval, MissingAttributeYieldsNull) {
  MapEnv env;
  env.bind("C", Value::object({{"order", Value::object({})}}));
  EXPECT_TRUE(eval_with("C.order.missing", env).is_null());
  // Chained access through null stays null ("not ready").
  EXPECT_TRUE(eval_with("C.order.missing.deeper", env).is_null());
}

TEST(Eval, AttributeOfScalarErrors) {
  MapEnv env;
  env.bind("x", Value(5));
  EXPECT_EQ(eval_error("x.field", env).code, common::Error::Code::kEval);
}

TEST(Eval, NullArithmeticPropagates) {
  MapEnv env;
  env.bind("C", Value::object({}));
  EXPECT_TRUE(eval_with("C.missing + 1", env).is_null());
  EXPECT_TRUE(eval_with("C.missing * 2", env).is_null());
}

TEST(Eval, NullOrderingPropagatesNotReady) {
  // Orderings over missing upstream state stay "not ready" (null) rather
  // than guessing false — Cast skips such mappings until state arrives.
  MapEnv env;
  env.bind("C", Value::object({}));
  EXPECT_TRUE(eval_with("C.missing > 1000", env).is_null());
  EXPECT_TRUE(eval_with("1000 < C.missing", env).is_null());
  EXPECT_TRUE(eval_with("C.missing >= C.missing", env).is_null());
}

TEST(Eval, NullTernaryConditionPropagates) {
  MapEnv env;
  env.bind("C", Value::object({}));
  EXPECT_TRUE(
      eval_with("\"air\" if C.missing > 1000 else \"ground\"", env).is_null());
  // A present condition still picks a branch.
  env.bind("C", Value::object({{"cost", 1500}}));
  EXPECT_EQ(eval_with("\"air\" if C.cost > 1000 else \"ground\"", env)
                .as_string(),
            "air");
}

TEST(Eval, NullEqualityIsDecidable) {
  // Equality against null is a real answer (is the state absent?), not
  // "not ready".
  MapEnv env;
  env.bind("C", Value::object({}));
  EXPECT_TRUE(eval_with("C.missing == null", env).as_bool());
  EXPECT_FALSE(eval_with("C.missing != null", env).as_bool());
}

TEST(Eval, UnknownNameErrors) {
  MapEnv env;
  EXPECT_EQ(eval_error("nope", env).code, common::Error::Code::kEval);
}

TEST(Eval, Indexing) {
  MapEnv env;
  env.bind("xs", Value::array({10, 20, 30}));
  env.bind("m", Value::object({{"k", "v"}}));
  env.bind("s", Value("abc"));
  EXPECT_EQ(eval_with("xs[0]", env).as_int(), 10);
  EXPECT_EQ(eval_with("xs[-1]", env).as_int(), 30);
  EXPECT_EQ(eval_with("m[\"k\"]", env).as_string(), "v");
  EXPECT_EQ(eval_with("s[1]", env).as_string(), "b");
  EXPECT_EQ(eval_with("s[-1]", env).as_string(), "c");
  EXPECT_EQ(eval_error("xs[5]", env).code, common::Error::Code::kEval);
  EXPECT_EQ(eval_error("xs[\"k\"]", env).code, common::Error::Code::kEval);
}

TEST(Eval, ListComprehension) {
  MapEnv env;
  Value items = Value::array(
      {Value::object({{"name", "kbd"}, {"qty", 1}}),
       Value::object({{"name", "mouse"}, {"qty", 2}})});
  env.bind("C", Value::object({{"order", Value::object({{"items", items}})}}));
  Value names = eval_with("[item.name for item in C.order.items]", env);
  ASSERT_TRUE(names.is_array());
  ASSERT_EQ(names.as_array().size(), 2u);
  EXPECT_EQ(names.as_array()[0].as_string(), "kbd");
  EXPECT_EQ(names.as_array()[1].as_string(), "mouse");
}

TEST(Eval, ListComprehensionWithFilter) {
  MapEnv env;
  env.bind("xs", Value::array({1, 2, 3, 4, 5}));
  Value v = eval_with("[x * 10 for x in xs if x % 2 == 0]", env);
  ASSERT_EQ(v.as_array().size(), 2u);
  EXPECT_EQ(v.as_array()[0].as_int(), 20);
  EXPECT_EQ(v.as_array()[1].as_int(), 40);
}

TEST(Eval, ComprehensionOverNullIsNull) {
  MapEnv env;
  env.bind("C", Value::object({}));
  EXPECT_TRUE(eval_with("[x for x in C.missing]", env).is_null());
}

TEST(Eval, ComprehensionOverNonListErrors) {
  MapEnv env;
  env.bind("n", Value(3));
  EXPECT_EQ(eval_error("[x for x in n]", env).code,
            common::Error::Code::kEval);
}

TEST(Eval, DictLiteralComprehensionBody) {
  MapEnv env;
  Value items = Value::array({Value::object({{"name", "kbd"}, {"qty", 2}})});
  env.bind("items", items);
  Value v = eval_with("[{\"name\": i.name, \"qty\": i.qty} for i in items]",
                      env);
  ASSERT_EQ(v.as_array().size(), 1u);
  EXPECT_EQ(v.as_array()[0].get("name")->as_string(), "kbd");
  EXPECT_EQ(v.as_array()[0].get("qty")->as_int(), 2);
}

TEST(Eval, EnvScopingParentChain) {
  MapEnv parent;
  parent.bind("a", Value(1));
  MapEnv child(&parent);
  child.bind("b", Value(2));
  EXPECT_EQ(eval_with("a + b", child).as_int(), 3);
}

TEST(Eval, Fig6ShippingCostExpression) {
  MapEnv env;
  env.bind("S", Value::object({{"quote", Value::object({{"price", 25.0},
                                                        {"currency", "USD"}})}}));
  env.bind("this", Value::object({{"currency", "EUR"}}));
  Value v = eval_with(
      "currency_convert(S.quote.price, S.quote.currency, this.currency)", env);
  EXPECT_NEAR(v.as_double(), 25.0 * 0.92, 1e-9);
}

// ---------------------------------------------------------------------------
// Builtins.
// ---------------------------------------------------------------------------

TEST(Builtins, CurrencyConvert) {
  MapEnv env;
  EXPECT_NEAR(eval_with("currency_convert(100, \"USD\", \"EUR\")", env)
                  .as_double(),
              92.0, 1e-9);
  EXPECT_NEAR(eval_with("currency_convert(92, \"EUR\", \"USD\")", env)
                  .as_double(),
              100.0, 1e-9);
  EXPECT_EQ(eval_error("currency_convert(1, \"USD\", \"XXX\")", env).code,
            common::Error::Code::kEval);
  EXPECT_EQ(eval_error("currency_convert(1, \"USD\")", env).code,
            common::Error::Code::kEval);
}

TEST(Builtins, CurrencyConvertNullPropagates) {
  MapEnv env;
  env.bind("C", Value::object({}));
  EXPECT_TRUE(
      eval_with("currency_convert(C.missing, \"USD\", \"EUR\")", env).is_null());
}

TEST(Builtins, Len) {
  MapEnv env;
  env.bind("xs", Value::array({1, 2, 3}));
  env.bind("m", Value::object({{"a", 1}}));
  EXPECT_EQ(eval_with("len(xs)", env).as_int(), 3);
  EXPECT_EQ(eval_with("len(\"abcd\")", env).as_int(), 4);
  EXPECT_EQ(eval_with("len(m)", env).as_int(), 1);
  EXPECT_EQ(eval_error("len(5)", env).code, common::Error::Code::kEval);
}

TEST(Builtins, Conversions) {
  MapEnv env;
  EXPECT_EQ(eval_with("int(2.9)", env).as_int(), 2);
  EXPECT_EQ(eval_with("int(\"42\")", env).as_int(), 42);
  EXPECT_EQ(eval_with("int(true)", env).as_int(), 1);
  EXPECT_DOUBLE_EQ(eval_with("float(3)", env).as_double(), 3.0);
  EXPECT_DOUBLE_EQ(eval_with("float(\"2.5\")", env).as_double(), 2.5);
  EXPECT_EQ(eval_with("str(42)", env).as_string(), "42");
  EXPECT_EQ(eval_with("str(\"s\")", env).as_string(), "s");
  EXPECT_EQ(eval_error("int(\"xyz\")", env).code, common::Error::Code::kEval);
}

TEST(Builtins, RoundAbs) {
  MapEnv env;
  EXPECT_EQ(eval_with("round(2.6)", env).as_int(), 3);
  EXPECT_DOUBLE_EQ(eval_with("round(2.345, 2)", env).as_double(), 2.35);
  EXPECT_EQ(eval_with("abs(-4)", env).as_int(), 4);
  EXPECT_DOUBLE_EQ(eval_with("abs(-4.5)", env).as_double(), 4.5);
}

TEST(Builtins, Reductions) {
  MapEnv env;
  env.bind("xs", Value::array({3, 1, 2}));
  env.bind("ds", Value::array({1.5, 2.5}));
  EXPECT_EQ(eval_with("sum(xs)", env).as_int(), 6);
  EXPECT_EQ(eval_with("min(xs)", env).as_int(), 1);
  EXPECT_EQ(eval_with("max(xs)", env).as_int(), 3);
  EXPECT_DOUBLE_EQ(eval_with("avg(xs)", env).as_double(), 2.0);
  EXPECT_DOUBLE_EQ(eval_with("sum(ds)", env).as_double(), 4.0);
  EXPECT_EQ(eval_with("sum([])", env).as_int(), 0);
  EXPECT_EQ(eval_error("min([])", env).code, common::Error::Code::kEval);
  EXPECT_EQ(eval_error("avg([])", env).code, common::Error::Code::kEval);
  EXPECT_EQ(eval_error("sum([\"a\"])", env).code, common::Error::Code::kEval);
}

TEST(Builtins, StringsAndContainers) {
  MapEnv env;
  env.bind("xs", Value::array({3, 1, 3, 2}));
  EXPECT_EQ(eval_with("upper(\"air\")", env).as_string(), "AIR");
  EXPECT_EQ(eval_with("lower(\"AIR\")", env).as_string(), "air");
  EXPECT_EQ(eval_with("concat(\"a\", 1, \"b\")", env).as_string(), "a1b");
  EXPECT_TRUE(eval_with("contains(\"hello\", \"ell\")", env).as_bool());
  EXPECT_TRUE(eval_with("contains(xs, 2)", env).as_bool());
  EXPECT_FALSE(eval_with("contains(xs, 9)", env).as_bool());
  Value u = eval_with("unique(xs)", env);
  EXPECT_EQ(u.as_array().size(), 3u);
  Value s = eval_with("sorted(xs)", env);
  EXPECT_EQ(s.as_array()[0].as_int(), 1);
  EXPECT_EQ(s.as_array()[3].as_int(), 3);
}

TEST(Builtins, ObjectHelpers) {
  MapEnv env;
  env.bind("m", Value::object({{"a", 1}, {"b", 2}}));
  Value keys = eval_with("keys(m)", env);
  EXPECT_EQ(keys.as_array().size(), 2u);
  EXPECT_EQ(keys.as_array()[0].as_string(), "a");
  Value values = eval_with("values(m)", env);
  EXPECT_EQ(values.as_array()[1].as_int(), 2);
  EXPECT_EQ(eval_with("get(m, \"a\")", env).as_int(), 1);
  EXPECT_EQ(eval_with("get(m, \"z\", 9)", env).as_int(), 9);
  EXPECT_TRUE(eval_with("get(m, \"z\")", env).is_null());
}

TEST(Builtins, StringFunctions) {
  MapEnv env;
  Value parts = eval_with("split(\"a,b,c\", \",\")", env);
  ASSERT_TRUE(parts.is_array());
  ASSERT_EQ(parts.as_array().size(), 3u);
  EXPECT_EQ(parts.as_array()[1].as_string(), "b");
  EXPECT_EQ(eval_with("join([\"x\", \"y\"], \"-\")", env).as_string(), "x-y");
  EXPECT_EQ(eval_with("join(split(\"a b c\", \" \"), \"_\")", env).as_string(),
            "a_b_c");
  EXPECT_EQ(eval_with("replace(\"aXbXc\", \"X\", \"-\")", env).as_string(),
            "a-b-c");
  EXPECT_EQ(eval_with("trim(\"  pad  \")", env).as_string(), "pad");
  EXPECT_EQ(eval_with("trim(\"   \")", env).as_string(), "");
  EXPECT_TRUE(eval_with("startswith(\"track-9\", \"track-\")", env).as_bool());
  EXPECT_FALSE(eval_with("startswith(\"x\", \"track-\")", env).as_bool());
  EXPECT_TRUE(eval_with("endswith(\"file.yaml\", \".yaml\")", env).as_bool());
  EXPECT_FALSE(eval_with("endswith(\"file.yml\", \".yaml\")", env).as_bool());
}

TEST(Builtins, StringFunctionsPropagateNull) {
  MapEnv env;
  env.bind("C", Value::object({}));
  EXPECT_TRUE(eval_with("split(C.missing, \",\")", env).is_null());
  EXPECT_TRUE(eval_with("trim(C.missing)", env).is_null());
  EXPECT_TRUE(eval_with("startswith(C.missing, \"x\")", env).is_null());
}

TEST(Builtins, StringFunctionTypeErrors) {
  MapEnv env;
  EXPECT_EQ(eval_error("split(5, \",\")", env).code,
            common::Error::Code::kEval);
  EXPECT_EQ(eval_error("split(\"a\", \"\")", env).code,
            common::Error::Code::kEval);
  EXPECT_EQ(eval_error("join(\"nope\", \",\")", env).code,
            common::Error::Code::kEval);
}

TEST(Builtins, UnknownFunctionErrors) {
  MapEnv env;
  EXPECT_EQ(eval_error("frobnicate(1)", env).code,
            common::Error::Code::kEval);
}

TEST(Builtins, CustomRegistration) {
  FunctionRegistry registry;
  registry.register_function(
      "twice", [](const Args& args) -> common::Result<Value> {
        return Value(args[0].as_int() * 2);
      });
  MapEnv env;
  auto r = evaluate("twice(21)", env, registry);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().as_int(), 42);
  // Builtins absent from a custom registry.
  EXPECT_FALSE(evaluate("len(\"x\")", env, registry).ok());
}

// ---------------------------------------------------------------------------
// Borrowed evaluation: names, attribute chains and call arguments point into
// the Env's own storage; only the final result is copied.
// ---------------------------------------------------------------------------

TEST(Borrowed, CallArgumentsPointIntoEnvStorage) {
  FunctionRegistry registry;
  std::vector<const Value*> seen;
  registry.register_function(
      "addr", [&seen](const Args& args) -> common::Result<Value> {
        for (const Value& v : args) seen.push_back(&v);
        return Value(static_cast<std::int64_t>(args.size()));
      });
  MapEnv env;
  env.bind("R", Value::object({{"a", Value::object({{"b", 1}})},
                               {"xs", Value::array({1, 2, 3})}}));
  const Value* r = env.resolve("R");

  ASSERT_TRUE(evaluate("addr(R)", env, registry).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], r);

  seen.clear();
  ASSERT_TRUE(evaluate("addr(R.a, R.a.b, R.xs[1], R[\"a\"])", env, registry)
                  .ok());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], r->get("a"));
  EXPECT_EQ(seen[1], r->get("a")->get("b"));
  EXPECT_EQ(seen[2], &r->get("xs")->as_array()[1]);
  EXPECT_EQ(seen[3], r->get("a"));

  // A comprehension's loop variable is the iterable's own element.
  seen.clear();
  ASSERT_TRUE(evaluate("[addr(x) for x in R.xs]", env, registry).ok());
  ASSERT_EQ(seen.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(seen[i], &r->get("xs")->as_array()[i]);
  }
}

TEST(Borrowed, AttributeOfCallResult) {
  MapEnv env;
  env.bind("R", Value::object(
                    {{"ride/1", Value::object({{"zone", "north"},
                                               {"fare", 12}})}}));
  env.bind("k", Value("ride/1"));
  EXPECT_EQ(eval_with("get(R, k).zone", env).as_string(), "north");
  EXPECT_EQ(eval_with("get(R, k)[\"fare\"] * 2", env).as_int(), 24);
  EXPECT_EQ(eval_with("[get(R, k).zone][0]", env).as_string(), "north");
  EXPECT_EQ(eval_with("{\"z\": get(R, k).zone}.z", env).as_string(), "north");
  // The env's value is untouched by moving fields out of temporaries.
  EXPECT_EQ(env.resolve("R")->get("ride/1")->get("zone")->as_string(),
            "north");
}

TEST(Borrowed, NullPropagatesThroughChains) {
  MapEnv env;
  env.bind("C", Value::object({{"order", Value(nullptr)}}));
  EXPECT_TRUE(eval_with("C.order.items.name", env).is_null());
  EXPECT_TRUE(eval_with("C.missing.deeper", env).is_null());
  EXPECT_TRUE(eval_with("get(C, \"nope\").x", env).is_null());
  EXPECT_TRUE(eval_with("C.order.cost > 10", env).is_null());
  EXPECT_TRUE(eval_with("1 if C.order.flag else 2", env).is_null());
}

TEST(Borrowed, UnknownNameErrorUnchanged) {
  MapEnv env;
  env.bind("C", Value::object());
  auto err = eval_error("C.a + nope.b", env);
  EXPECT_EQ(err.code, common::Error::Code::kEval);
  EXPECT_EQ(err.message, "unknown name 'nope'");
}

TEST(Borrowed, ComprehensionVariableShadowsOuterName) {
  MapEnv env;
  env.bind("x", Value(100));
  env.bind("xs", Value::array({1, 2, 3}));
  Value v = eval_with("[x * 2 for x in xs if x > 1]", env);
  EXPECT_EQ(common::to_json(v), "[4,6]");
  // The outer binding is visible again after the comprehension.
  EXPECT_EQ(eval_with("[x for x in xs][0] + x", env).as_int(), 101);
  // Nested comprehensions shadow in turn.
  env.bind("m", Value::array({Value::array({1, 2}), Value::array({3})}));
  EXPECT_EQ(common::to_json(eval_with("[[x + 1 for x in x] for x in m]", env)),
            "[[2,3],[4]]");
}

TEST(Borrowed, SameArgumentTwice) {
  MapEnv env;
  env.bind("x", Value("ab"));
  env.bind("o", Value::object({{"s", "cd"}}));
  EXPECT_EQ(eval_with("concat(x, x)", env).as_string(), "abab");
  EXPECT_EQ(eval_with("concat(o.s, o.s, x)", env).as_string(), "cdcdab");
  EXPECT_EQ(eval_with("x + x", env).as_string(), "abab");
}

// Property-style sweep: parse(to_string(parse(x))) is a fixed point.
class NormalizationFixedPoint : public ::testing::TestWithParam<const char*> {};

TEST_P(NormalizationFixedPoint, Stable) {
  auto first = parse(GetParam());
  ASSERT_TRUE(first.ok()) << GetParam();
  std::string once = to_string(*first.value());
  auto second = parse(once);
  ASSERT_TRUE(second.ok()) << once;
  EXPECT_EQ(once, to_string(*second.value()));
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, NormalizationFixedPoint,
    ::testing::Values(
        "1 + 2 * 3 - 4 / 5", "a.b.c[0].d", "f(g(x), y + 1)",
        "\"air\" if C.order.cost > 1000 else \"ground\"",
        "[item.name for item in C.order.items]",
        "[x for x in xs if x % 2 == 0]", "not a and b or c",
        "x not in [1, 2, 3]", "{\"a\": 1, \"b\": [2, 3]}",
        "-x ** 2", "len(xs) > 0 and xs[0] == \"first\"",
        "currency_convert(S.quote.price, S.quote.currency, this.currency)"));

// Property-style sweep: evaluation is deterministic.
class EvalDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(EvalDeterminism, SameResultTwice) {
  MapEnv env;
  env.bind("xs", Value::array({5, 3, 8, 1}));
  env.bind("s", Value("text"));
  env.bind("n", Value(7));
  const auto& fns = FunctionRegistry::builtins();
  auto a = evaluate(GetParam(), env, fns);
  auto b = evaluate(GetParam(), env, fns);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value() == b.value());
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, EvalDeterminism,
    ::testing::Values("sum(xs) + n", "sorted(xs)[0]", "max(xs) - min(xs)",
                      "len(s) * 2", "[x + 1 for x in xs if x > 2]",
                      "\"big\" if sum(xs) > 10 else \"small\"",
                      "avg(xs) * 4", "unique(xs + xs)"));

}  // namespace
}  // namespace knactor::expr
