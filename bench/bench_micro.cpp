// Microbenchmarks (wall-clock, google-benchmark): the CPU cost of the
// framework's hot paths — value manipulation, JSON/YAML/expression
// parsing, expression evaluation, DXG passes, wire encode/decode, store
// operations, and log pipelines. These complement the virtual-time benches
// (bench_table2, bench_ablation) that reproduce the paper's latency
// shapes.
#include <benchmark/benchmark.h>

#include <atomic>

#include "apps/retail_specs.h"
#include "de/kernel.h"
#include "common/json.h"
#include "common/value.h"
#include "core/cast.h"
#include "core/dxg.h"
#include "core/marketplace.h"
#include "de/query.h"
#include "de/log.h"
#include "de/object.h"
#include "expr/eval.h"
#include "expr/parser.h"
#include "net/wire.h"
#include "yaml/yaml.h"

namespace {

using knactor::common::Value;

Value sample_order(int items) {
  Value::Array lines;
  for (int i = 0; i < items; ++i) {
    Value line = Value::object();
    line.set("name", Value("item-" + std::to_string(i)));
    line.set("qty", Value(i + 1));
    lines.push_back(std::move(line));
  }
  Value order = Value::object();
  order.set("items", Value(std::move(lines)));
  order.set("address", Value("1 Market St, San Francisco, CA"));
  order.set("cost", Value(120.0));
  order.set("currency", Value("USD"));
  return order;
}

void BM_ValueDeepCopy(benchmark::State& state) {
  Value order = sample_order(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Value copy = order;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_ValueDeepCopy)->Arg(2)->Arg(16)->Arg(128);

void BM_ValueSharedHandle(benchmark::State& state) {
  auto order = std::make_shared<const Value>(
      sample_order(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    knactor::common::SharedValue handle = order;
    benchmark::DoNotOptimize(handle);
  }
}
BENCHMARK(BM_ValueSharedHandle)->Arg(2)->Arg(16)->Arg(128);

void BM_ValuePathAccess(benchmark::State& state) {
  Value order = sample_order(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(order.at_path("items.3.name"));
  }
}
BENCHMARK(BM_ValuePathAccess);

void BM_JsonSerialize(benchmark::State& state) {
  Value order = sample_order(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(knactor::common::to_json(order));
  }
}
BENCHMARK(BM_JsonSerialize)->Arg(2)->Arg(64);

void BM_JsonParse(benchmark::State& state) {
  std::string text =
      knactor::common::to_json(sample_order(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto v = knactor::common::parse_json(text);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_JsonParse)->Arg(2)->Arg(64);

void BM_YamlParseFig6(benchmark::State& state) {
  for (auto _ : state) {
    auto v = knactor::yaml::parse(knactor::apps::kRetailDxg);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_YamlParseFig6);

void BM_ExprParse(benchmark::State& state) {
  const char* text =
      "currency_convert(S.quote.price, S.quote.currency, this.currency)";
  for (auto _ : state) {
    auto node = knactor::expr::parse(text);
    benchmark::DoNotOptimize(node);
  }
}
BENCHMARK(BM_ExprParse);

void BM_ExprEvalCompiled(benchmark::State& state) {
  using namespace knactor::expr;
  auto node = parse("\"air\" if C.order.cost > 1000 else \"ground\"").take();
  MapEnv env;
  env.bind("C", Value::object(
                    {{"order", Value::object({{"cost", 1500.0}})}}));
  const auto& fns = FunctionRegistry::builtins();
  for (auto _ : state) {
    auto v = evaluate(*node, env, fns);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ExprEvalCompiled);

void BM_ExprListComprehension(benchmark::State& state) {
  using namespace knactor::expr;
  auto node = parse("[item.name for item in C.order.items]").take();
  MapEnv env;
  env.bind("C", Value::object(
                    {{"order", sample_order(static_cast<int>(state.range(0)))}}));
  const auto& fns = FunctionRegistry::builtins();
  for (auto _ : state) {
    auto v = evaluate(*node, env, fns);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ExprListComprehension)->Arg(4)->Arg(64);

void BM_DxgParseAndAnalyze(benchmark::State& state) {
  for (auto _ : state) {
    auto dxg = knactor::core::Dxg::parse(knactor::apps::kRetailDxgFull);
    auto issues = knactor::core::analyze(dxg.value(), nullptr);
    benchmark::DoNotOptimize(issues);
  }
}
BENCHMARK(BM_DxgParseAndAnalyze);

void BM_CastPass(benchmark::State& state) {
  using namespace knactor;
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& c = de.create_store("knactor-checkout");
  de::ObjectStore& s = de.create_store("knactor-shipping");
  de::ObjectStore& p = de.create_store("knactor-payment");
  (void)c.put_sync("b", "order", sample_order(4));
  auto dxg = core::Dxg::parse(apps::kRetailDxg);
  core::CastIntegrator cast("bench", de, dxg.take(),
                            {{"C", &c}, {"S", &s}, {"P", &p}});
  for (auto _ : state) {
    auto written = cast.run_pass_sync();
    benchmark::DoNotOptimize(written);
  }
}
BENCHMARK(BM_CastPass);

void BM_WireEncodeDecode(benchmark::State& state) {
  using namespace knactor::net;
  SchemaPool pool;
  MessageDescriptor item;
  item.full_name = "b.Item";
  item.fields = {{1, "name", FieldType::kString},
                 {2, "qty", FieldType::kInt}};
  (void)pool.add(item);
  MessageDescriptor order;
  order.full_name = "b.Order";
  order.fields = {{1, "items", FieldType::kMessage, true, "b.Item"},
                  {2, "address", FieldType::kString},
                  {3, "cost", FieldType::kDouble}};
  (void)pool.add(order);
  Value v = sample_order(static_cast<int>(state.range(0)));
  v.as_object().erase("currency");
  const MessageDescriptor* desc = pool.find("b.Order");
  for (auto _ : state) {
    auto bytes = encode(pool, *desc, v);
    auto decoded = decode(pool, *desc, bytes.value());
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_WireEncodeDecode)->Arg(2)->Arg(32);

void BM_ObjectStorePut(benchmark::State& state) {
  using namespace knactor;
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("s");
  Value v = sample_order(4);
  int i = 0;
  for (auto _ : state) {
    auto version = store.put_sync("b", "k" + std::to_string(i++ % 64), v);
    benchmark::DoNotOptimize(version);
  }
}
BENCHMARK(BM_ObjectStorePut);

void BM_ObjectStoreWatchDispatch(benchmark::State& state) {
  using namespace knactor;
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("s");
  std::size_t events = 0;
  for (int w = 0; w < state.range(0); ++w) {
    (void)store.subscribe("b", {},
                          [&events](const de::WatchEvent&) { ++events; });
  }
  Value v = sample_order(2);
  for (auto _ : state) {
    (void)store.put_sync("b", "k", v);
    clock.run_all();
  }
  benchmark::DoNotOptimize(events);
}
BENCHMARK(BM_ObjectStoreWatchDispatch)->Arg(1)->Arg(16);

void BM_LogPipeline(benchmark::State& state) {
  using namespace knactor;
  std::vector<Value> records;
  for (int i = 0; i < state.range(0); ++i) {
    Value v = Value::object();
    v.set("device", Value(i % 2 == 0 ? "lamp" : "heater"));
    v.set("kwh", Value(0.01 * i));
    records.push_back(std::move(v));
  }
  de::LogQuery q;
  q.push_back(de::LogOp::filter("kwh > 0.5").value());
  q.push_back(de::LogOp::rename({{"kwh", "energy"}}));
  q.push_back(de::LogOp::aggregate({"device"}, {{"total", {"sum", "energy"}}}));
  for (auto _ : state) {
    auto out = de::run_pipeline(q, records);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogPipeline)->Arg(100)->Arg(10000);

void BM_UdfInvocation(benchmark::State& state) {
  using namespace knactor;
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("s");
  (void)store.put_sync("b", "k", sample_order(2));
  (void)de.register_udf(
      "b", "touch",
      [](de::UdfContext& ctx, const Value&) -> knactor::common::Result<Value> {
        KN_ASSIGN_OR_RETURN(de::StateObject obj, ctx.get("s", "k"));
        return Value(static_cast<std::int64_t>(obj.version));
      });
  for (auto _ : state) {
    auto r = de.call_udf_sync("b", "touch", Value::object({}));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_UdfInvocation);

void BM_QueryParse(benchmark::State& state) {
  const char* text =
      "where kwh > 0.5 | rename energy=kwh | put e2 := energy * 2 | "
      "sort e2 desc | head 10 | summarize total=sum(e2) by device";
  for (auto _ : state) {
    auto q = knactor::de::parse_query(text);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_QueryParse);

void BM_Transact(benchmark::State& state) {
  using namespace knactor;
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  for (int i = 0; i < 4; ++i) {
    de.create_store("s" + std::to_string(i));
  }
  Value v = sample_order(2);
  for (auto _ : state) {
    std::vector<de::ObjectDe::TxnOp> ops;
    for (int i = 0; i < 4; ++i) {
      ops.push_back({"s" + std::to_string(i), "k", v, true, std::nullopt});
    }
    auto r = de.transact_sync("b", std::move(ops));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Transact);

void BM_OptimisticUpdate(benchmark::State& state) {
  using namespace knactor;
  sim::VirtualClock clock;
  de::ObjectDe de(clock, de::ObjectDeProfile::instant());
  de::ObjectStore& store = de.create_store("s");
  (void)store.put_sync("b", "k", Value::object({{"n", 0}}));
  for (auto _ : state) {
    auto r = store.update_sync("b", "k", [](const Value& current) {
      Value next = current;
      next.set("n", Value(next.get("n")->as_int() + 1));
      return next;
    });
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_OptimisticUpdate);

// Commit-seq allocation: the serial path bumps one DE-wide counter per
// commit (a shared atomic under a real multi-core kernel); the epoch
// pipeline reserves a whole block once per epoch and stamps ops in op
// order from the base. Arg = epoch size; per-op cost of the
// reserved variant should amortize toward zero as the epoch grows.
void BM_CommitSeqGlobalCounter(benchmark::State& state) {
  const std::size_t epoch = static_cast<std::size_t>(state.range(0));
  std::atomic<std::uint64_t> commit_seq{0};
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < epoch; ++i) {
      sink ^= commit_seq.fetch_add(1, std::memory_order_seq_cst);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * epoch);
}
BENCHMARK(BM_CommitSeqGlobalCounter)->Arg(1)->Arg(64)->Arg(512);

void BM_CommitSeqReserved(benchmark::State& state) {
  const std::size_t epoch = static_cast<std::size_t>(state.range(0));
  std::atomic<std::uint64_t> commit_seq{0};
  std::uint64_t sink = 0;
  for (auto _ : state) {
    // One contended bump per epoch; op i then stamps base + i with plain
    // arithmetic (Kernel::reserve_commit_seqs).
    const std::uint64_t base = commit_seq.fetch_add(
        static_cast<std::uint64_t>(epoch), std::memory_order_seq_cst);
    for (std::size_t i = 0; i < epoch; ++i) sink ^= base + i;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * epoch);
}
BENCHMARK(BM_CommitSeqReserved)->Arg(1)->Arg(64)->Arg(512);

// The same comparison through the real kernel APIs (virtual-clock kernel,
// single-threaded): next_commit_seq() per op vs one reserve_commit_seqs(n)
// per epoch.
void BM_CommitSeqKernelReserve(benchmark::State& state) {
  using namespace knactor;
  const std::uint64_t epoch = static_cast<std::uint64_t>(state.range(0));
  sim::VirtualClock clock;
  de::Kernel kernel(clock, 42);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const std::uint64_t base = kernel.reserve_commit_seqs(epoch);
    for (std::uint64_t i = 0; i < epoch; ++i) sink ^= base + i;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * epoch);
}
BENCHMARK(BM_CommitSeqKernelReserve)->Arg(64)->Arg(512);

void BM_MarketplaceShopping(benchmark::State& state) {
  using namespace knactor;
  core::Marketplace market;
  for (int i = 0; i < state.range(0); ++i) {
    core::Package p;
    p.name = "kn-" + std::to_string(i);
    p.version = "1.0";
    p.kind = core::Package::Kind::kKnactor;
    p.schema_yamls = {"schema: T/v1/S" + std::to_string(i) + "\nx: int\n"};
    (void)market.publish(std::move(p));
  }
  core::Package integ;
  integ.name = "integ";
  integ.version = "1.0";
  integ.kind = core::Package::Kind::kIntegrator;
  integ.dxg_yaml = "Input:\n  A: T/v1/S0\nDXG:\n  A:\n    x: 1 + 1\n";
  (void)market.publish(std::move(integ));
  for (auto _ : state) {
    auto hits = market.integrators_for("T/v1/S0");
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_MarketplaceShopping)->Arg(10)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
