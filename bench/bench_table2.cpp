// Reproduces Table 2: latency of completing a shipment request in the
// online retail app, broken down by stage, for RPC and three Knactor
// configurations (K-apiserver, K-redis, K-redis-udf).
//
//   Setup        C-I     I    I-S      S   Prop.   Total   (ms)
//
// Stage definitions (matching §4):
//   C-I : Checkout's state write committed and read by the integrator
//   I   : integrator processing (or the DE-side function in -udf)
//   I-S : integrator's write into Shipping's data store
//   S   : shipment processing (external provider call + pickup/post)
//   Prop: C-I + I + I-S
//
// Absolute values come from calibrated latency models on a virtual clock
// (see de/profile.h and DESIGN.md); the *shape* — who wins, by what
// factor, where the bottleneck is — is the reproduction target.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/retail_rpc.h"
#include "core/cast.h"
#include "core/runtime.h"
#include "core/trace.h"
#include "de/object.h"
#include "de/profile.h"

namespace {

using knactor::common::Value;
using knactor::sim::SimTime;
using knactor::sim::to_ms;

struct StageSample {
  double ci = 0;
  double i = 0;
  double is = 0;
  double s = 0;
  [[nodiscard]] double prop() const { return ci + i + is; }
  [[nodiscard]] double total() const { return prop() + s; }
};

struct StageStats {
  std::vector<StageSample> samples;

  [[nodiscard]] StageSample mean() const {
    StageSample m;
    for (const auto& s : samples) {
      m.ci += s.ci;
      m.i += s.i;
      m.is += s.is;
      m.s += s.s;
    }
    auto n = static_cast<double>(samples.size());
    if (n > 0) {
      m.ci /= n;
      m.i /= n;
      m.is /= n;
      m.s /= n;
    }
    return m;
  }

  /// Standard deviation of the Total column.
  [[nodiscard]] double total_stddev() const {
    if (samples.size() < 2) return 0;
    double mean_total = 0;
    for (const auto& s : samples) mean_total += s.total();
    mean_total /= static_cast<double>(samples.size());
    double sq = 0;
    for (const auto& s : samples) {
      double d = s.total() - mean_total;
      sq += d * d;
    }
    return std::sqrt(sq / static_cast<double>(samples.size() - 1));
  }
};

constexpr const char* kBenchDxg = R"(Input:
  C: OnlineRetail/v1/Checkout/knactor-checkout
  S: OnlineRetail/v1/Shipping/knactor-shipping
DXG:
  S:
    items: '[item.name for item in C.order.items]'
    addr: C.order.address
    method: >
      "air" if C.order.cost > 1000 else "ground"
)";

Value bench_order() {
  Value::Array items;
  Value line = Value::object();
  line.set("name", Value("keyboard"));
  line.set("qty", Value(1));
  items.push_back(std::move(line));
  Value order = Value::object();
  order.set("items", Value(std::move(items)));
  order.set("address", Value("1 Market St, San Francisco, CA"));
  order.set("cost", Value(120.0));
  order.set("currency", Value("USD"));
  return order;
}

/// One measured Checkout -> integrator -> Shipping exchange on a fresh
/// deployment (the paper benchmarks this single hop of the Cast).
StageSample run_knactor_exchange(const knactor::de::ObjectDeProfile& profile,
                                 double integrator_compute_ms, bool pushdown,
                                 std::uint64_t seed) {
  using namespace knactor;

  sim::VirtualClock clock;
  de::ObjectDe de(clock, profile, seed);
  core::Tracer tracer(clock);
  de::ObjectStore& checkout = de.create_store("knactor-checkout");
  de::ObjectStore& shipping = de.create_store("knactor-shipping");

  auto dxg = core::Dxg::parse(kBenchDxg);
  if (!dxg.ok()) {
    std::fprintf(stderr, "dxg parse failed: %s\n",
                 dxg.error().to_string().c_str());
    return {};
  }
  core::CastIntegrator::Options options;
  options.compute = sim::LatencyModel::constant_ms(integrator_compute_ms);
  core::CastIntegrator cast("bench", de, dxg.take(),
                            {{"C", &checkout}, {"S", &shipping}}, options,
                            nullptr, &tracer);
  if (pushdown) {
    auto status = cast.enable_pushdown();
    if (!status.ok()) {
      std::fprintf(stderr, "pushdown failed: %s\n",
                   status.error().to_string().c_str());
      return {};
    }
  }
  if (auto status = cast.start(); !status.ok()) {
    std::fprintf(stderr, "cast start failed: %s\n",
                 status.error().to_string().c_str());
    return {};
  }
  clock.run_all();  // initial pass settles (writes nothing: no order yet)
  tracer.clear();

  // Shipping reconciler stand-in: quote/post like apps::ShippingReconciler
  // but with the fixed 446 ms external call the paper observes.
  sim::Rng ship_rng(seed * 31 + 7);
  sim::LatencyModel processing = sim::LatencyModel::normal_ms(446.0, 2.5);
  bool shipping_in_flight = false;
  auto shipper = shipping.subscribe(
      "knactor:shipping", {}, [&](const de::WatchEvent& event) {
        if (event.type == de::WatchEventType::kDeleted || !event.object.data) {
          return;
        }
        const Value* items = event.object.data->get("items");
        const Value* addr = event.object.data->get("addr");
        const Value* method = event.object.data->get("method");
        const Value* id = event.object.data->get("id");
        if (items == nullptr || addr == nullptr || method == nullptr) return;
        if (id != nullptr || shipping_in_flight) return;
        shipping_in_flight = true;
        clock.schedule_after(processing.sample(ship_rng), [&]() {
          Value patch = Value::object();
          patch.set("id", Value("track-1"));
          shipping.patch("knactor:shipping", "state", std::move(patch),
                         [](knactor::common::Result<std::uint64_t>) {});
        });
      });
  if (!shipper.ok()) {
    std::fprintf(stderr, "shipping watch failed: %s\n",
                 shipper.error().to_string().c_str());
    return {};
  }

  SimTime t0 = clock.now();
  checkout.put("knactor:checkout", "order", bench_order(),
               [](knactor::common::Result<std::uint64_t>) {});
  // Run until the tracking id lands.
  while (clock.step()) {
    const de::StateObject* state = shipping.peek("state");
    if (state != nullptr && state->data && state->data->get("id") != nullptr &&
        clock.idle()) {
      break;
    }
  }

  const de::StateObject* state = shipping.peek("state");
  if (state == nullptr || !state->data || state->data->get("id") == nullptr) {
    std::fprintf(stderr, "exchange did not complete\n");
    return {};
  }
  SimTime t_done = state->updated_at;

  // The first pass with a write span is the measured exchange.
  auto snapshots = tracer.by_name("cast.snapshot.bench");
  auto computes = tracer.by_name("cast.compute.bench");
  auto writes = tracer.by_name("cast.write.bench");
  if (snapshots.empty() || computes.empty() || writes.empty()) {
    std::fprintf(stderr, "missing trace spans\n");
    return {};
  }
  const auto& write = writes.front();
  // Pick the snapshot/compute spans of the same pass (same parent).
  const knactor::core::Span* snapshot = &snapshots.front();
  const knactor::core::Span* compute = &computes.front();
  for (const auto& span : snapshots) {
    if (span.parent == write.parent) snapshot = &span;
  }
  for (const auto& span : computes) {
    if (span.parent == write.parent) compute = &span;
  }

  StageSample sample;
  sample.ci = to_ms(snapshot->end - t0);
  sample.i = to_ms(compute->duration());
  sample.is = to_ms(write.duration());
  sample.s = to_ms(t_done - write.end);
  return sample;
}

StageStats run_knactor_setup(const knactor::de::ObjectDeProfile& profile,
                             double compute_ms, bool pushdown, int runs) {
  StageStats stats;
  for (int i = 0; i < runs; ++i) {
    stats.samples.push_back(run_knactor_exchange(
        profile, compute_ms, pushdown, 1000 + static_cast<std::uint64_t>(i)));
  }
  return stats;
}

StageStats run_rpc_setup(int runs) {
  using namespace knactor;
  StageStats stats;
  for (int i = 0; i < runs; ++i) {
    sim::VirtualClock clock;
    apps::RetailRpcApp app(clock);
    auto tracking = app.place_order_sync(120.0, {"keyboard"});
    if (!tracking.ok()) {
      std::fprintf(stderr, "rpc order failed: %s\n",
                   tracking.error().to_string().c_str());
      continue;
    }
    StageSample sample;
    sample.s = to_ms(app.last_timings().processing());
    // RPC has no data-store stages; the request/response propagation maps
    // onto the Prop column.
    sample.ci = to_ms(app.last_timings().propagation());
    stats.samples.push_back(sample);
  }
  return stats;
}

void print_row(const char* name, const StageStats& stats, bool knactor_row) {
  StageSample mean = stats.mean();
  if (knactor_row) {
    std::printf("%-14s %7.1f %6.2f %7.1f %8.0f %8.1f %9.1f %8.1f\n", name,
                mean.ci, mean.i, mean.is, mean.s, mean.prop(), mean.total(),
                stats.total_stddev());
  } else {
    std::printf("%-14s %7s %6s %7s %8.0f %8.1f %9.1f %8.1f\n", name, "-", "-",
                "-", mean.s, mean.prop(), mean.total(),
                stats.total_stddev());
  }
}

}  // namespace

int main() {
  const int kRuns = 10;
  std::printf(
      "Table 2: Latency in the online retail app completing a shipment\n"
      "request, with breakdown by stage (means over %d runs, ms).\n"
      "C-I: Checkout and integrator. I: Integrator. I-S: Integrator and\n"
      "Shipping. S: Shipment processing. Prop = C-I + I + I-S.\n\n",
      kRuns);
  std::printf("%-14s %7s %6s %7s %8s %8s %9s %8s\n", "Setup", "C-I", "I",
              "I-S", "S", "Prop.", "Total", "+/-sd");

  StageStats rpc = run_rpc_setup(kRuns);
  print_row("RPC", rpc, /*knactor_row=*/false);

  StageStats apiserver = run_knactor_setup(
      knactor::de::ObjectDeProfile::apiserver(), 0.01, false, kRuns);
  print_row("K-apiserver", apiserver, true);

  StageStats redis = run_knactor_setup(knactor::de::ObjectDeProfile::redis(),
                                       0.06, false, kRuns);
  print_row("K-redis", redis, true);

  StageStats redis_udf = run_knactor_setup(
      knactor::de::ObjectDeProfile::redis(), 0.7, true, kRuns);
  print_row("K-redis-udf", redis_udf, true);

  std::printf(
      "\nPaper (Table 2):\n"
      "RPC            -      -       -      446      1.8     447.8\n"
      "K-apiserver   20.6   0.01   12.5     453     33.1     486.1\n"
      "K-redis        3.2   0.06    2.7     444      5.8     449.8\n"
      "K-redis-udf    2.1   0.7     0.1     450      2.9     452.9\n");
  return 0;
}
