// Per-layer attribution for the traced run (see traced.cpp).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The layers a step can be charged to, outermost first.
enum class Layer {
  kCast,
  kSync,
  kObjectDe,
  kLogDe,
  kPersist,
  kSubscription,
  kPool,
  kGenerator,
  kNone,  // no counter moved and no generator callback ran
};
const char* layer_name(Layer layer);

/// Observes a traced round: reads every layer's public counters after each
/// clock step and charges the step's wall time to the outermost layer whose
/// counter moved. Also records the benchmark's own spans (one per step,
/// issue and completion, tagged with the request id) in memory.
class Attribution : public StepObserver {
 public:
  explicit Attribution(Workload& workload);

  void on_start() override;
  void on_step(double wall_ns, bool generator_ran,
               std::uint64_t request_id) override;
  void on_request(bool issued, std::uint64_t request_id,
                  double wall_ns) override;
  void on_quarter(int quarter) override;

  /// Appends the per-layer metrics of the finished round.
  void add_metrics(const RoundResult& round, Metrics* out) const;
  /// Writes the recorded spans as JSON lines.
  bool write_spans(const std::string& path) const;

  static Layer classify(const Counters& before, const Counters& after,
                        bool generator_ran);

 private:
  enum class SpanKind { kStep, kIssue, kComplete };
  struct BenchSpan {
    SpanKind kind;
    Layer layer;
    std::uint64_t request_id;
    double wall_ns;
  };

  [[nodiscard]] double busy_ms(Layer layer) const;

  Workload& workload_;
  Counters base_;
  Counters prev_;
  std::array<double, static_cast<std::size_t>(Layer::kNone) + 1> busy_ns_{};
  std::uint64_t pass_objects_ = 0;
  std::uint64_t pass_instances_ = 0;
  std::vector<Probes> quarters_;
  std::vector<BenchSpan> spans_;
};

}  // namespace perfbench
