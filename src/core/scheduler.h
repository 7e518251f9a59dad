// The runtime-level owner of the shard configuration: how many key-space
// shards every hosted DE partitions into (Runtime::set_shards pushes it into
// each DE).
//
// Determinism: shards are a deterministic partition, not a unit of
// concurrency. Shard-local work runs on the calling thread in shard-index
// order and is merged by DE-wide commit seq, so for a fixed seed the
// observable state, traces, and metrics of an N-shard run are
// byte-identical to the 1-shard run (see docs/ARCHITECTURE.md).
#pragma once

#include <cstddef>
#include <cstdint>

namespace knactor::core {

struct SchedulerStats {
  std::size_t shards = 1;
  // Ignored: always 0 (there is no worker pool); kept only for perfbench.
  std::uint64_t barriers = 0;
  std::uint64_t inline_runs = 0;
  std::uint64_t epoch_tasks = 0;
};

class Scheduler {
 public:
  /// Key-space partition count pushed into hosted DEs. Clamped to >= 1.
  void set_shards(std::size_t shards) { shards_ = shards == 0 ? 1 : shards; }
  [[nodiscard]] std::size_t shards() const { return shards_; }

  [[nodiscard]] SchedulerStats stats() const { return {.shards = shards_}; }

 private:
  std::size_t shards_ = 1;
};

}  // namespace knactor::core
