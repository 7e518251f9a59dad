// Scheduler stats shim: kept only so perfbench's `add_scheduler` compiles.
// There is no worker pool, so every counter is always 0.
#pragma once

#include <cstdint>

namespace knactor::core {

struct SchedulerStats {
  std::uint64_t barriers = 0;
  std::uint64_t inline_runs = 0;
  std::uint64_t epoch_tasks = 0;
};

class Scheduler {
 public:
  [[nodiscard]] SchedulerStats stats() const { return {}; }
};

}  // namespace knactor::core
