#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace knactor::common {

namespace {

// Atomic: a host program's threads may read the level through the KN_*
// macros while another thread reconfigures it. The sink stays mutex-guarded
// (write() already serializes output through g_mutex).
std::atomic<LogLevel> g_level{LogLevel::kWarn};
Log::Sink g_sink;
std::mutex g_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel Log::level() { return g_level.load(std::memory_order_relaxed); }

void Log::set_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

void Log::set_sink(Sink sink) {
  std::lock_guard lock(g_mutex);
  g_sink = std::move(sink);
}

void Log::write(LogLevel level, const std::string& message) {
  std::lock_guard lock(g_mutex);
  if (g_sink) {
    g_sink(level, message);
    return;
  }
  std::fprintf(stderr, "[%s] %s\n", level_name(level), message.c_str());
}

}  // namespace knactor::common
