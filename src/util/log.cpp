#include "util/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace tracesel::util {

namespace {
std::atomic<LogLevel> g_threshold{LogLevel::kWarn};

const char* prefix(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "[debug] ";
    case LogLevel::kInfo: return "[info ] ";
    case LogLevel::kWarn: return "[warn ] ";
    case LogLevel::kError: return "[error] ";
  }
  return "[?    ] ";
}

/// Seconds since the first log line, so concurrent runs are comparable
/// without wall-clock parsing.
double elapsed_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// Dense per-thread id, assigned on first log from a thread.
std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}
std::mutex g_emit_mu;  // guards the emit stream

}  // namespace

LogLevel log_threshold() { return g_threshold.load(std::memory_order_relaxed); }

void set_log_threshold(LogLevel level) {
  g_threshold.store(level, std::memory_order_relaxed);
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "warn";
}

namespace detail {
void emit(LogLevel level, const std::string& text) {
  // Lines from parallel workers must never interleave mid-line: format the
  // whole record first, then write it under one mutex.
  char stamp[48];
  std::snprintf(stamp, sizeof stamp, "%10.6f t%02u ", elapsed_s(),
                thread_id());
  std::lock_guard<std::mutex> lk(g_emit_mu);
  std::clog << prefix(level) << stamp;
  std::clog << text << '\n';
}
}  // namespace detail

}  // namespace tracesel::util
