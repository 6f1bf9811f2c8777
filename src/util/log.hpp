#pragma once
// Minimal leveled logger. The simulator and debug engine log message-level
// events at kDebug; benches run at kWarn so tables stay clean.

#include <iostream>
#include <sstream>
#include <string>

namespace tracesel::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Process-global log threshold; messages below it are discarded.
LogLevel log_threshold();
void set_log_threshold(LogLevel level);

/// CLI flag spelling of a level ("debug", "info", "warn", "error").
const char* log_level_name(LogLevel level);

namespace detail {
void emit(LogLevel level, const std::string& text);
}

/// Stream-style one-shot logger: Log(LogLevel::kInfo) << "x=" << x;
/// The line is emitted (with a level prefix) when the temporary dies.
class Log {
 public:
  explicit Log(LogLevel level) : level_(level) {}
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;
  ~Log() {
    if (level_ >= log_threshold()) detail::emit(level_, buffer_.str());
  }

  template <typename T>
  Log& operator<<(const T& value) {
    if (level_ >= log_threshold()) buffer_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream buffer_;
};

}  // namespace tracesel::util
