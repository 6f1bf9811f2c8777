#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  ::malloc_trim(0);  // hand freed heap back first: a steadier baseline
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double LayerSamples::value(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : median(it->second);
}

const std::string* References::load(const std::string& key) {
  if (const auto it = loaded_.find(key); it != loaded_.end()) return &it->second;
  if (missing_.count(key)) return nullptr;
  std::ifstream in(dir_ + "/" + key + ".json", std::ios::binary);
  if (!in) {
    missing_[key] = true;
    return nullptr;
  }
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return &(loaded_[key] = bytes.str());
}

void References::preload(const std::vector<std::string>& keys) {
  for (const std::string& key : keys) load(key);
}

bool References::matches(const std::string& key, const std::string& actual) {
  const std::string* expected = load(key);
  return expected != nullptr && *expected == actual;
}

bool References::write(const std::string& key,
                       const std::string& actual) const {
  std::ofstream out(dir_ + "/" + key + ".json", std::ios::binary);
  out << actual;
  return static_cast<bool>(out);
}

std::string result_line(const Report& report) {
  std::ostringstream out;
  const bool correct = report.attempted > 0 && report.failed == 0;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.9g", m.value);
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},         {"wall_s", "s"},
      {"latency_ms_p50", "ms"}, {"latency_ms_p99", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"traced_wall_ms", "ms"},
      {"flow.parse.ms", "ms"},
      {"flow.interleave.ms", "ms"},
      {"flow.interleave.nodes", "count"},
      {"flow.interleave.edges", "count"},
      {"flow.interleave.product_states", "count"},
      {"flow.interleave.rss_mb", "MiB"},
      {"selection.gain_engine.ms", "ms"},
      {"selection.gain_engine.rss_mb", "MiB"},
      {"selection.select.ms", "ms"},
      {"selection.coverage.ms", "ms"},
      {"report.serialize.ms", "ms"},
      {"flow.interleave.concrete_ms", "ms"},
      {"flow.kernel.compile_ms", "ms"},
      {"selection.localize.ms", "ms"},
      {"soc.simulate.ms", "ms"},
      {"debug.root_cause.ms", "ms"},
      {"tracesel.store.lookups", "count"},
      {"tracesel.store.result_hit_ratio", "ratio"},
      {"tracesel.store.workload_hit_ratio", "ratio"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.run_ms_p50", "ms"},
      {"service.journal_bytes", "bytes"},
      {"service.cold_ms_p50", "ms"},
      {"service.warm_ms_p50", "ms"},
      {"dark_ms", "ms"},
      {"trace_overhead_frac", "ratio"},
      {"obs.counter_mismatches", "count"},
  };
  return kMetrics;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace perfbench
