#pragma once
// Shared plumbing of the benchmark: clocks, order statistics, memory
// probes, the seeded input generator, per-pass layer samples, the
// reference outputs and the one-line JSON result.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Percentile q in [0, 1] with linear interpolation between the closest
/// ranks (rank q * (n - 1)); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

double rss_mb();       ///< current resident set of this process, MiB
/// High-water resident set of this process since the last reset, MiB.
double peak_rss_mb();
/// Returns freed heap to the system and restarts the high-water mark at
/// the current resident set (Linux clear_refs), so each pass reports its
/// own peak.
void reset_peak_rss();

/// splitmix64: the workload input generator. The same seed always yields
/// the same stream, on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Accumulates one value per pass for each per-layer metric; the reported
/// value is the median over passes.
class LayerSamples {
 public:
  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  /// Median of the samples of `name`; 0 when the layer never ran.
  double value(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// The committed reference outputs, one file per request key under a
/// directory (<dir>/<key>.json). A request whose output differs from its
/// reference, or has none, counts as failed.
class References {
 public:
  explicit References(std::string dir) : dir_(std::move(dir)) {}
  /// Reads the references of `keys` up front, outside the timed region.
  void preload(const std::vector<std::string>& keys);
  /// True iff `actual` is byte-identical to the reference of `key`.
  bool matches(const std::string& key, const std::string& actual);
  /// Writes `actual` as the reference of `key`.
  bool write(const std::string& key, const std::string& actual) const;

 private:
  const std::string* load(const std::string& key);

  std::string dir_;
  std::map<std::string, std::string> loaded_;
  std::map<std::string, bool> missing_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark run prints as its last line.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string result_line(const Report& report);

/// The metric catalog, in BENCHMARK.json order: name and unit.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// True when `name` matches [A-Za-z0-9_.-]+.
bool valid_metric_name(std::string_view name);

}  // namespace perfbench
