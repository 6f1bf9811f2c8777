#pragma once
// tracesel::obs — the runtime observability layer (DESIGN.md §10): named
// metrics plus hierarchical span timers over the selection and debug
// pipeline, exported as a flat metrics JSON and as Chrome trace-event JSON
// (loadable in chrome://tracing and Perfetto).
//
// Design constraints, in order:
//
//  1. Zero-cost-when-off. The whole layer sits behind one process-global
//     obs::enabled() flag (default off). Every instrumentation macro reads
//     it first, so a disabled site costs one relaxed atomic load and one
//     predictable branch — the bench hard gates (bench_interleave,
//     bench_kernels) run with the layer off and must stay inside their
//     thresholds.
//
//  2. Race-free across threads (the daemon's connection and runner
//     threads). Counters and histograms are sharded per thread: each
//     thread owns a fixed-capacity block of relaxed atomics it alone
//     writes, and readers merge the shards at snapshot time. Shards of exited threads are folded into a retired
//     accumulator, so totals never lose increments. Gauges (rare writes)
//     are process-global atomics.
//
//  3. Stable handles. Metric names map to small dense ids on first use;
//     ids stay valid for the process lifetime (obs::reset() clears values,
//     never the name table), so call sites may cache them in function-local
//     statics — which is exactly what the OBS_* macros do.
//
// Span names must be string literals (or otherwise have static storage
// duration): trace events store the pointer, not a copy. Metric names are
// copied at registration.
//
// Naming scheme (docs/observability.md): dot-separated
// <subsystem>.<noun>[.<detail>] — e.g. "interleave.interner.probes",
// "selection.gain.evals", "svc.queue.peak_depth". Span latencies are automatically
// mirrored into a histogram named "span.<span name>".
//
// Distributed tracing (DESIGN.md §15): every span carries a process-unique
// span id and the id of its parent (the innermost open span on the same
// thread, or the process-global TraceContext parent for thread roots). A
// `tracesel submit` client stamps its TraceContext into the job request;
// the daemon (traceseld) installs it, so the job's root span parents
// under the client's submit span. With the result the daemon ships a
// ProcessTelemetry (metrics snapshot + trace events + its steady-clock
// epoch) back;
// adopt_remote_telemetry() rebases the events onto the local epoch
// (CLOCK_MONOTONIC is machine-wide, so the correction is exact) and the
// export paths then emit one Chrome trace lane per process and one
// aggregated metrics JSON.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/result.hpp"

namespace tracesel::obs {

// Fixed shard capacities: per-thread blocks must never reallocate (readers
// walk them concurrently), so registration past a cap throws.
inline constexpr std::size_t kMaxCounters = 256;
inline constexpr std::size_t kMaxGauges = 64;
inline constexpr std::size_t kMaxHistograms = 96;
/// Log-scale buckets: value v lands in bucket bit_width(v) (0 for v == 0),
/// i.e. bucket b >= 1 holds values in [2^(b-1), 2^b).
inline constexpr std::size_t kHistogramBuckets = 65;

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The single switch the instrumentation macros branch on.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Clears every metric value, trace event and adopted remote telemetry and
/// restarts the trace epoch. The name -> id table and the trace context are
/// preserved, so cached metric ids stay valid.
void reset();

/// Cross-process trace identity. `trace_id` names the whole distributed
/// trace; `parent_span_id` is the span a thread-root span parents under
/// (0 = no parent). Stamped into JobRequests by daemon clients; installed
/// by the daemon before it opens the job's root span.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
};

void set_trace_context(TraceContext ctx);
TraceContext trace_context();
/// Installs a freshly generated trace_id when none is set yet; returns the
/// (now non-zero) context. The parent_span_id is left untouched.
TraceContext ensure_trace_context();

/// Span id of the calling thread's innermost open span (0 when none, or
/// when the layer is off). This is what a submit client stamps into its
/// request as the daemon's parent_span_id.
std::uint64_t current_span_id();

/// Human-readable process lane label for the Chrome trace ("tracesel",
/// "traceseld"). Spaces are normalized to '_'.
void set_process_label(std::string_view label);
std::string process_label();

struct CounterId { std::uint32_t index = 0; };
struct GaugeId { std::uint32_t index = 0; };
struct HistogramId { std::uint32_t index = 0; };

/// Bucket index of a histogram value (exposed for tests).
std::uint32_t histogram_bucket(std::uint64_t value);

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  ///< kHistogramBuckets entries
};

/// A merged, point-in-time view of every registered metric.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;
  /// Per-thread counter split (live shards plus one "retired" pseudo
  /// shard), for shard-balance analysis: {tid, {name, value}...}.
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, std::uint64_t>>>>
      per_thread_counters;
};

/// One completed span, timestamped on the steady clock relative to the
/// trace epoch (process start, or the last reset()).
struct TraceEvent {
  const char* name = nullptr;  ///< static storage duration required
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;    ///< dense per-thread id, assigned on first use
  std::uint32_t depth = 0;  ///< nesting depth within its thread
  std::uint64_t span_id = 0;    ///< process-unique id of this span
  std::uint64_t parent_id = 0;  ///< enclosing span / TraceContext parent / 0
};

class Span;
std::vector<TraceEvent> trace_events();

/// Window over the calling thread's own event buffer, for per-job span
/// capture in the daemon: mark before the job, collect the delta after.
/// A reset() between the two calls yields an empty (never stale) window.
std::size_t thread_events_mark();
std::vector<TraceEvent> thread_events_since(std::size_t mark);

class MetricsRegistry {
 public:
  /// Registers (or finds) a metric; throws std::length_error past the
  /// capacity caps.
  CounterId counter(std::string_view name);
  GaugeId gauge(std::string_view name);
  HistogramId histogram(std::string_view name);

  void add(CounterId id, std::uint64_t delta = 1);
  void set(GaugeId id, std::int64_t value);
  void set_max(GaugeId id, std::int64_t value);  ///< monotone high-water
  void observe(HistogramId id, std::uint64_t value);

  MetricsSnapshot snapshot() const;
  /// The calling thread's own counter shard, named (zero entries elided).
  /// This is the per-job metric scope of the traceseld daemon: a job runs
  /// on one runner thread, so before/after deltas of this view attribute
  /// counters to that job exactly.
  std::vector<std::pair<std::string, std::uint64_t>> thread_counter_values()
      const;
  /// Merged value lookups by name (0 / nullopt when unregistered).
  std::uint64_t counter_value(std::string_view name) const;
  std::int64_t gauge_value(std::string_view name) const;
  std::optional<HistogramSnapshot> histogram_snapshot(
      std::string_view name) const;

 private:
  friend MetricsRegistry& registry();
  MetricsRegistry() = default;
};

/// The process-global registry. The class is a stateless facade; the
/// backing store lives in obs.cpp and is intentionally leaked, so
/// thread-exit merges stay safe during static destruction.
MetricsRegistry& registry();

/// RAII span timer. Construction snapshots steady_clock and bumps the
/// thread's nesting depth; destruction records a TraceEvent into the
/// thread's shard and mirrors the duration into histogram "span.<name>".
/// No-op (one branch) when the layer is disabled at construction.
class Span {
 public:
  explicit Span(const char* name) {
    if (enabled()) begin(name, 0);
  }
  /// Explicit-parent form for work that executes on behalf of a remote
  /// span when the process-global TraceContext cannot carry it (e.g. a
  /// daemon runner thread serving concurrent jobs with distinct parents).
  Span(const char* name, std::uint64_t parent_span_id) {
    if (enabled()) begin(name, parent_span_id);
  }
  ~Span() {
    if (name_ != nullptr) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id (0 when the layer was off at construction).
  std::uint64_t id() const { return span_id_; }

 private:
  void begin(const char* name, std::uint64_t parent_override);
  void end();

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
};

// --- cross-process telemetry ------------------------------------------

/// A TraceEvent with the name materialized, so it survives the wire (the
/// in-process form stores a string-literal pointer).
struct WireTraceEvent {
  std::string name;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

/// One process's contribution to a distributed trace: its metrics snapshot
/// plus its trace events, timestamped against its own steady-clock epoch.
/// The per-thread counter split does not travel (it is a process-local
/// shard-balance diagnostic).
struct ProcessTelemetry {
  std::string label = "tracesel";
  std::uint64_t pid = 0;
  std::int64_t epoch_ns = 0;  ///< source process's trace epoch (steady clock)
  MetricsSnapshot metrics;
  std::vector<WireTraceEvent> events;
};

inline constexpr std::uint32_t kTelemetryVersion = 1;

/// This process's trace epoch (steady-clock ns at process start or the
/// last reset()) — the timestamp base of every TraceEvent.
std::int64_t trace_epoch_ns();

/// Snapshot of this process's telemetry (label, pid, epoch, metrics,
/// events) — what the daemon ships back with a job's result.
ProcessTelemetry capture_telemetry();

/// Versioned, checksummed text encoding ("tracesel-telemetry" envelope).
/// parse rejects version skew, checksum mismatches and malformed bodies
/// with typed errors — a receiver must reject, never crash.
std::string serialize_telemetry(const ProcessTelemetry& telemetry);
util::Result<ProcessTelemetry> parse_telemetry(std::string_view wire);

/// Exact merge of two histogram snapshots: bucket counts and count/sum
/// add; min/max are recomputed exactly (an empty side contributes nothing,
/// so its sentinel 0 min never leaks into the merge).
void merge_histogram(HistogramSnapshot& into, const HistogramSnapshot& from);
/// Merges `from` into `into`: counters and histograms add, gauges keep the
/// max (high-water semantics). Names absent from `into` are appended.
void merge_metrics(MetricsSnapshot& into, const MetricsSnapshot& from);

/// Folds a remote process's telemetry into this process's export paths:
/// events are rebased onto the local epoch (steady clock is machine-wide,
/// so corrected_ts = ts + remote_epoch - local_epoch is exact), repeat
/// adoptions from the same (pid, label) merge into one lane, and
/// chrome_trace_json()/metrics_json()/prometheus_text() then report the
/// merged view. Cleared by reset().
void adopt_remote_telemetry(ProcessTelemetry remote);
/// The adopted remote lanes (rebased), for tests and aggregation checks.
std::vector<ProcessTelemetry> adopted_telemetry();

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps)
/// — load the written file in chrome://tracing or ui.perfetto.dev. One
/// lane (pid) per process: pid 1 is this process, adopted remote
/// processes follow in adoption order. Event args carry span/parent ids.
util::Json chrome_trace_json();
/// Flat metrics JSON: process stats, counters, gauges, histograms and the
/// per-thread counter split. With adopted telemetry the top-level blocks
/// are the cross-process aggregate and "per_process" breaks them out.
util::Json metrics_json();

/// Prometheus text exposition of the (aggregated) registry: counters,
/// gauges, and histograms as cumulative le-buckets. Metric names have
/// '.' mapped to '_' and a "tracesel_" prefix.
std::string prometheus_text();

/// Convenience writers; false (plus a log line) when the file cannot be
/// opened.
bool write_chrome_trace(const std::string& path);
bool write_metrics(const std::string& path);
bool write_prometheus(const std::string& path);

/// Process-wide helpers (also mirrored into gauges by
/// update_process_gauges so bench JSON can read them from the registry).
long peak_rss_kb();
double process_wall_ms();
void update_process_gauges();

}  // namespace tracesel::obs

// --- instrumentation macros -------------------------------------------
// Each site caches its metric id in a function-local static, so the
// enabled path is: relaxed load, branch, (first time: registration),
// thread-shard lookup, relaxed atomic add.

#define TRACESEL_OBS_CONCAT2(a, b) a##b
#define TRACESEL_OBS_CONCAT(a, b) TRACESEL_OBS_CONCAT2(a, b)

/// Times the enclosing scope as a span named `name` (a string literal).
#define OBS_SPAN(name) \
  ::tracesel::obs::Span TRACESEL_OBS_CONCAT(obs_span_, __LINE__)(name)

#define OBS_COUNT(name, delta)                                        \
  do {                                                                \
    if (::tracesel::obs::enabled()) {                                 \
      static const ::tracesel::obs::CounterId obs_metric_id =         \
          ::tracesel::obs::registry().counter(name);                  \
      ::tracesel::obs::registry().add(                                \
          obs_metric_id, static_cast<std::uint64_t>(delta));          \
    }                                                                 \
  } while (0)

#define OBS_GAUGE_SET(name, value)                                    \
  do {                                                                \
    if (::tracesel::obs::enabled()) {                                 \
      static const ::tracesel::obs::GaugeId obs_metric_id =           \
          ::tracesel::obs::registry().gauge(name);                    \
      ::tracesel::obs::registry().set(                                \
          obs_metric_id, static_cast<std::int64_t>(value));           \
    }                                                                 \
  } while (0)

#define OBS_GAUGE_MAX(name, value)                                    \
  do {                                                                \
    if (::tracesel::obs::enabled()) {                                 \
      static const ::tracesel::obs::GaugeId obs_metric_id =           \
          ::tracesel::obs::registry().gauge(name);                    \
      ::tracesel::obs::registry().set_max(                            \
          obs_metric_id, static_cast<std::int64_t>(value));           \
    }                                                                 \
  } while (0)

#define OBS_HIST(name, value)                                         \
  do {                                                                \
    if (::tracesel::obs::enabled()) {                                 \
      static const ::tracesel::obs::HistogramId obs_metric_id =       \
          ::tracesel::obs::registry().histogram(name);                \
      ::tracesel::obs::registry().observe(                            \
          obs_metric_id, static_cast<std::uint64_t>(value));          \
    }                                                                 \
  } while (0)
