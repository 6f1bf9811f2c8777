#include "util/obs.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <chrono>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "util/atomic_file.hpp"
#include "util/framing.hpp"
#include "util/log.hpp"

namespace tracesel::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/// Hard cap on buffered events per thread: past it spans are dropped (and
/// counted in the snapshot) instead of growing memory without bound.
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 20;

constexpr std::uint64_t kNoMin = ~std::uint64_t{0};

std::int64_t clock_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct HistShard {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{kNoMin};
  std::atomic<std::uint64_t> max{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

/// One thread's private metric block. The owner thread is the only writer
/// of the atomics (relaxed), snapshot readers merge them concurrently;
/// the event vector is guarded by its own mutex because it reallocates.
struct ThreadShard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistShard, kMaxHistograms> hists{};
  std::mutex events_mu;
  std::vector<TraceEvent> events;
  std::uint64_t events_dropped = 0;  // guarded by events_mu
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;  // owner thread only
  /// Ids of the open spans on this thread, innermost last (owner thread
  /// only) — a new span parents under the top, or under the process-global
  /// TraceContext when the stack is empty.
  std::vector<std::uint64_t> span_stack;
};

struct HistTotals {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = kNoMin;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

/// The backing store behind the MetricsRegistry facade. Lock order:
/// state.mu before any shard's events_mu.
struct State {
  mutable std::mutex mu;

  // Append-only name tables; ids handed out stay valid for the process
  // lifetime (reset() clears values, never names).
  std::unordered_map<std::string, std::uint32_t> counter_ids;
  std::unordered_map<std::string, std::uint32_t> gauge_ids;
  std::unordered_map<std::string, std::uint32_t> hist_ids;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;

  std::array<std::atomic<std::int64_t>, kMaxGauges> gauges{};

  std::vector<ThreadShard*> shards;  // live threads
  std::uint32_t next_tid = 0;

  // Folded-in contributions of exited threads (guarded by mu).
  std::array<std::uint64_t, kMaxCounters> retired_counters{};
  std::array<HistTotals, kMaxHistograms> retired_hists{};
  std::vector<TraceEvent> retired_events;
  std::uint64_t retired_events_dropped = 0;

  /// Trace epoch as steady-clock nanoseconds, atomic so Span never takes
  /// the registry mutex on the hot path.
  std::atomic<std::int64_t> epoch_ns{clock_now_ns()};

  // Cross-process trace identity (atomics: Span reads these on the hot
  // path). Span ids are splitmix64 of a per-process seed plus a sequence
  // number — unique within a process, collision-unlikely across the
  // processes of one distributed trace.
  std::atomic<std::uint64_t> trace_id{0};
  std::atomic<std::uint64_t> parent_span{0};
  std::atomic<std::uint64_t> next_span{1};
  std::uint64_t span_seed =
      splitmix64(static_cast<std::uint64_t>(::getpid()) ^
                 static_cast<std::uint64_t>(clock_now_ns()));

  std::string label = "tracesel";  // guarded by mu

  /// Remote processes' telemetry, rebased onto the local epoch at adopt
  /// time (guarded by mu; cleared by reset()).
  std::vector<ProcessTelemetry> adopted;

  ThreadShard* attach() {
    auto* shard = new ThreadShard;
    std::lock_guard<std::mutex> lk(mu);
    shard->tid = next_tid++;
    shards.push_back(shard);
    return shard;
  }

  void detach(ThreadShard* shard) {
    std::lock_guard<std::mutex> lk(mu);
    for (std::size_t i = 0; i < kMaxCounters; ++i)
      retired_counters[i] += shard->counters[i].load(std::memory_order_relaxed);
    for (std::size_t h = 0; h < kMaxHistograms; ++h)
      merge_hist(retired_hists[h], shard->hists[h]);
    {
      std::lock_guard<std::mutex> elk(shard->events_mu);
      retired_events.insert(retired_events.end(), shard->events.begin(),
                            shard->events.end());
      retired_events_dropped += shard->events_dropped;
    }
    shards.erase(std::find(shards.begin(), shards.end(), shard));
    delete shard;
  }

  static void merge_hist(HistTotals& into, const HistShard& from) {
    into.count += from.count.load(std::memory_order_relaxed);
    into.sum += from.sum.load(std::memory_order_relaxed);
    into.min = std::min(into.min, from.min.load(std::memory_order_relaxed));
    into.max = std::max(into.max, from.max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
      into.buckets[b] += from.buckets[b].load(std::memory_order_relaxed);
  }
};

State& state() {
  // Leaked on purpose: worker threads may detach during static
  // destruction, after main() has returned.
  static State* s = new State;
  return *s;
}

// Construct the state (and with it the trace epoch) during static
// initialization, not at first metric use: process_wall_ms() must measure
// from process start even when the first obs call is a final
// update_process_gauges() stamping a bench result.
[[maybe_unused]] const State& g_eager_state = state();

/// RAII registration of the calling thread's shard; the destructor folds
/// the shard into the retired accumulators at thread exit.
struct ShardHandle {
  ThreadShard* shard;
  ShardHandle() : shard(state().attach()) {}
  ~ShardHandle() { state().detach(shard); }
};

ThreadShard& local_shard() {
  thread_local ShardHandle handle;
  return *handle.shard;
}

std::uint32_t register_name(std::unordered_map<std::string, std::uint32_t>& ids,
                            std::vector<std::string>& names,
                            std::size_t capacity, std::string_view name,
                            const char* kind) {
  const auto it = ids.find(std::string(name));
  if (it != ids.end()) return it->second;
  if (names.size() >= capacity)
    throw std::length_error(std::string("obs::MetricsRegistry: ") + kind +
                            " capacity exceeded registering '" +
                            std::string(name) + "'");
  const auto id = static_cast<std::uint32_t>(names.size());
  names.emplace_back(name);
  ids.emplace(names.back(), id);
  return id;
}

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint32_t histogram_bucket(std::uint64_t value) {
  return value == 0 ? 0u : static_cast<std::uint32_t>(std::bit_width(value));
}

MetricsRegistry& registry() {
  static MetricsRegistry facade;
  state();  // make sure the backing store outlives any first use
  return facade;
}

CounterId MetricsRegistry::counter(std::string_view name) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return CounterId{register_name(s.counter_ids, s.counter_names, kMaxCounters,
                                 name, "counter")};
}

GaugeId MetricsRegistry::gauge(std::string_view name) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return GaugeId{
      register_name(s.gauge_ids, s.gauge_names, kMaxGauges, name, "gauge")};
}

HistogramId MetricsRegistry::histogram(std::string_view name) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return HistogramId{register_name(s.hist_ids, s.hist_names, kMaxHistograms,
                                   name, "histogram")};
}

void MetricsRegistry::add(CounterId id, std::uint64_t delta) {
  local_shard().counters[id.index].fetch_add(delta,
                                             std::memory_order_relaxed);
}

void MetricsRegistry::set(GaugeId id, std::int64_t value) {
  state().gauges[id.index].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::set_max(GaugeId id, std::int64_t value) {
  auto& gauge = state().gauges[id.index];
  std::int64_t seen = gauge.load(std::memory_order_relaxed);
  while (value > seen &&
         !gauge.compare_exchange_weak(seen, value,
                                      std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::observe(HistogramId id, std::uint64_t value) {
  HistShard& h = local_shard().hists[id.index];
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  // The owner thread is the only writer, so load-compare-store is enough.
  if (value < h.min.load(std::memory_order_relaxed))
    h.min.store(value, std::memory_order_relaxed);
  if (value > h.max.load(std::memory_order_relaxed))
    h.max.store(value, std::memory_order_relaxed);
  h.buckets[histogram_bucket(value)].fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::thread_counter_values() const {
  State& s = state();
  ThreadShard& shard = local_shard();
  std::vector<std::pair<std::string, std::uint64_t>> values;
  std::lock_guard<std::mutex> lk(s.mu);  // the name table may grow
  for (std::size_t i = 0; i < s.counter_names.size(); ++i) {
    const std::uint64_t v = shard.counters[i].load(std::memory_order_relaxed);
    if (v != 0) values.emplace_back(s.counter_names[i], v);
  }
  return values;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  State& s = state();
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lk(s.mu);

  std::vector<std::uint64_t> counter_totals(s.counter_names.size(), 0);
  for (std::size_t i = 0; i < counter_totals.size(); ++i)
    counter_totals[i] = s.retired_counters[i];

  auto split_of = [&](std::string label,
                      const auto& value_at) {
    std::vector<std::pair<std::string, std::uint64_t>> values;
    for (std::size_t i = 0; i < s.counter_names.size(); ++i) {
      const std::uint64_t v = value_at(i);
      if (v != 0) values.emplace_back(s.counter_names[i], v);
    }
    if (!values.empty())
      snap.per_thread_counters.emplace_back(std::move(label),
                                            std::move(values));
  };

  for (const ThreadShard* shard : s.shards) {
    std::string label = "t";
    label += std::to_string(shard->tid);
    split_of(std::move(label), [&](std::size_t i) {
      return shard->counters[i].load(std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < counter_totals.size(); ++i)
      counter_totals[i] +=
          shard->counters[i].load(std::memory_order_relaxed);
  }
  split_of("retired", [&](std::size_t i) { return s.retired_counters[i]; });

  for (std::size_t i = 0; i < s.counter_names.size(); ++i)
    snap.counters.emplace_back(s.counter_names[i], counter_totals[i]);
  for (std::size_t i = 0; i < s.gauge_names.size(); ++i)
    snap.gauges.emplace_back(s.gauge_names[i],
                             s.gauges[i].load(std::memory_order_relaxed));

  for (std::size_t h = 0; h < s.hist_names.size(); ++h) {
    HistTotals totals = s.retired_hists[h];
    for (const ThreadShard* shard : s.shards)
      State::merge_hist(totals, shard->hists[h]);
    HistogramSnapshot hs;
    hs.name = s.hist_names[h];
    hs.count = totals.count;
    hs.sum = totals.sum;
    hs.min = totals.count == 0 ? 0 : totals.min;
    hs.max = totals.max;
    hs.buckets.assign(totals.buckets.begin(), totals.buckets.end());
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const MetricsSnapshot snap = snapshot();
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name) const {
  const MetricsSnapshot snap = snapshot();
  for (const auto& [n, v] : snap.gauges)
    if (n == name) return v;
  return 0;
}

std::optional<HistogramSnapshot> MetricsRegistry::histogram_snapshot(
    std::string_view name) const {
  MetricsSnapshot snap = snapshot();
  for (auto& h : snap.histograms)
    if (h.name == name) return std::move(h);
  return std::nullopt;
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.retired_counters.fill(0);
  s.retired_hists.fill(HistTotals{});
  s.retired_events.clear();
  s.retired_events_dropped = 0;
  for (auto& g : s.gauges) g.store(0, std::memory_order_relaxed);
  for (ThreadShard* shard : s.shards) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : shard->hists) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      h.min.store(kNoMin, std::memory_order_relaxed);
      h.max.store(0, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> elk(shard->events_mu);
    shard->events.clear();
    shard->events_dropped = 0;
  }
  s.adopted.clear();
  s.epoch_ns.store(clock_now_ns(), std::memory_order_relaxed);
}

// --- trace context ----------------------------------------------------

void set_trace_context(TraceContext ctx) {
  State& s = state();
  s.trace_id.store(ctx.trace_id, std::memory_order_relaxed);
  s.parent_span.store(ctx.parent_span_id, std::memory_order_relaxed);
}

TraceContext trace_context() {
  State& s = state();
  TraceContext ctx;
  ctx.trace_id = s.trace_id.load(std::memory_order_relaxed);
  ctx.parent_span_id = s.parent_span.load(std::memory_order_relaxed);
  return ctx;
}

TraceContext ensure_trace_context() {
  State& s = state();
  std::uint64_t id = s.trace_id.load(std::memory_order_relaxed);
  if (id == 0) {
    std::uint64_t fresh = splitmix64(
        s.span_seed ^ s.next_span.fetch_add(1, std::memory_order_relaxed));
    if (fresh == 0) fresh = 1;
    // First writer wins: a concurrent ensure keeps the installed id.
    if (s.trace_id.compare_exchange_strong(id, fresh,
                                           std::memory_order_relaxed))
      id = fresh;
  }
  TraceContext ctx;
  ctx.trace_id = id;
  ctx.parent_span_id = s.parent_span.load(std::memory_order_relaxed);
  return ctx;
}

std::uint64_t current_span_id() {
  if (!enabled()) return 0;
  ThreadShard& shard = local_shard();
  return shard.span_stack.empty() ? 0 : shard.span_stack.back();
}

void set_process_label(std::string_view label) {
  State& s = state();
  std::string normalized(label);
  std::replace(normalized.begin(), normalized.end(), ' ', '_');
  if (normalized.empty()) normalized = "tracesel";
  std::lock_guard<std::mutex> lk(s.mu);
  s.label = std::move(normalized);
}

std::string process_label() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.label;
}

// --- spans and trace export -------------------------------------------

void Span::begin(const char* name, std::uint64_t parent_override) {
  name_ = name;
  State& s = state();
  ThreadShard& shard = local_shard();
  depth_ = shard.depth++;
  span_id_ = splitmix64(
      s.span_seed + s.next_span.fetch_add(1, std::memory_order_relaxed));
  if (span_id_ == 0) span_id_ = 1;
  parent_id_ = parent_override != 0 ? parent_override
               : !shard.span_stack.empty()
                   ? shard.span_stack.back()
                   : s.parent_span.load(std::memory_order_relaxed);
  shard.span_stack.push_back(span_id_);
  const std::int64_t epoch = s.epoch_ns.load(std::memory_order_relaxed);
  start_ns_ = static_cast<std::uint64_t>(clock_now_ns() - epoch);
}

void Span::end() {
  ThreadShard& shard = local_shard();
  if (shard.depth > 0) --shard.depth;
  if (!shard.span_stack.empty()) shard.span_stack.pop_back();

  const std::int64_t epoch =
      state().epoch_ns.load(std::memory_order_relaxed);
  const auto now_ns = static_cast<std::uint64_t>(clock_now_ns() - epoch);
  // A reset() between begin and end restarts the epoch; clamp rather than
  // underflow.
  const std::uint64_t dur =
      now_ns >= start_ns_ ? now_ns - start_ns_ : 0;

  TraceEvent event;
  event.name = name_;
  event.ts_ns = now_ns - dur;
  event.dur_ns = dur;
  event.tid = shard.tid;
  event.depth = depth_;
  event.span_id = span_id_;
  event.parent_id = parent_id_;
  {
    std::lock_guard<std::mutex> lk(shard.events_mu);
    if (shard.events.size() < kMaxEventsPerThread)
      shard.events.push_back(event);
    else
      ++shard.events_dropped;
  }

  // Mirror the latency into "span.<name>" so the metrics JSON carries the
  // distribution without re-parsing the trace.
  registry().observe(
      registry().histogram(std::string("span.") + name_), dur);
}

std::vector<TraceEvent> trace_events() {
  State& s = state();
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    events = s.retired_events;
    for (ThreadShard* shard : s.shards) {
      std::lock_guard<std::mutex> elk(shard->events_mu);
      events.insert(events.end(), shard->events.begin(),
                    shard->events.end());
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              if (a.depth != b.depth) return a.depth < b.depth;
              return a.tid < b.tid;
            });
  return events;
}

std::size_t thread_events_mark() {
  ThreadShard& shard = local_shard();
  std::lock_guard<std::mutex> lk(shard.events_mu);
  return shard.events.size();
}

std::vector<TraceEvent> thread_events_since(std::size_t mark) {
  ThreadShard& shard = local_shard();
  std::lock_guard<std::mutex> lk(shard.events_mu);
  // A reset() between mark and collect shrank the buffer below the mark;
  // report empty rather than a stale window.
  if (mark >= shard.events.size()) return {};
  return std::vector<TraceEvent>(shard.events.begin() +
                                     static_cast<std::ptrdiff_t>(mark),
                                 shard.events.end());
}

// --- cross-process telemetry ------------------------------------------

void merge_histogram(HistogramSnapshot& into, const HistogramSnapshot& from) {
  if (into.buckets.size() < from.buckets.size())
    into.buckets.resize(from.buckets.size(), 0);
  for (std::size_t b = 0; b < from.buckets.size(); ++b)
    into.buckets[b] += from.buckets[b];
  if (from.count == 0) return;  // an empty side's reported-0 min is a
                                // sentinel, not a sample
  into.min = into.count == 0 ? from.min : std::min(into.min, from.min);
  into.max = std::max(into.max, from.max);
  into.count += from.count;
  into.sum += from.sum;
}

void merge_metrics(MetricsSnapshot& into, const MetricsSnapshot& from) {
  for (const auto& [name, value] : from.counters) {
    bool found = false;
    for (auto& [n, v] : into.counters)
      if (n == name) {
        v += value;
        found = true;
        break;
      }
    if (!found) into.counters.emplace_back(name, value);
  }
  // Gauges are level readings (peak RSS, product states); across
  // processes the high-water mark is the meaningful aggregate.
  for (const auto& [name, value] : from.gauges) {
    bool found = false;
    for (auto& [n, v] : into.gauges)
      if (n == name) {
        v = std::max(v, value);
        found = true;
        break;
      }
    if (!found) into.gauges.emplace_back(name, value);
  }
  for (const HistogramSnapshot& h : from.histograms) {
    bool found = false;
    for (HistogramSnapshot& target : into.histograms)
      if (target.name == h.name) {
        merge_histogram(target, h);
        found = true;
        break;
      }
    if (!found) into.histograms.push_back(h);
  }
  // per_thread_counters stay process-local: thread ids from different
  // processes are unrelated namespaces.
}

std::int64_t trace_epoch_ns() {
  return state().epoch_ns.load(std::memory_order_relaxed);
}

ProcessTelemetry capture_telemetry() {
  ProcessTelemetry t;
  t.label = process_label();
  t.pid = static_cast<std::uint64_t>(::getpid());
  t.epoch_ns = state().epoch_ns.load(std::memory_order_relaxed);
  t.metrics = registry().snapshot();
  t.metrics.per_thread_counters.clear();  // does not travel
  for (const TraceEvent& e : trace_events()) {
    WireTraceEvent w;
    w.name = e.name;
    w.ts_ns = e.ts_ns;
    w.dur_ns = e.dur_ns;
    w.tid = e.tid;
    w.depth = e.depth;
    w.span_id = e.span_id;
    w.parent_id = e.parent_id;
    t.events.push_back(std::move(w));
  }
  return t;
}

namespace {

constexpr std::string_view kTelemetryTag = "tracesel-telemetry";

/// Metric names are dotted identifiers; a space would desynchronize the
/// token-based parser, so normalize defensively on encode.
std::string wire_name(std::string_view name) {
  std::string out(name);
  std::replace(out.begin(), out.end(), ' ', '_');
  if (out.empty()) out = "_";
  return out;
}

template <typename T>
bool parse_number(std::string_view token, T& out) {
  if (token.empty()) return false;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

/// Splits `line` into at most `max_fields` whitespace-separated tokens;
/// the last token absorbs the rest of the line (event names).
std::vector<std::string_view> split_fields(std::string_view line,
                                           std::size_t max_fields) {
  std::vector<std::string_view> fields;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) break;
    if (fields.size() + 1 == max_fields) {
      fields.push_back(line.substr(pos));
      break;
    }
    std::size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    fields.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return fields;
}

util::Error telemetry_error(std::size_t line_no, const std::string& what) {
  return util::Error{util::ErrorCode::kParse,
                     "telemetry line " + std::to_string(line_no) + ": " +
                         what};
}

}  // namespace

std::string serialize_telemetry(const ProcessTelemetry& telemetry) {
  std::string body;
  body += "process ";
  body += wire_name(telemetry.label);
  body += ' ';
  body += std::to_string(telemetry.pid);
  body += ' ';
  body += std::to_string(telemetry.epoch_ns);
  body += '\n';
  for (const auto& [name, value] : telemetry.metrics.counters) {
    if (value == 0) continue;
    body += "counter ";
    body += wire_name(name);
    body += ' ';
    body += std::to_string(value);
    body += '\n';
  }
  for (const auto& [name, value] : telemetry.metrics.gauges) {
    if (value == 0) continue;
    body += "gauge ";
    body += wire_name(name);
    body += ' ';
    body += std::to_string(value);
    body += '\n';
  }
  for (const HistogramSnapshot& h : telemetry.metrics.histograms) {
    if (h.count == 0) continue;
    body += "hist ";
    body += wire_name(h.name);
    body += ' ';
    body += std::to_string(h.count);
    body += ' ';
    body += std::to_string(h.sum);
    body += ' ';
    body += std::to_string(h.min);
    body += ' ';
    body += std::to_string(h.max);
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      body += ' ';
      body += std::to_string(b);
      body += ':';
      body += std::to_string(h.buckets[b]);
    }
    body += '\n';
  }
  for (const WireTraceEvent& e : telemetry.events) {
    body += "event ";
    body += std::to_string(e.ts_ns);
    body += ' ';
    body += std::to_string(e.dur_ns);
    body += ' ';
    body += std::to_string(e.tid);
    body += ' ';
    body += std::to_string(e.depth);
    body += ' ';
    body += std::to_string(e.span_id);
    body += ' ';
    body += std::to_string(e.parent_id);
    body += ' ';
    body += e.name.empty() ? std::string("_") : e.name;
    body += '\n';
  }
  body += "end\n";
  return util::encode_envelope(kTelemetryTag, kTelemetryVersion, body);
}

util::Result<ProcessTelemetry> parse_telemetry(std::string_view wire) {
  auto payload = util::decode_envelope(wire, kTelemetryTag,
                                       kTelemetryVersion, "telemetry");
  if (!payload.ok()) return payload.error();

  ProcessTelemetry out;
  bool saw_process = false;
  bool saw_end = false;
  std::string_view rest = payload.value();
  std::size_t line_no = 1;  // line 1 is the envelope header
  while (!rest.empty()) {
    ++line_no;
    std::size_t eol = rest.find('\n');
    if (eol == std::string_view::npos)
      return telemetry_error(line_no, "truncated (missing newline)");
    const std::string_view line = rest.substr(0, eol);
    rest.remove_prefix(eol + 1);
    if (line.empty()) continue;
    if (saw_end)
      return telemetry_error(line_no, "content after 'end'");
    if (line == "end") {
      saw_end = true;
      continue;
    }

    const std::size_t key_end = line.find(' ');
    const std::string_view key =
        key_end == std::string_view::npos ? line : line.substr(0, key_end);
    if (!saw_process && key != "process")
      return telemetry_error(line_no, "expected 'process' first");

    if (key == "process") {
      if (saw_process)
        return telemetry_error(line_no, "duplicate 'process'");
      const auto f = split_fields(line, 4);
      if (f.size() != 4) return telemetry_error(line_no, "bad 'process'");
      out.label = std::string(f[1]);
      if (!parse_number(f[2], out.pid) || !parse_number(f[3], out.epoch_ns))
        return telemetry_error(line_no, "bad 'process' numbers");
      saw_process = true;
    } else if (key == "counter") {
      const auto f = split_fields(line, 3);
      std::uint64_t value = 0;
      if (f.size() != 3 || !parse_number(f[2], value))
        return telemetry_error(line_no, "bad 'counter'");
      out.metrics.counters.emplace_back(std::string(f[1]), value);
    } else if (key == "gauge") {
      const auto f = split_fields(line, 3);
      std::int64_t value = 0;
      if (f.size() != 3 || !parse_number(f[2], value))
        return telemetry_error(line_no, "bad 'gauge'");
      out.metrics.gauges.emplace_back(std::string(f[1]), value);
    } else if (key == "hist") {
      // Unbounded trailing idx:count pairs: split without a field cap.
      const auto f = split_fields(line, line.size());
      if (f.size() < 6) return telemetry_error(line_no, "bad 'hist'");
      HistogramSnapshot h;
      h.name = std::string(f[1]);
      if (!parse_number(f[2], h.count) || !parse_number(f[3], h.sum) ||
          !parse_number(f[4], h.min) || !parse_number(f[5], h.max))
        return telemetry_error(line_no, "bad 'hist' numbers");
      h.buckets.assign(kHistogramBuckets, 0);
      for (std::size_t i = 6; i < f.size(); ++i) {
        const std::size_t colon = f[i].find(':');
        std::uint64_t idx = 0;
        std::uint64_t count = 0;
        if (colon == std::string_view::npos ||
            !parse_number(f[i].substr(0, colon), idx) ||
            !parse_number(f[i].substr(colon + 1), count) ||
            idx >= kHistogramBuckets)
          return telemetry_error(line_no, "bad 'hist' bucket");
        h.buckets[idx] += count;
      }
      out.metrics.histograms.push_back(std::move(h));
    } else if (key == "event") {
      const auto f = split_fields(line, 8);
      if (f.size() != 8) return telemetry_error(line_no, "bad 'event'");
      WireTraceEvent e;
      if (!parse_number(f[1], e.ts_ns) || !parse_number(f[2], e.dur_ns) ||
          !parse_number(f[3], e.tid) || !parse_number(f[4], e.depth) ||
          !parse_number(f[5], e.span_id) ||
          !parse_number(f[6], e.parent_id))
        return telemetry_error(line_no, "bad 'event' numbers");
      e.name = std::string(f[7]);
      out.events.push_back(std::move(e));
    } else {
      // Strict by design: an unknown key means version skew that the
      // envelope version failed to catch, or corruption.
      return telemetry_error(line_no,
                             "unknown key '" + std::string(key) + "'");
    }
  }
  if (!saw_process)
    return telemetry_error(line_no, "missing 'process' line");
  if (!saw_end) return telemetry_error(line_no, "missing 'end'");
  return out;
}

void adopt_remote_telemetry(ProcessTelemetry remote) {
  State& s = state();
  const std::int64_t local_epoch =
      s.epoch_ns.load(std::memory_order_relaxed);
  // Steady clock is machine-wide, so the epoch difference is the exact
  // offset between the two processes' timelines. Clamp at 0: a remote
  // event can predate the local epoch only across a reset().
  const std::int64_t offset = remote.epoch_ns - local_epoch;
  for (WireTraceEvent& e : remote.events) {
    const std::int64_t rebased = static_cast<std::int64_t>(e.ts_ns) + offset;
    e.ts_ns = rebased > 0 ? static_cast<std::uint64_t>(rebased) : 0;
  }
  remote.epoch_ns = local_epoch;

  std::lock_guard<std::mutex> lk(s.mu);
  for (ProcessTelemetry& lane : s.adopted) {
    if (lane.pid == remote.pid && lane.label == remote.label) {
      // Repeat adoption (one daemon answering several jobs): one lane, summed
      // metrics, appended events.
      merge_metrics(lane.metrics, remote.metrics);
      lane.events.insert(lane.events.end(),
                         std::make_move_iterator(remote.events.begin()),
                         std::make_move_iterator(remote.events.end()));
      return;
    }
  }
  s.adopted.push_back(std::move(remote));
}

std::vector<ProcessTelemetry> adopted_telemetry() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.adopted;
}

namespace {

std::string hex_id(std::uint64_t id) {
  // Span ids are emitted as hex strings: a raw uint64 exceeds the exact
  // integer range of a JSON double.
  char buf[19];
  buf[0] = '0';
  buf[1] = 'x';
  const auto [end, ec] = std::to_chars(buf + 2, buf + sizeof(buf), id, 16);
  (void)ec;
  return std::string(buf, static_cast<std::size_t>(end - buf));
}

void append_process_meta(util::Json& events, std::int64_t pid,
                         const std::string& name) {
  // Process/thread metadata rows make the Perfetto timeline readable.
  util::Json meta = util::Json::object();
  meta.set("ph", util::Json::string("M"));
  meta.set("pid", util::Json::number(pid));
  meta.set("name", util::Json::string("process_name"));
  util::Json args = util::Json::object();
  args.set("name", util::Json::string(name));
  meta.set("args", std::move(args));
  events.push_back(std::move(meta));
}

void append_trace_event(util::Json& events, std::int64_t pid,
                        const std::string& name, std::uint64_t ts_ns,
                        std::uint64_t dur_ns, std::uint32_t tid,
                        std::uint32_t depth, std::uint64_t span_id,
                        std::uint64_t parent_id) {
  util::Json je = util::Json::object();
  je.set("name", util::Json::string(name));
  je.set("cat", util::Json::string("tracesel"));
  je.set("ph", util::Json::string("X"));
  je.set("pid", util::Json::number(pid));
  je.set("tid", util::Json::number(std::uint64_t{tid}));
  // Chrome trace timestamps are microseconds.
  je.set("ts", util::Json::number(static_cast<double>(ts_ns) / 1000.0));
  je.set("dur", util::Json::number(static_cast<double>(dur_ns) / 1000.0));
  util::Json args = util::Json::object();
  args.set("depth", util::Json::number(std::uint64_t{depth}));
  if (span_id != 0) args.set("span", util::Json::string(hex_id(span_id)));
  if (parent_id != 0)
    args.set("parent", util::Json::string(hex_id(parent_id)));
  je.set("args", std::move(args));
  events.push_back(std::move(je));
}

}  // namespace

util::Json chrome_trace_json() {
  util::Json events = util::Json::array();
  // Lane pid 1 is this process; adopted remote processes follow in
  // adoption order. Their events were rebased onto the local epoch at
  // adopt time, so one shared timeline is correct as-is.
  append_process_meta(events, 1, process_label());
  const std::vector<ProcessTelemetry> remote = adopted_telemetry();
  for (std::size_t i = 0; i < remote.size(); ++i) {
    std::string name = remote[i].label;
    name += " #";
    name += std::to_string(remote[i].pid);
    append_process_meta(events, static_cast<std::int64_t>(2 + i), name);
  }
  for (const TraceEvent& e : trace_events())
    append_trace_event(events, 1, e.name, e.ts_ns, e.dur_ns, e.tid, e.depth,
                       e.span_id, e.parent_id);
  for (std::size_t i = 0; i < remote.size(); ++i)
    for (const WireTraceEvent& e : remote[i].events)
      append_trace_event(events, static_cast<std::int64_t>(2 + i), e.name,
                         e.ts_ns, e.dur_ns, e.tid, e.depth, e.span_id,
                         e.parent_id);
  util::Json out = util::Json::object();
  out.set("displayTimeUnit", util::Json::string("ms"));
  out.set("traceEvents", std::move(events));
  return out;
}

util::Json metrics_json() {
  update_process_gauges();
  MetricsSnapshot snap = registry().snapshot();

  // With adopted remote telemetry the top-level blocks become the
  // cross-process aggregate; "per_process" keeps the per-lane counters.
  const std::vector<ProcessTelemetry> remote = adopted_telemetry();
  util::Json per_process = util::Json::object();
  if (!remote.empty()) {
    auto counters_of = [](const MetricsSnapshot& m) {
      util::Json jc = util::Json::object();
      for (const auto& [name, value] : m.counters)
        if (value != 0) jc.set(name, util::Json::number(value));
      return jc;
    };
    per_process.set(process_label() + " #" + std::to_string(::getpid()),
                    counters_of(snap));
    for (const ProcessTelemetry& lane : remote) {
      per_process.set(lane.label + " #" + std::to_string(lane.pid),
                      counters_of(lane.metrics));
      merge_metrics(snap, lane.metrics);
    }
  }

  util::Json counters = util::Json::object();
  for (const auto& [name, value] : snap.counters)
    counters.set(name, util::Json::number(value));

  util::Json gauges = util::Json::object();
  for (const auto& [name, value] : snap.gauges)
    gauges.set(name, util::Json::number(value));

  util::Json hists = util::Json::object();
  for (const HistogramSnapshot& h : snap.histograms) {
    util::Json jh = util::Json::object();
    jh.set("count", util::Json::number(h.count));
    jh.set("sum", util::Json::number(h.sum));
    jh.set("min", util::Json::number(h.min));
    jh.set("max", util::Json::number(h.max));
    jh.set("mean", util::Json::number(
                       h.count == 0 ? 0.0
                                    : static_cast<double>(h.sum) /
                                          static_cast<double>(h.count)));
    util::Json buckets = util::Json::array();
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      util::Json jb = util::Json::object();
      // Bucket b >= 1 holds values in [2^(b-1), 2^b); report the upper
      // bound, log-scale.
      jb.set("lt", util::Json::number(
                       b == 0 ? std::uint64_t{1} : std::uint64_t{1} << b));
      jb.set("count", util::Json::number(h.buckets[b]));
      buckets.push_back(std::move(jb));
    }
    jh.set("buckets", std::move(buckets));
    hists.set(h.name, std::move(jh));
  }

  util::Json per_thread = util::Json::object();
  for (const auto& [label, values] : snap.per_thread_counters) {
    util::Json jt = util::Json::object();
    for (const auto& [name, value] : values)
      jt.set(name, util::Json::number(value));
    per_thread.set(label, std::move(jt));
  }

  util::Json process = util::Json::object();
  process.set("peak_rss_kb",
              util::Json::number(static_cast<std::int64_t>(peak_rss_kb())));
  process.set("wall_ms", util::Json::number(process_wall_ms()));

  util::Json out = util::Json::object();
  out.set("process", std::move(process));
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(hists));
  out.set("per_thread_counters", std::move(per_thread));
  if (!remote.empty()) out.set("per_process", std::move(per_process));
  return out;
}

std::string prometheus_text() {
  update_process_gauges();
  MetricsSnapshot snap = registry().snapshot();
  for (const ProcessTelemetry& lane : adopted_telemetry())
    merge_metrics(snap, lane.metrics);

  auto prom_name = [](std::string_view name) {
    std::string out = "tracesel_";
    for (const char c : name)
      out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
    return out;
  };

  std::string text;
  for (const auto& [name, value] : snap.counters) {
    const std::string n = prom_name(name);
    text += "# TYPE " + n + " counter\n";
    text += n + ' ' + std::to_string(value) + '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = prom_name(name);
    text += "# TYPE " + n + " gauge\n";
    text += n + ' ' + std::to_string(value) + '\n';
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    const std::string n = prom_name(h.name);
    text += "# TYPE " + n + " histogram\n";
    // Our buckets are log-scale and exclusive upper ([2^(b-1), 2^b));
    // Prometheus buckets are cumulative with inclusive le, so le = 2^b - 1
    // holds exactly our buckets 0..b.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      cumulative += h.buckets[b];
      const std::uint64_t le =
          b == 0 ? 0 : (b >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1);
      text += n + "_bucket{le=\"" + std::to_string(le) + "\"} " +
              std::to_string(cumulative) + '\n';
    }
    text += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + '\n';
    text += n + "_sum " + std::to_string(h.sum) + '\n';
    text += n + "_count " + std::to_string(h.count) + '\n';
  }
  return text;
}

namespace {

bool write_json(const util::Json& json, const std::string& path,
                const char* what) {
  // Temp+rename: a run killed mid-flush (SIGINT after a cancel request,
  // node preemption) must never leave a truncated half-JSON sink behind.
  const util::Status st = util::atomic_write_file(path, json.dump(2) + '\n');
  if (!st.ok()) {
    util::Log(util::LogLevel::kError)
        << "obs: cannot write " << what << " to '" << path
        << "': " << st.error().to_string();
    return false;
  }
  return true;
}

}  // namespace

bool write_chrome_trace(const std::string& path) {
  return write_json(chrome_trace_json(), path, "Chrome trace");
}

bool write_metrics(const std::string& path) {
  return write_json(metrics_json(), path, "metrics");
}

bool write_prometheus(const std::string& path) {
  const util::Status st = util::atomic_write_file(path, prometheus_text());
  if (!st.ok()) {
    util::Log(util::LogLevel::kError)
        << "obs: cannot write Prometheus exposition to '" << path
        << "': " << st.error().to_string();
    return false;
  }
  return true;
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux; monotone high-water mark
}

double process_wall_ms() {
  const std::int64_t epoch =
      state().epoch_ns.load(std::memory_order_relaxed);
  return static_cast<double>(clock_now_ns() - epoch) / 1e6;
}

void update_process_gauges() {
  MetricsRegistry& reg = registry();
  reg.set(reg.gauge("process.peak_rss_kb"), peak_rss_kb());
  reg.set(reg.gauge("process.wall_ms"),
          static_cast<std::int64_t>(process_wall_ms()));
}

}  // namespace tracesel::obs
