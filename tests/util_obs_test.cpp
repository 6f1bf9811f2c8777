// tracesel::obs unit tests (DESIGN.md §10): registry merge correctness
// under ThreadPool contention, span nesting/ordering, histogram bucketing,
// the disabled fast path, and a round-trip through the Session facade that
// checks --trace-out / --metrics-out output is well-formed JSON carrying
// the expected top-level span names. The contention tests are the ones
// scripts/check.sh re-runs under ThreadSanitizer.

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "tracesel/tracesel.hpp"
#include "util/obs.hpp"
#include "util/thread_pool.hpp"

namespace tracesel {
namespace {

// Every test runs with the layer freshly enabled and zeroed, and leaves it
// disabled again: obs state is process-global, and under `ctest` each TEST
// is its own process but a bare `./util_obs_test` run shares one.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

TEST_F(ObsTest, HistogramBucketingIsLogScale) {
  // Bucket b >= 1 holds [2^(b-1), 2^b); zero gets its own bucket 0.
  EXPECT_EQ(obs::histogram_bucket(0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1), 1u);
  EXPECT_EQ(obs::histogram_bucket(2), 2u);
  EXPECT_EQ(obs::histogram_bucket(3), 2u);
  EXPECT_EQ(obs::histogram_bucket(4), 3u);
  EXPECT_EQ(obs::histogram_bucket(7), 3u);
  EXPECT_EQ(obs::histogram_bucket(8), 4u);
  EXPECT_EQ(obs::histogram_bucket(1023), 10u);
  EXPECT_EQ(obs::histogram_bucket(1024), 11u);
  EXPECT_EQ(obs::histogram_bucket(~std::uint64_t{0}), 64u);
}

TEST_F(ObsTest, HistogramSnapshotTracksCountSumMinMax) {
  const auto id = obs::registry().histogram("test.hist");
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{3}, std::uint64_t{1000}})
    obs::registry().observe(id, v);

  const auto snap = obs::registry().histogram_snapshot("test.hist");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->count, 4u);
  EXPECT_EQ(snap->sum, 1004u);
  EXPECT_EQ(snap->min, 0u);
  EXPECT_EQ(snap->max, 1000u);
  ASSERT_EQ(snap->buckets.size(), obs::kHistogramBuckets);
  EXPECT_EQ(snap->buckets[0], 1u);   // 0
  EXPECT_EQ(snap->buckets[1], 1u);   // 1
  EXPECT_EQ(snap->buckets[2], 1u);   // 3
  EXPECT_EQ(snap->buckets[10], 1u);  // 1000 in [512, 1024)
  std::uint64_t total = 0;
  for (const auto b : snap->buckets) total += b;
  EXPECT_EQ(total, snap->count);

  EXPECT_FALSE(
      obs::registry().histogram_snapshot("test.never_registered").has_value());
}

TEST_F(ObsTest, CounterIdsSurviveReset) {
  const auto id = obs::registry().counter("test.sticky");
  obs::registry().add(id, 7);
  EXPECT_EQ(obs::registry().counter_value("test.sticky"), 7u);

  obs::reset();
  EXPECT_EQ(obs::registry().counter_value("test.sticky"), 0u);

  // The cached id must still be valid after reset (the OBS_* macros cache
  // ids in function-local statics for the process lifetime).
  obs::registry().add(id, 3);
  EXPECT_EQ(obs::registry().counter_value("test.sticky"), 3u);
}

TEST_F(ObsTest, GaugeSetAndMonotoneMax) {
  const auto id = obs::registry().gauge("test.gauge");
  obs::registry().set(id, 42);
  EXPECT_EQ(obs::registry().gauge_value("test.gauge"), 42);
  obs::registry().set(id, 5);
  EXPECT_EQ(obs::registry().gauge_value("test.gauge"), 5);

  obs::registry().set_max(id, 100);
  obs::registry().set_max(id, 50);  // lower: ignored
  EXPECT_EQ(obs::registry().gauge_value("test.gauge"), 100);
}

TEST_F(ObsTest, CounterMergeExactUnderThreadPoolContention) {
  // N threads x M submissions x K increments on one shared counter id, all
  // through per-thread shards; the merged total must be exact. This is the
  // test TSan watches for shard races.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 100;
  const auto id = obs::registry().counter("test.contended");
  const auto hist = obs::registry().histogram("test.contended_hist");
  {
    util::ThreadPool pool(kWorkers);
    for (std::size_t t = 0; t < kTasks; ++t)
      pool.submit([id, hist] {
        for (std::uint64_t i = 0; i < kPerTask; ++i) {
          obs::registry().add(id, 1);
          obs::registry().observe(hist, i);
        }
      });
    pool.wait();
  }
  EXPECT_EQ(obs::registry().counter_value("test.contended"), kTasks * kPerTask);

  const auto snap = obs::registry().histogram_snapshot("test.contended_hist");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->count, kTasks * kPerTask);
  EXPECT_EQ(snap->max, kPerTask - 1);

  // The per-thread split must account for every increment: worker shards
  // plus the "retired" accumulator (the pool's threads have exited by now).
  const auto full = obs::registry().snapshot();
  std::uint64_t split_total = 0;
  for (const auto& [tid, counters] : full.per_thread_counters)
    for (const auto& [name, value] : counters)
      if (name == "test.contended") split_total += value;
  EXPECT_EQ(split_total, kTasks * kPerTask);
}

TEST_F(ObsTest, SpanNestingRecordsDepthAndContainment) {
  {
    OBS_SPAN("obs_test.outer");
    { OBS_SPAN("obs_test.inner"); }
    { OBS_SPAN("obs_test.inner"); }
  }
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 3u);

  const obs::TraceEvent* outer = nullptr;
  std::vector<const obs::TraceEvent*> inner;
  for (const auto& e : events) {
    if (std::string(e.name) == "obs_test.outer") outer = &e;
    if (std::string(e.name) == "obs_test.inner") inner.push_back(&e);
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_EQ(inner.size(), 2u);

  EXPECT_EQ(outer->depth, 0u);
  for (const auto* e : inner) {
    EXPECT_EQ(e->depth, 1u);
    EXPECT_EQ(e->tid, outer->tid);
    // Containment on the steady clock: inner spans start no earlier and
    // end no later than the outer span.
    EXPECT_GE(e->ts_ns, outer->ts_ns);
    EXPECT_LE(e->ts_ns + e->dur_ns, outer->ts_ns + outer->dur_ns);
  }
  // The two sibling inner spans are disjoint and ordered.
  EXPECT_LE(inner[0]->ts_ns + inner[0]->dur_ns, inner[1]->ts_ns);

  // Span durations are mirrored into "span.<name>" histograms.
  const auto mirrored = obs::registry().histogram_snapshot(
      "span.obs_test.inner");
  ASSERT_TRUE(mirrored.has_value());
  EXPECT_EQ(mirrored->count, 2u);
}

TEST_F(ObsTest, SpansFromPoolWorkersCarryDistinctThreadIds) {
  {
    util::ThreadPool pool(2);
    for (int t = 0; t < 8; ++t)
      pool.submit([] { OBS_SPAN("obs_test.worker"); });
    pool.wait();
  }
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 8u);
  for (const auto& e : events) EXPECT_EQ(e.depth, 0u);
}

TEST_F(ObsTest, DisabledPathRecordsNothing) {
  obs::set_enabled(false);
  OBS_COUNT("test.disabled_counter", 5);
  OBS_GAUGE_SET("test.disabled_gauge", 5);
  OBS_HIST("test.disabled_hist", 5);
  { OBS_SPAN("obs_test.disabled"); }

  EXPECT_EQ(obs::registry().counter_value("test.disabled_counter"), 0u);
  EXPECT_EQ(obs::registry().gauge_value("test.disabled_gauge"), 0);
  EXPECT_FALSE(
      obs::registry().histogram_snapshot("test.disabled_hist").has_value());
  EXPECT_TRUE(obs::trace_events().empty());
}

TEST_F(ObsTest, SpanOpenAcrossDisableStillCompletes) {
  // A span begun while enabled records even if the layer is switched off
  // before it closes — Span latches the decision at construction.
  {
    OBS_SPAN("obs_test.latched");
    obs::set_enabled(false);
  }
  EXPECT_EQ(obs::trace_events().size(), 1u);
}

TEST_F(ObsTest, ProcessGaugesAreMaintainedEvenWhenDisabled) {
  // bench_util.hpp stamps BENCH_*.json from these with the layer off.
  obs::set_enabled(false);
  obs::update_process_gauges();
  EXPECT_GT(obs::peak_rss_kb(), 0);
  EXPECT_GT(obs::registry().gauge_value("process.peak_rss_kb"), 0);
  EXPECT_GE(obs::process_wall_ms(), 0.0);
}

// --- JSON round-trip --------------------------------------------------

// Minimal recursive-descent JSON well-formedness check. util::Json is a
// writer only, so structural validation lives here; the CI smoke step
// additionally runs the real `python3 -m json.tool` over the same files.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST_F(ObsTest, JsonScannerSelfCheck) {
  EXPECT_TRUE(JsonScanner(R"({"a": [1, 2.5, -3], "b": {"c": null}})").valid());
  EXPECT_TRUE(JsonScanner(R"(["x", true, false])").valid());
  EXPECT_FALSE(JsonScanner(R"({"a": )").valid());
  EXPECT_FALSE(JsonScanner(R"({"a": 1,})").valid());
  EXPECT_FALSE(JsonScanner("{} trailing").valid());
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

// The paper's Fig. 1a/Fig. 2 running example, inline so the test needs no
// data-dir plumbing (same spec as data/fig2.flow).
constexpr const char* kFig2Spec = R"(
message ReqE 1 IP1 -> Dir
message GntE 1 Dir -> IP1
message Ack  1 IP1 -> Dir

flow CacheCoherence {
  state n initial
  state w
  state c atomic
  state d stop
  n -> w on ReqE
  w -> c on GntE
  c -> d on Ack
}
)";

TEST_F(ObsTest, SessionRoundTripEmitsValidTraceAndMetricsJson) {
  // Session::configure must turn the layer on by itself.
  obs::set_enabled(false);

  const std::string trace_path = ::testing::TempDir() + "/obs_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "/obs_metrics.json";

  auto session = Session::from_spec_text(kFig2Spec);
  selection::SelectorConfig cfg;
  cfg.buffer_width = 2;
  cfg.mode = selection::SearchMode::kMaximal;  // the step1/step2 spans
  cfg.trace_out = trace_path;
  cfg.metrics_out = metrics_path;
  session.configure(cfg);
  EXPECT_TRUE(obs::enabled());

  session.interleave(2);
  const auto result = session.select();
  EXPECT_FALSE(result.combination.messages.empty());
  ASSERT_TRUE(session.write_observability());

  const std::string trace = slurp(trace_path);
  const std::string metrics = slurp(metrics_path);
  ASSERT_FALSE(trace.empty());
  ASSERT_FALSE(metrics.empty());
  EXPECT_TRUE(JsonScanner(trace).valid()) << trace;
  EXPECT_TRUE(JsonScanner(metrics).valid()) << metrics;

  // Chrome trace-event shape plus the pipeline's top-level span names.
  // "flow.parse" is absent here by design: the spec was parsed at session
  // construction, before configure() switched the layer on (the CLI
  // enables obs before dispatch, so its traces do include the parse).
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  for (const char* span :
       {"interleave.stats", "session.interleave",
        "selection.step1.enumerate", "selection.step2.score",
        "session.select"})
    EXPECT_NE(trace.find(std::string("\"name\": \"") + span + "\""),
              std::string::npos)
        << "missing span " << span << " in " << trace;

  EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.find("\"span.interleave.stats\""), std::string::npos);
  EXPECT_NE(metrics.find("\"selection.combinations\""), std::string::npos);

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST_F(ObsTest, SearchCountersMatchTheWorkDone) {
  auto session = Session::from_spec_text(kFig2Spec);
  session.interleave(2);
  const selection::MessageSelector selector(session.catalog(),
                                            session.stats());
  const auto count = [](const char* name) {
    return obs::registry().counter_value(name);
  };

  // Every scored combination is one gain evaluation, whatever the job
  // count.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    obs::reset();
    selection::SelectorConfig cfg;
    cfg.buffer_width = 2;
    cfg.mode = selection::SearchMode::kMaximal;
    cfg.jobs = jobs;
    (void)selector.select(cfg);
    EXPECT_GT(count("selection.combinations"), 0u);
    EXPECT_GE(count("selection.gain.evals"), count("selection.combinations"));
  }

  // The knapsack DP fills one cell per candidate and width 0..buffer.
  obs::reset();
  selection::SelectorConfig cfg;
  cfg.buffer_width = 2;
  (void)selector.select(cfg);
  EXPECT_EQ(count("selection.knapsack.cells"),
            selector.candidates().size() * 3);
  EXPECT_EQ(count("selection.combinations"), 0u);
}

TEST_F(ObsTest, WriteObservabilityIsNoOpWithoutSinks) {
  auto session = Session::from_spec_text(kFig2Spec);
  EXPECT_TRUE(session.write_observability());
}

TEST_F(ObsTest, MetricsJsonContainsPerThreadSplit) {
  OBS_COUNT("test.split", 2);
  const auto json = obs::metrics_json().dump(2);
  EXPECT_TRUE(JsonScanner(json).valid()) << json;
  EXPECT_NE(json.find("\"per_thread_counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.split\""), std::string::npos);
}

// --- cross-process telemetry ------------------------------------------

obs::HistogramSnapshot make_hist(const std::string& name,
                                 std::vector<std::uint64_t> values) {
  obs::HistogramSnapshot h;
  h.name = name;
  h.buckets.assign(obs::kHistogramBuckets, 0);
  h.min = ~std::uint64_t{0};
  for (const std::uint64_t v : values) {
    ++h.count;
    h.sum += v;
    h.min = std::min(h.min, v);
    h.max = std::max(h.max, v);
    ++h.buckets[obs::histogram_bucket(v)];
  }
  if (h.count == 0) h.min = 0;  // snapshot convention: 0 when empty
  return h;
}

TEST_F(ObsTest, MergeHistogramEmptyPlusNonEmptyKeepsExactMinMax) {
  // The empty side's sentinel min (0 in the snapshot convention) must not
  // leak: empty ⊕ {5, 9} has min 5, not 0 — in both merge directions.
  obs::HistogramSnapshot empty = make_hist("h", {});
  const obs::HistogramSnapshot filled = make_hist("h", {5, 9});

  obs::HistogramSnapshot into = empty;
  obs::merge_histogram(into, filled);
  EXPECT_EQ(into.count, 2u);
  EXPECT_EQ(into.sum, 14u);
  EXPECT_EQ(into.min, 5u);
  EXPECT_EQ(into.max, 9u);

  into = filled;
  obs::merge_histogram(into, empty);
  EXPECT_EQ(into.count, 2u);
  EXPECT_EQ(into.min, 5u);
  EXPECT_EQ(into.max, 9u);

  // empty ⊕ empty stays the empty snapshot.
  into = empty;
  obs::merge_histogram(into, empty);
  EXPECT_EQ(into.count, 0u);
  EXPECT_EQ(into.min, 0u);
  EXPECT_EQ(into.max, 0u);
}

TEST_F(ObsTest, MergeHistogramSumsBucketsIncludingOverflow) {
  // Values at the top of the range land in the final (overflow) bucket 64
  // and must merge by addition like every other bucket.
  const std::uint64_t huge = ~std::uint64_t{0};
  obs::HistogramSnapshot a = make_hist("h", {0, 1, huge});
  const obs::HistogramSnapshot b = make_hist("h", {3, huge, huge - 1});
  obs::merge_histogram(a, b);
  EXPECT_EQ(a.count, 6u);
  EXPECT_EQ(a.min, 0u);
  EXPECT_EQ(a.max, huge);
  EXPECT_EQ(a.buckets[0], 1u);                            // 0
  EXPECT_EQ(a.buckets[1], 1u);                            // 1
  EXPECT_EQ(a.buckets[2], 1u);                            // 3
  EXPECT_EQ(a.buckets[obs::kHistogramBuckets - 1], 3u);   // huge x3
  std::uint64_t total = 0;
  for (const auto c : a.buckets) total += c;
  EXPECT_EQ(total, a.count);
}

TEST_F(ObsTest, MergeMetricsSumsCountersMaxesGauges) {
  obs::MetricsSnapshot into;
  into.counters = {{"c.shared", 3}, {"c.only_into", 1}};
  into.gauges = {{"g.shared", 10}};
  into.histograms = {make_hist("h.shared", {2})};

  obs::MetricsSnapshot from;
  from.counters = {{"c.shared", 4}, {"c.only_from", 9}};
  from.gauges = {{"g.shared", 7}, {"g.only_from", -2}};
  from.histograms = {make_hist("h.shared", {8}), make_hist("h.new", {1})};

  obs::merge_metrics(into, from);
  auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& [n, v] : into.counters)
      if (n == name) return v;
    return ~std::uint64_t{0};
  };
  EXPECT_EQ(counter("c.shared"), 7u);
  EXPECT_EQ(counter("c.only_into"), 1u);
  EXPECT_EQ(counter("c.only_from"), 9u);
  // Gauges merge by max (high-water semantics across processes).
  EXPECT_EQ(into.gauges[0].second, 10);
  EXPECT_EQ(into.gauges[1].second, -2);
  ASSERT_EQ(into.histograms.size(), 2u);
  EXPECT_EQ(into.histograms[0].count, 2u);
  EXPECT_EQ(into.histograms[0].min, 2u);
  EXPECT_EQ(into.histograms[0].max, 8u);
}

TEST_F(ObsTest, TelemetryWireRoundTripPreservesEverything) {
  OBS_COUNT("test.rt_counter", 11);
  OBS_GAUGE_SET("test.rt_gauge", -4);
  OBS_HIST("test.rt_hist", 1000);
  {
    OBS_SPAN("obs_test.rt_outer");
    OBS_SPAN("obs_test.rt_inner");
  }
  obs::set_process_label("rt-worker");
  const obs::ProcessTelemetry sent = obs::capture_telemetry();
  ASSERT_GE(sent.events.size(), 2u);

  const std::string wire = obs::serialize_telemetry(sent);
  auto parsed = obs::parse_telemetry(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const obs::ProcessTelemetry& got = parsed.value();

  EXPECT_EQ(got.label, "rt-worker");
  EXPECT_EQ(got.pid, sent.pid);
  EXPECT_EQ(got.epoch_ns, sent.epoch_ns);
  auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& [n, v] : got.metrics.counters)
      if (n == name) return v;
    return 0;
  };
  EXPECT_EQ(counter("test.rt_counter"), 11u);

  bool found_gauge = false;
  for (const auto& [n, v] : got.metrics.gauges)
    if (n == "test.rt_gauge") {
      found_gauge = true;
      EXPECT_EQ(v, -4);
    }
  EXPECT_TRUE(found_gauge);

  bool found_hist = false;
  for (const auto& h : got.metrics.histograms)
    if (h.name == "test.rt_hist") {
      found_hist = true;
      EXPECT_EQ(h.count, 1u);
      EXPECT_EQ(h.sum, 1000u);
      EXPECT_EQ(h.min, 1000u);
      EXPECT_EQ(h.max, 1000u);
      ASSERT_EQ(h.buckets.size(), obs::kHistogramBuckets);
      EXPECT_EQ(h.buckets[obs::histogram_bucket(1000)], 1u);
    }
  EXPECT_TRUE(found_hist);

  ASSERT_EQ(got.events.size(), sent.events.size());
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    EXPECT_EQ(got.events[i].name, std::string(sent.events[i].name));
    EXPECT_EQ(got.events[i].ts_ns, sent.events[i].ts_ns);
    EXPECT_EQ(got.events[i].dur_ns, sent.events[i].dur_ns);
    EXPECT_EQ(got.events[i].span_id, sent.events[i].span_id);
    EXPECT_EQ(got.events[i].parent_id, sent.events[i].parent_id);
    EXPECT_EQ(got.events[i].depth, sent.events[i].depth);
  }
}

TEST_F(ObsTest, TelemetryParserRejectsMalformedInputWithTypedErrors) {
  OBS_COUNT("test.reject", 1);
  { OBS_SPAN("obs_test.reject"); }
  const std::string wire = obs::serialize_telemetry(obs::capture_telemetry());

  // Wrong envelope tag / empty input.
  EXPECT_FALSE(obs::parse_telemetry("").ok());
  EXPECT_FALSE(obs::parse_telemetry("not a telemetry frame").ok());

  // Version skew: a future version must be rejected, not misparsed.
  std::string skewed = wire;
  const std::size_t vpos = skewed.find(" 1 ");
  ASSERT_NE(vpos, std::string::npos);
  skewed.replace(vpos, 3, " 2 ");
  EXPECT_FALSE(obs::parse_telemetry(skewed).ok());

  // Checksum corruption (flip a payload byte).
  std::string corrupt = wire;
  corrupt[corrupt.size() - 3] ^= 0x01;
  EXPECT_FALSE(obs::parse_telemetry(corrupt).ok());

  // Fuzz-style truncation sweep: every proper prefix must be rejected
  // without crashing (kParse or kCorruptCapture, never a throw).
  for (std::size_t len = 0; len < wire.size();
       len += std::max<std::size_t>(1, wire.size() / 97))
    EXPECT_FALSE(obs::parse_telemetry(wire.substr(0, len)).ok())
        << "prefix of length " << len << " unexpectedly parsed";
}

TEST_F(ObsTest, AdoptRemoteTelemetryRebasesOntoLocalEpochAndMergesLanes) {
  OBS_COUNT("test.adopt", 5);

  obs::ProcessTelemetry remote;
  remote.label = "fake-worker";
  remote.pid = 4242;
  // Remote epoch 1 ms *after* ours (it started later on the shared steady
  // clock): its timestamps rebase forward by the difference.
  remote.epoch_ns = obs::trace_epoch_ns() + 1'000'000;
  remote.metrics.counters = {{"test.adopt", 7}, {"test.remote_only", 2}};
  obs::WireTraceEvent ev;
  ev.name = "remote.unit";
  ev.ts_ns = 500;
  ev.dur_ns = 100;
  ev.span_id = 0xABC;
  ev.parent_id = 0xDEF;
  remote.events.push_back(ev);
  obs::adopt_remote_telemetry(remote);

  auto lanes = obs::adopted_telemetry();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].label, "fake-worker");
  EXPECT_EQ(lanes[0].epoch_ns, obs::trace_epoch_ns());
  ASSERT_EQ(lanes[0].events.size(), 1u);
  EXPECT_EQ(lanes[0].events[0].ts_ns, 500u + 1'000'000u);

  // Same (pid, label) adopts again: merged into the same lane, counters
  // summed, events appended.
  obs::adopt_remote_telemetry(remote);
  lanes = obs::adopted_telemetry();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].events.size(), 2u);

  // Aggregated metrics JSON = local + all remote lanes, with a
  // per-process breakout.
  const std::string metrics = obs::metrics_json().dump(2);
  EXPECT_TRUE(JsonScanner(metrics).valid()) << metrics;
  EXPECT_NE(metrics.find("\"test.adopt\": 19"), std::string::npos)
      << metrics;  // 5 local + 7 + 7 remote
  EXPECT_NE(metrics.find("\"test.remote_only\": 4"), std::string::npos);
  EXPECT_NE(metrics.find("\"per_process\""), std::string::npos);
  EXPECT_NE(metrics.find("\"fake-worker #4242\""), std::string::npos);

  // The Chrome trace grows one lane per adopted process, and the remote
  // events carry their span/parent ids.
  const std::string trace = obs::chrome_trace_json().dump(2);
  EXPECT_TRUE(JsonScanner(trace).valid());
  EXPECT_NE(trace.find("\"fake-worker #4242\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"remote.unit\""), std::string::npos);
  EXPECT_NE(trace.find("\"0xabc\""), std::string::npos);

  // reset() clears adopted lanes.
  obs::reset();
  EXPECT_TRUE(obs::adopted_telemetry().empty());
}

TEST_F(ObsTest, TraceContextParentsThreadRootSpans) {
  // With no context installed, ensure_trace_context mints a nonzero id
  // and is idempotent.
  EXPECT_EQ(obs::trace_context().trace_id, 0u);
  const auto ctx = obs::ensure_trace_context();
  EXPECT_NE(ctx.trace_id, 0u);
  EXPECT_EQ(obs::ensure_trace_context().trace_id, ctx.trace_id);

  // A remote process installs the coordinator's context: its thread-root
  // spans parent under the coordinator's span id.
  obs::set_trace_context({ctx.trace_id, 0x1234});
  std::uint64_t outer_id = 0;
  {
    obs::Span outer("obs_test.ctx_root");
    outer_id = outer.id();
    EXPECT_EQ(obs::current_span_id(), outer_id);
    { obs::Span inner("obs_test.ctx_child"); }
  }
  const auto events = obs::trace_events();
  const obs::TraceEvent* root = nullptr;
  const obs::TraceEvent* child = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "obs_test.ctx_root") root = &e;
    if (std::string(e.name) == "obs_test.ctx_child") child = &e;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(root->parent_id, 0x1234u);
  EXPECT_EQ(child->parent_id, outer_id);
  EXPECT_NE(root->span_id, 0u);

  // The context survives reset() (values clear, identity does not).
  obs::reset();
  EXPECT_EQ(obs::trace_context().trace_id, ctx.trace_id);
  obs::set_trace_context({});  // leave no context for the next test
}

TEST_F(ObsTest, PrometheusTextExposesCountersAndCumulativeBuckets) {
  OBS_COUNT("test.prom_counter", 3);
  OBS_GAUGE_SET("test.prom_gauge", 9);
  OBS_HIST("test.prom_hist", 4);
  OBS_HIST("test.prom_hist", 90);
  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("tracesel_test_prom_counter 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("tracesel_test_prom_gauge 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tracesel_test_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("tracesel_test_prom_hist_count 2"), std::string::npos);
  EXPECT_NE(text.find("tracesel_test_prom_hist_sum 94"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
  // Cumulative le buckets: the bucket holding 4 ([4,8) -> le 7) already
  // counts it, and every later bucket includes it too.
  EXPECT_NE(text.find("le=\"7\"} 1"), std::string::npos) << text;
}

}  // namespace
}  // namespace tracesel
