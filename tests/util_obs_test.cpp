// tracesel::obs unit tests (DESIGN.md §10): registry merge correctness
// under multi-thread contention, span nesting/ordering, the metrics JSON's
// span totals against the trace events, the disabled fast path, and a
// round-trip through QueryCore that checks the written trace and metrics
// files are well-formed JSON carrying the expected top-level span names.
// The contention tests are the ones scripts/check.sh re-runs under
// ThreadSanitizer.

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "debug/serialize.hpp"
#include "tracesel/tracesel.hpp"
#include "util/framing.hpp"
#include "util/obs.hpp"

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

struct SpanTotal {
  std::uint64_t count = 0;
  double total_ms = -1;  ///< -1 when the name is absent
};

/// The entry of span `name` in a metrics JSON's "spans" block.
SpanTotal span_entry(const std::string& metrics, const std::string& name) {
  const std::size_t block = metrics.find("\"spans\": {");
  if (block == std::string::npos) return {};
  const std::size_t at = metrics.find("\"" + name + "\": {", block);
  if (at == std::string::npos) return {};
  const std::size_t count = metrics.find("\"count\": ", at);
  const std::size_t total = metrics.find("\"total_ms\": ", at);
  return {std::strtoull(metrics.c_str() + count + 9, nullptr, 10),
          std::strtod(metrics.c_str() + total + 12, nullptr)};
}

/// Per-name count and summed duration of the events the Chrome trace
/// writes: this process's and every adopted lane's.
std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
trace_span_totals() {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> totals;
  for (const obs::TraceEvent& e : obs::trace_events()) {
    ++totals[e.name].first;
    totals[e.name].second += e.dur_ns;
  }
  for (const obs::ProcessTelemetry& lane : obs::adopted_telemetry())
    for (const obs::WireTraceEvent& e : lane.events) {
      ++totals[e.name].first;
      totals[e.name].second += e.dur_ns;
    }
  return totals;
}

/// The "spans" block has one entry per traced name, equal to its totals.
void expect_spans_match_trace(const std::string& metrics) {
  const auto totals = trace_span_totals();
  ASSERT_FALSE(totals.empty());
  std::size_t entries = 0;
  for (std::size_t at = metrics.find("\"total_ms\""); at != std::string::npos;
       at = metrics.find("\"total_ms\"", at + 1))
    ++entries;
  EXPECT_EQ(entries, totals.size()) << metrics;
  for (const auto& [name, total] : totals) {
    const SpanTotal got = span_entry(metrics, name);
    EXPECT_EQ(got.count, total.first) << name << " in " << metrics;
    EXPECT_NEAR(got.total_ms, static_cast<double>(total.second) / 1e6,
                1e-9 + static_cast<double>(total.second) * 1e-18)
        << name;
  }
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

TEST_F(ObsTest, CounterMergeExactUnderThreadContention) {
  // N threads x M tasks x K increments on one shared counter id, all
  // through per-thread shards; the merged total must be exact. This is the
  // test TSan watches for shard races.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 100;
  const auto id = obs::registry().counter("test.contended");
  {
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w)
      workers.emplace_back([id] {
        for (std::size_t t = 0; t < kTasks / kWorkers; ++t)
          for (std::uint64_t i = 0; i < kPerTask; ++i)
            obs::registry().add(id, 1);
      });
    for (std::thread& t : workers) t.join();
  }
  EXPECT_EQ(obs::registry().counter_value("test.contended"), kTasks * kPerTask);
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

  // The metrics JSON counts both inner spans under their name.
  EXPECT_EQ(span_entry(obs::metrics_json().dump(2), "obs_test.inner").count,
            2u);
}

TEST_F(ObsTest, SpansFromPoolWorkersCarryDistinctThreadIds) {
  // A pool of two worker threads, four root spans each.
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w)
      workers.emplace_back([] {
        for (int t = 0; t < 4; ++t) { OBS_SPAN("obs_test.worker"); }
      });
    for (std::thread& t : workers) t.join();
  }
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 8u);
  std::set<std::uint32_t> tids;
  for (const auto& e : events) {
    EXPECT_EQ(e.depth, 0u);
    tids.insert(e.tid);
  }
  EXPECT_EQ(tids.size(), 2u);
}

TEST_F(ObsTest, DisabledPathRecordsNothing) {
  obs::set_enabled(false);
  OBS_COUNT("test.disabled_counter", 5);
  OBS_GAUGE_SET("test.disabled_gauge", 5);
  { OBS_SPAN("obs_test.disabled"); }

  EXPECT_EQ(obs::registry().counter_value("test.disabled_counter"), 0u);
  EXPECT_EQ(obs::registry().gauge_value("test.disabled_gauge"), 0);
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
  // The embedding recipe: enable the layer, run the pipeline through
  // QueryCore, write both sinks.
  const std::string trace_path = ::testing::TempDir() + "/obs_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "/obs_metrics.json";

  JobRequest req;
  req.spec_text = kFig2Spec;
  req.buffer_width = 2;
  req.mode = selection::SearchMode::kMaximal;  // the step1/step2 spans
  const auto run = QueryCore::run(req, nullptr, {});
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const selection::SelectionResult& result = *run.value().result;
  EXPECT_FALSE(result.combination.messages.empty());
  EXPECT_FALSE(
      selection::report_text(*run.value().workload->catalog, result).empty());
  obs::update_process_gauges();
  ASSERT_TRUE(obs::write_chrome_trace(trace_path));
  ASSERT_TRUE(obs::write_metrics(metrics_path));

  const std::string trace = slurp(trace_path);
  const std::string metrics = slurp(metrics_path);
  ASSERT_FALSE(trace.empty());
  ASSERT_FALSE(metrics.empty());
  EXPECT_TRUE(JsonScanner(trace).valid()) << trace;
  EXPECT_TRUE(JsonScanner(metrics).valid()) << metrics;

  // Chrome trace-event shape plus the pipeline's top-level span names.
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  for (const char* span :
       {"interleave.stats", "session.interleave",
        "selection.step1.enumerate", "selection.step2.score",
        "session.select", "selection.coverage", "report.serialize"})
    EXPECT_NE(trace.find(std::string("\"name\": \"") + span + "\""),
              std::string::npos)
        << "missing span " << span << " in " << trace;

  EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
  EXPECT_EQ(span_entry(metrics, "interleave.stats").count, 1u);
  EXPECT_NE(metrics.find("\"selection.combinations\""), std::string::npos);

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST_F(ObsTest, SearchCountersMatchTheWorkDone) {
  JobRequest req;
  req.spec_text = kFig2Spec;
  const auto run = QueryCore::run(req, nullptr, {});
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const selection::MessageSelector& selector = *run.value().workload->selector;
  const auto count = [](const char* name) {
    return obs::registry().counter_value(name);
  };

  // Every scored combination is one gain evaluation.
  obs::reset();
  selection::SelectorConfig cfg;
  cfg.buffer_width = 2;
  cfg.mode = selection::SearchMode::kMaximal;
  (void)selector.select(cfg);
  EXPECT_GT(count("selection.combinations"), 0u);
  EXPECT_GE(count("selection.gain.evals"), count("selection.combinations"));

  // The knapsack DP fills one cell per candidate and width 0..buffer.
  obs::reset();
  cfg.mode = selection::SearchMode::kKnapsack;
  (void)selector.select(cfg);
  EXPECT_EQ(count("selection.knapsack.cells"),
            selector.candidates().size() * 3);
  EXPECT_EQ(count("selection.combinations"), 0u);
}

// --- cross-process telemetry ------------------------------------------

TEST_F(ObsTest, MergeMetricsSumsCountersMaxesGauges) {
  obs::MetricsSnapshot into;
  into.counters = {{"c.shared", 3}, {"c.only_into", 1}};
  into.gauges = {{"g.shared", 10}};

  obs::MetricsSnapshot from;
  from.counters = {{"c.shared", 4}, {"c.only_from", 9}};
  from.gauges = {{"g.shared", 7}, {"g.only_from", -2}};

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
}

TEST_F(ObsTest, TelemetryNumbersMustFitTheirFields) {
  // Signed fields take a sign and reach their minimum; 32-bit fields stop
  // at 2^32 - 1; unsigned fields take no sign.
  const auto parse = [](const std::string& lines) {
    return obs::parse_telemetry(util::encode_envelope(
        "tracesel-telemetry", obs::kTelemetryVersion,
        "process p 1 " + lines + "end\n"));
  };
  auto ok = parse(
      "-9223372036854775808\ngauge g -9223372036854775808\n"
      "gauge h 9223372036854775807\nevent 1 2 4294967295 0 3 0 e\n");
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  EXPECT_EQ(ok.value().epoch_ns, INT64_MIN);
  ASSERT_EQ(ok.value().metrics.gauges.size(), 2u);
  EXPECT_EQ(ok.value().metrics.gauges[0].second, INT64_MIN);
  EXPECT_EQ(ok.value().metrics.gauges[1].second, INT64_MAX);
  ASSERT_EQ(ok.value().events.size(), 1u);
  EXPECT_EQ(ok.value().events[0].tid, UINT32_MAX);
  EXPECT_TRUE(parse("-0\n").ok());
  for (const char* bad :
       {"-9223372036854775809\n", "9223372036854775808\n", "+1\n", "-\n",
        "--1\n", "0\nevent 1 2 4294967296 0 3 0 e\n",
        "0\nevent 1 2 -1 0 3 0 e\n", "0\ncounter c -1\n"})
    EXPECT_FALSE(parse(bad).ok()) << bad;
}

TEST_F(ObsTest, TelemetryWireRoundTripPreservesEverything) {
  OBS_COUNT("test.rt_counter", 11);
  OBS_GAUGE_SET("test.rt_gauge", -4);
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
  const std::string version =
      " " + std::to_string(obs::kTelemetryVersion) + " ";
  const std::size_t vpos = skewed.find(version);
  ASSERT_NE(vpos, std::string::npos);
  skewed.replace(vpos, version.size(),
                 " " + std::to_string(obs::kTelemetryVersion + 1) + " ");
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
  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("# TYPE tracesel_test_prom_counter counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tracesel_test_prom_counter 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tracesel_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("tracesel_test_prom_gauge 9"), std::string::npos);
}

TEST_F(ObsTest, SpansBlockEqualsTheTraceEventsPerName) {
  {
    OBS_SPAN("obs_test.outer");
    { OBS_SPAN("obs_test.inner"); }
    { OBS_SPAN("obs_test.inner"); }
  }
  // A worker's events are folded into the retired buffer when it exits.
  std::thread([] {
    for (int i = 0; i < 3; ++i) { OBS_SPAN("obs_test.worker"); }
  }).join();
  const std::string metrics = obs::metrics_json().dump(2);
  EXPECT_TRUE(JsonScanner(metrics).valid()) << metrics;
  expect_spans_match_trace(metrics);
  EXPECT_EQ(span_entry(metrics, "obs_test.worker").count, 3u);
  EXPECT_EQ(span_entry(metrics, "obs_test.never").total_ms, -1);
  EXPECT_NE(metrics.find("\"spans_dropped\": 0"), std::string::npos);
}

TEST_F(ObsTest, SpansBlockCountsAdoptedLanes) {
  { OBS_SPAN("obs_test.shared"); }
  obs::ProcessTelemetry remote;
  remote.label = "fake-worker";
  remote.pid = 4242;
  remote.epoch_ns = obs::trace_epoch_ns();
  obs::WireTraceEvent ev;
  ev.name = "obs_test.shared";
  ev.ts_ns = 100;
  ev.dur_ns = 2'500'000;
  remote.events = {ev};
  ev.name = "remote.unit";
  ev.dur_ns = 700;
  remote.events.push_back(ev);
  obs::adopt_remote_telemetry(remote);
  remote.pid = 4343;  // a second lane
  obs::adopt_remote_telemetry(remote);

  const std::string metrics = obs::metrics_json().dump(2);
  EXPECT_TRUE(JsonScanner(metrics).valid()) << metrics;
  expect_spans_match_trace(metrics);
  EXPECT_EQ(span_entry(metrics, "obs_test.shared").count, 3u);
  EXPECT_EQ(span_entry(metrics, "remote.unit").count, 2u);
  EXPECT_NEAR(span_entry(metrics, "remote.unit").total_ms, 0.0014, 1e-12);
}

TEST_F(ObsTest, SpansPastThePerThreadCapAreReportedAsDropped) {
  // The buffer keeps 2^20 events per thread; the three past it are
  // dropped and counted, never recorded.
  constexpr std::uint64_t kCap = std::uint64_t{1} << 20;
  std::thread([] {
    for (std::uint64_t i = 0; i < kCap + 3; ++i) { OBS_SPAN("obs_test.flood"); }
  }).join();
  const std::string metrics = obs::metrics_json().dump(2);
  EXPECT_NE(metrics.find("\"spans_dropped\": 3"), std::string::npos)
      << metrics;
  EXPECT_EQ(span_entry(metrics, "obs_test.flood").count, kCap);
}

TEST_F(ObsTest, VersionOneTelemetryWithAHistLineFailsTyped) {
  // Version 1 carried span histograms on "hist" lines; version 2 has no
  // such line, so the old blob is refused by version, and its hist line
  // is refused by key under the current version.
  const std::string body =
      "process traceseld 1 0\nhist span.svc.job 1 5 5 5 3:1\nend\n";
  const auto v1 = obs::parse_telemetry(
      util::encode_envelope("tracesel-telemetry", 1, body));
  ASSERT_FALSE(v1.ok());
  EXPECT_EQ(v1.error().code, util::ErrorCode::kParse);
  EXPECT_NE(v1.error().message.find("version 1"), std::string::npos)
      << v1.error().to_string();
  const auto current = obs::parse_telemetry(util::encode_envelope(
      "tracesel-telemetry", obs::kTelemetryVersion, body));
  ASSERT_FALSE(current.ok());
  EXPECT_EQ(current.error().code, util::ErrorCode::kParse);
  EXPECT_NE(current.error().message.find("unknown key 'hist'"),
            std::string::npos)
      << current.error().to_string();
}

}  // namespace
}  // namespace tracesel
