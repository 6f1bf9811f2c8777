// The text boundary: every reader of protocol messages, job requests,
// journal records, telemetry and .flow text splits tokens, reads integers
// and takes length-prefixed blocks through util/framing. These tests pin
// the bytes the encoders write (goldens in tests/data/golden/) and feed
// every reader, and the frame stream around them, seeded byte mutations
// of valid inputs: bit flips, insertions, deletions and truncations.
// Each mutant must parse or fail with a typed error: never crash, throw
// an untyped exception or hang.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "flow/parser.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "tracesel/job_request.hpp"
#include "util/framing.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace tracesel {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string golden(const std::string& name) {
  return slurp(std::string(TRACESEL_GOLDEN_DIR) + "/" + name);
}

/// A fresh scratch directory, removed on destruction.
struct TempDir {
  TempDir() {
    static std::atomic<int> counter{0};
    path = "/tmp/tsel_text_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

/// The inputs the goldens were written from.
JobRequest golden_request() {
  JobRequest req;
  req.spec.clear();
  req.spec_text =
      "message A 4 X -> Y\nflow F {\n  state S initial\n  state T stop\n"
      "  S -> T on A\n}\n";
  req.instances = 2;
  req.buffer_width = 8;
  req.deadline_ms = 1500;
  req.trace_id = 7;
  req.parent_span_id = 9;
  req.tenant = "golden";
  return req;
}

service::JobOutcome golden_outcome() {
  service::JobOutcome o;
  o.status = "ok";
  o.job_id = 42;
  o.workload_cache_hit = true;
  o.elapsed_ms = 3;
  o.metrics_json = "{\"svc.jobs\": 1}";
  o.report_json = "{\n  \"gain\": 1.5\n}";
  o.telemetry = "tracesel-telemetry 1 0\nprocess traceseld 1 2\nend\n";
  return o;
}

/// The one payload a golden frame carries.
std::string frame_payload(const std::string& frame) {
  util::FrameReader reader;
  reader.feed(frame);
  std::string payload;
  EXPECT_EQ(reader.next(payload), util::FrameReader::State::kFrame);
  return payload;
}

// --- golden bytes ----------------------------------------------------------

TEST(TextBoundaryGolden, SubmitFrameWithInlineSpecText) {
  const JobRequest req = golden_request();
  const std::string frame = util::encode_frame(service::encode_submit(req));
  EXPECT_EQ(frame, golden("frame-submit.bin"));

  const auto msg = service::parse_message(frame_payload(frame));
  ASSERT_TRUE(msg.ok()) << msg.error().to_string();
  const JobRequest& back = msg.value().request;
  EXPECT_TRUE(back.same_computation(req));
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.trace_id, req.trace_id);
  EXPECT_EQ(back.parent_span_id, req.parent_span_id);
  EXPECT_EQ(back.tenant, req.tenant);
}

TEST(TextBoundaryGolden, ResultFrameWithTelemetryBlock) {
  const service::JobOutcome o = golden_outcome();
  const std::string frame = util::encode_frame(service::encode_result(o));
  EXPECT_EQ(frame, golden("frame-result.bin"));

  const auto msg = service::parse_message(frame_payload(frame));
  ASSERT_TRUE(msg.ok()) << msg.error().to_string();
  const service::JobOutcome& back = msg.value().outcome;
  EXPECT_EQ(back.status, o.status);
  EXPECT_EQ(back.job_id, o.job_id);
  EXPECT_EQ(back.cache_hit, o.cache_hit);
  EXPECT_EQ(back.workload_cache_hit, o.workload_cache_hit);
  EXPECT_EQ(back.elapsed_ms, o.elapsed_ms);
  EXPECT_EQ(back.metrics_json, o.metrics_json);
  EXPECT_EQ(back.report_json, o.report_json);
  EXPECT_EQ(back.telemetry, o.telemetry);
}

TEST(TextBoundaryGolden, ResultWithoutTelemetryBlockStillParses) {
  // Version-1 daemons end a result after its report block.
  std::string payload = service::encode_result(golden_outcome());
  const std::size_t block = payload.find("telemetry ");
  ASSERT_NE(block, std::string::npos);
  payload = payload.substr(0, block) + "end\n";
  const auto msg = service::parse_message(payload);
  ASSERT_TRUE(msg.ok()) << msg.error().to_string();
  EXPECT_TRUE(msg.value().outcome.telemetry.empty());
  EXPECT_EQ(msg.value().outcome.report_json, golden_outcome().report_json);
}

TEST(TextBoundaryGolden, CompletedJournalRecord) {
  TempDir tmp;
  service::JournalOptions opt;
  opt.dir = tmp.path;
  opt.fsync = false;
  const JobRequest req = golden_request();
  const std::string report = golden_outcome().report_json;
  {
    service::JobJournal journal;
    ASSERT_TRUE(journal.open(opt).ok());
    journal.completed(5, 0xfeedbeefull, req, report);
  }
  EXPECT_EQ(slurp(tmp.path + "/jobs.journal"),
            golden("journal-completed.bin"));

  service::JobJournal replayed;
  const auto rec = replayed.open(opt);
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  EXPECT_EQ(rec.value().dropped_records, 0u);
  EXPECT_EQ(rec.value().completed, 1u);
  const auto served = replayed.load_result(0xfeedbeefull, req);
  ASSERT_TRUE(served.ok()) << served.error().to_string();
  EXPECT_EQ(served.value(), report);
}

// --- seeded byte mutation ---------------------------------------------------

constexpr std::uint64_t kSeed = 2018;
constexpr int kMutantsPerInput = 2000;

/// One to four edits: flip a bit, insert a byte (biased to the bytes the
/// formats treat specially), delete a byte, or truncate.
std::string mutate(std::string s, util::Rng& rng) {
  static constexpr char kBytes[] = {' ', '\n', '\t', '\r', '\v', '-', '+',
                                    '0', '9',  '#',  '{',  'x', '\0'};
  const std::size_t edits = 1 + rng.index(4);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (rng.index(4)) {
      case 0:
        if (!s.empty())
          s[rng.index(s.size())] ^= static_cast<char>(1u << rng.index(8));
        break;
      case 1: {
        const char c = rng.index(2) == 0
                           ? kBytes[rng.index(sizeof(kBytes))]
                           : static_cast<char>(rng.index(256));
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                 rng.index(s.size() + 1)),
                 c);
        break;
      }
      case 2:
        if (!s.empty()) s.erase(rng.index(s.size()), 1);
        break;
      default:
        s.resize(rng.index(s.size() + 1));
        break;
    }
  }
  return s;
}

/// A typed failure names what went wrong.
template <typename T>
void expect_ok_or_typed(const util::Result<T>& r, const std::string& input) {
  if (!r.ok()) {
    EXPECT_FALSE(r.error().message.empty()) << input;
  }
}

std::vector<std::string> protocol_encodings() {
  using service::MessageType;
  std::vector<std::string> out = {
      service::encode_submit(golden_request()),
      service::encode_event("queued", 3),
      service::encode_result(golden_outcome()),
      service::encode_stats_result("{\"jobs.completed\": 2}"),
      service::encode_telemetry_result("{\"journal\": []}"),
      service::encode_error("job queue is full (1)"),
      service::encode_retry_after(50, "tenant 'acme' is at its cap"),
  };
  for (const MessageType t :
       {MessageType::kCancel, MessageType::kStats, MessageType::kTelemetry,
        MessageType::kStop, MessageType::kPing, MessageType::kPong,
        MessageType::kOk})
    out.push_back(service::encode_simple(t));
  return out;
}

TEST(TextBoundaryFuzz, EveryProtocolVerbParsesOrFailsTyped) {
  util::Rng rng(kSeed);
  for (const std::string& valid : protocol_encodings()) {
    const auto clean = service::parse_message(valid);
    ASSERT_TRUE(clean.ok()) << valid << clean.error().to_string();
    for (int i = 0; i < kMutantsPerInput; ++i) {
      const std::string m = mutate(valid, rng);
      EXPECT_NO_THROW(expect_ok_or_typed(service::parse_message(m), m));
    }
  }
}

TEST(TextBoundaryFuzz, FrameStreamYieldsFramesOrPoisons) {
  // The same encodings behind their TSELFRM1 headers, mutated as one byte
  // stream: the reader yields whole frames, waits for more, or reports
  // the stream corrupt; every frame it yields reaches parse_message.
  std::string stream;
  for (const std::string& p : protocol_encodings())
    stream += util::encode_frame(p);
  util::Rng rng(kSeed + 5);
  for (int i = 0; i < kMutantsPerInput; ++i) {
    util::FrameReader reader;
    reader.feed(mutate(stream, rng));
    std::string payload;
    util::FrameReader::State st;
    while ((st = reader.next(payload)) == util::FrameReader::State::kFrame)
      EXPECT_NO_THROW(
          expect_ok_or_typed(service::parse_message(payload), payload));
    if (st == util::FrameReader::State::kCorrupt) {
      EXPECT_FALSE(reader.corrupt_reason().empty());
    }
  }
}

TEST(TextBoundaryFuzz, JobEnvelopeParsesOrFailsTyped) {
  // Mutating the envelope mostly trips its checksum; re-sealing the
  // mutated payload reaches the field reader behind it.
  util::Rng rng(kSeed + 1);
  const std::string valid = serialize_job_request(golden_request());
  const auto payload = util::decode_envelope(valid, "tracesel-job",
                                             JobRequest::kVersion, "job");
  ASSERT_TRUE(payload.ok());
  for (int i = 0; i < 4 * kMutantsPerInput; ++i) {
    const std::string m =
        i % 4 == 0 ? mutate(valid, rng)
                   : util::encode_envelope(
                         "tracesel-job", JobRequest::kVersion,
                         mutate(std::string(payload.value()), rng));
    EXPECT_NO_THROW(expect_ok_or_typed(parse_job_request(m), m));
  }
}

TEST(TextBoundaryFuzz, TelemetryParsesOrFailsTyped) {
  obs::ProcessTelemetry t;
  t.label = "traceseld";
  t.pid = 4242;
  t.epoch_ns = -17;
  t.metrics.counters = {{"svc.jobs", 3}};
  t.metrics.gauges = {{"svc.queue.depth", -2}};
  obs::WireTraceEvent e;
  e.name = "svc.job with spaces";
  e.ts_ns = 10;
  e.dur_ns = 20;
  e.tid = 1;
  e.depth = 0;
  e.span_id = 5;
  e.parent_id = 0;
  t.events = {e};
  const std::string valid = obs::serialize_telemetry(t);
  const auto clean = obs::parse_telemetry(valid);
  ASSERT_TRUE(clean.ok()) << clean.error().to_string();
  ASSERT_EQ(clean.value().events.size(), 1u);
  EXPECT_EQ(clean.value().events[0].name, e.name);

  util::Rng rng(kSeed + 2);
  const auto payload = util::decode_envelope(valid, "tracesel-telemetry",
                                             obs::kTelemetryVersion, "t");
  ASSERT_TRUE(payload.ok());
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string m = util::encode_envelope(
        "tracesel-telemetry", obs::kTelemetryVersion,
        mutate(std::string(payload.value()), rng));
    EXPECT_NO_THROW(expect_ok_or_typed(obs::parse_telemetry(m), m));
  }
}

TEST(TextBoundaryFuzz, FlowSpecParsesOrThrowsParseError) {
  const std::string valid = slurp(std::string(TRACESEL_DATA_DIR) + "/fig2.flow");
  ASSERT_NO_THROW(flow::parse_flow_spec(valid));
  util::Rng rng(kSeed + 3);
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string m = mutate(valid, rng);
    try {
      (void)flow::parse_flow_spec(m);
    } catch (const flow::ParseError&) {
    }
    EXPECT_NO_THROW((void)flow::parse_flow_spec_lenient(m)) << m;
  }
}

TEST(TextBoundaryFuzz, JournalReplaySurvivesMutatedRecords) {
  // Valid frames around mutated record payloads: replay keeps every frame,
  // drops only the records it cannot read, and never truncates the log.
  TempDir tmp;
  service::JournalOptions opt;
  opt.dir = tmp.path;
  opt.fsync = false;
  const JobRequest req = golden_request();
  JobRequest other = golden_request();
  other.buffer_width = 16;
  {
    service::JobJournal journal;
    ASSERT_TRUE(journal.open(opt).ok());
    journal.accepted(1, req);
    journal.started(1);
    journal.completed(1, 0xfeedbeefull, req, golden_outcome().report_json);
    journal.accepted(2, other);
    journal.cancelled(2);
    journal.accepted(3, other);
    journal.completed(4, 0xabcull);
  }
  const std::string path = tmp.path + "/jobs.journal";
  std::vector<std::string> records;
  {
    util::FrameReader reader;
    reader.feed(slurp(path));
    std::string payload;
    while (reader.next(payload) == util::FrameReader::State::kFrame)
      records.push_back(payload);
  }
  ASSERT_EQ(records.size(), 7u);

  util::Rng rng(kSeed + 4);
  for (int i = 0; i < kMutantsPerInput; ++i) {
    std::string log;
    for (const std::string& r : records)
      log += util::encode_frame(rng.index(3) == 0 ? mutate(r, rng) : r);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << log;
    service::JobJournal journal;
    const auto rec = journal.open(opt);
    ASSERT_TRUE(rec.ok()) << rec.error().to_string();
    EXPECT_EQ(rec.value().dropped_bytes, 0u);
    EXPECT_GE(rec.value().replayed_records + rec.value().dropped_records,
              records.size());
    EXPECT_EQ(slurp(path), log);  // nothing truncated
    (void)journal.load_result(0xfeedbeefull, req);
  }
}

}  // namespace
}  // namespace tracesel
