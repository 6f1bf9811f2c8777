// traceseld end to end: the framed Unix-socket protocol, concurrent
// multi-tenant jobs over one shared workload cache, cancellation and
// deadlines, malformed-input rejection, and drain-and-exit.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "debug/serialize.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "tracesel/query_core.hpp"
#include "util/framing.hpp"
#include "util/obs.hpp"

namespace tracesel::service {
namespace {

JobRequest fig2_request(std::uint32_t buffer_width = 2) {
  JobRequest req;
  req.spec = std::string(TRACESEL_DATA_DIR) + "/fig2.flow";
  req.instances = 2;
  req.buffer_width = buffer_width;
  return req;
}

/// A live daemon on a fresh /tmp socket; the destructor drains it and
/// asserts the drain exited cleanly.
struct Daemon {
  explicit Daemon(std::size_t runners = 2, std::size_t max_frame = 16u << 20) {
    static std::atomic<int> counter{0};
    ServerOptions opt;
    opt.socket_path = "/tmp/tsvc_" + std::to_string(::getpid()) + "_" +
                      std::to_string(counter.fetch_add(1)) + ".sock";
    opt.runners = runners;
    opt.max_frame_bytes = max_frame;
    shutdown = opt.shutdown;
    path = opt.socket_path;
    server = std::make_unique<Server>(std::move(opt));
    const auto st = server->start();
    if (!st.ok()) throw std::runtime_error(st.error().to_string());
    thread = std::thread([this] { exit_code = server->serve(); });
  }
  ~Daemon() { stop(); }
  void stop() {
    if (!thread.joinable()) return;
    shutdown.cancel();
    thread.join();
    EXPECT_EQ(exit_code, 0);
  }
  Client connect() {
    auto c = Client::connect(path);
    EXPECT_TRUE(c.ok()) << (c.ok() ? "" : c.error().to_string());
    return std::move(c).value();
  }

  std::string path;
  util::CancelToken shutdown;
  std::unique_ptr<Server> server;
  std::thread thread;
  int exit_code = -1;
};

/// Raw byte-level connection for protocol-abuse tests.
int raw_connect(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Reads until EOF (the server hangs up after a corrupt frame).
std::string read_until_eof(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

TEST(Service, PingAndStats) {
  Daemon daemon;
  Client client = daemon.connect();
  EXPECT_TRUE(client.ping().ok());
  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_NE(stats.value().find("\"jobs.submitted\": 0"), std::string::npos);
  EXPECT_NE(stats.value().find("\"result.hits\": 0"), std::string::npos);
  EXPECT_NE(stats.value().find("\"result.misses\": 0"), std::string::npos);
}

TEST(Service, SubmitMatchesDirectComputeAndSecondIsCacheHit) {
  Daemon daemon;
  Client client = daemon.connect();

  const JobRequest req = fig2_request();
  std::vector<std::string> events;
  const auto first = client.submit(
      req, {}, [&](std::string_view status, std::uint64_t) {
        events.emplace_back(status);
      });
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().status, "ok");
  EXPECT_FALSE(first.value().cache_hit);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front(), "queued");

  // The daemon's report bytes are exactly the single-process compute's.
  const auto direct = QueryCore::run(req, nullptr, {});
  ASSERT_TRUE(direct.ok());
  const std::string expected =
      selection::to_json(*direct.value().workload->catalog,
                         *direct.value().result)
          .dump(2);
  EXPECT_EQ(first.value().report_json, expected);

  // An identical job — even from a new connection — is a result cache hit
  // with the same bytes.
  Client other = daemon.connect();
  const auto second = other.submit(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(second.value().report_json, expected);

  const auto s = daemon.server->stats();
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.result_hits, 1u);
  EXPECT_EQ(s.result_misses, 1u);
}

TEST(Service, ConcurrentClientsMixedDeadlinesAndCancels) {
  Daemon daemon(/*runners=*/4);
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> status(kClients);
  std::vector<std::string> report(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client = daemon.connect();
      // Three tenant profiles: plain (shares one cache entry with every
      // other plain client), tight deadline, and client-side cancel.
      JobRequest req = fig2_request(i % 4 == 1 ? 3 : 2);
      util::CancelToken cancel;
      if (i % 4 == 2) req.deadline_ms = 1;
      if (i % 4 == 3)
        cancel = util::CancelToken::after(std::chrono::milliseconds(1));
      const auto out = client.submit(req, cancel);
      ASSERT_TRUE(out.ok()) << out.error().to_string();
      status[i] = out.value().status;
      report[i] = out.value().report_json;
    });
  }
  for (auto& t : threads) t.join();

  std::string ok_report;
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(status[i] == "ok" || status[i] == "partial" ||
                status[i] == "cancelled")
        << "client " << i << ": " << status[i];
    if (i % 4 == 0 || i % 4 == 1) EXPECT_EQ(status[i], "ok");
    if (status[i] == "ok" && (i % 4) == 0) {
      if (ok_report.empty()) ok_report = report[i];
      // Identical requests agree byte for byte regardless of which runner
      // (or cache entry) served them.
      EXPECT_EQ(report[i], ok_report);
    }
  }
  const auto s = daemon.server->stats();
  // Concurrent identical submissions may attach to an in-flight twin
  // instead of queueing a duplicate; every client is one or the other.
  EXPECT_EQ(s.submitted + s.attached, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.running, 0u);
}

TEST(Service, MalformedFrameIsRejectedAndConnectionDropped) {
  Daemon daemon;
  const int fd = raw_connect(daemon.path);
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::write(fd, garbage, sizeof(garbage) - 1),
            static_cast<ssize_t>(sizeof(garbage) - 1));
  // The server answers with one well-formed error frame, then hangs up.
  const std::string bytes = read_until_eof(fd);
  ::close(fd);
  util::FrameReader reader;
  reader.feed(bytes);
  std::string payload;
  ASSERT_EQ(reader.next(payload), util::FrameReader::State::kFrame);
  const auto msg = parse_message(payload);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().type, MessageType::kError);
  EXPECT_NE(msg.value().text.find("protocol error"), std::string::npos);
  EXPECT_EQ(daemon.server->stats().protocol_errors, 1u);
}

TEST(Service, OversizedFrameIsRejected) {
  Daemon daemon(/*runners=*/1, /*max_frame=*/1024);
  const int fd = raw_connect(daemon.path);
  const std::string wire = util::encode_frame(std::string(4096, 'x'));
  ASSERT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  const std::string bytes = read_until_eof(fd);
  ::close(fd);
  util::FrameReader reader;
  reader.feed(bytes);
  std::string payload;
  ASSERT_EQ(reader.next(payload), util::FrameReader::State::kFrame);
  const auto msg = parse_message(payload);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().type, MessageType::kError);
}

TEST(Service, BadJobRequestKeepsTheConnectionUsable) {
  Daemon daemon;
  const int fd = raw_connect(daemon.path);
  // A well-framed submit whose body is not a JobRequest: a typed error
  // frame, but no disconnect (the stream itself is intact).
  const std::string bad =
      util::encode_frame("tracesel-svc submit 1\nnot a job request\n");
  ASSERT_EQ(::write(fd, bad.data(), bad.size()),
            static_cast<ssize_t>(bad.size()));
  const std::string ping = util::encode_frame("tracesel-svc ping 1\n");
  ASSERT_EQ(::write(fd, ping.data(), ping.size()),
            static_cast<ssize_t>(ping.size()));

  util::FrameReader reader;
  char buf[4096];
  std::vector<MessageType> got;
  while (got.size() < 2) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    reader.feed(buf, static_cast<std::size_t>(n));
    std::string payload;
    while (reader.next(payload) == util::FrameReader::State::kFrame) {
      const auto msg = parse_message(payload);
      ASSERT_TRUE(msg.ok());
      got.push_back(msg.value().type);
    }
  }
  ::close(fd);
  EXPECT_EQ(got[0], MessageType::kError);
  EXPECT_EQ(got[1], MessageType::kPong);
}

TEST(Service, TelemetryVerbReportsJournalTenantsAndGauges) {
  Daemon daemon;
  Client client = daemon.connect();
  JobRequest req = fig2_request();
  req.tenant = "team-a";
  const auto out = client.submit(req);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().status, "ok");

  const auto telemetry = client.telemetry();
  ASSERT_TRUE(telemetry.ok()) << telemetry.error().to_string();
  const std::string& t = telemetry.value();
  // Gauges and accounting the live view is built from.
  for (const char* key :
       {"\"uptime_ms\"", "\"runners\"", "\"utilization\"", "\"queue.depth\"",
        "\"busy_ms\"", "\"slow_job_threshold_ms\"", "\"tenants\"",
        "\"journal\"", "\"slow_jobs\""})
    EXPECT_NE(t.find(key), std::string::npos) << "missing " << key << " in "
                                              << t;
  // The job's full lifecycle is in the journal, attributed to its tenant.
  EXPECT_NE(t.find("\"team-a\""), std::string::npos);
  for (const char* event :
       {"\"event\": \"queued\"", "\"event\": \"started\"",
        "\"event\": \"ok\""})
    EXPECT_NE(t.find(event), std::string::npos) << t;
}

TEST(Service, TracedJobShipsTelemetryParentedUnderClientSpan) {
  Daemon daemon;
  Client client = daemon.connect();
  JobRequest req = fig2_request();
  req.trace_id = 0xFACE;
  req.parent_span_id = 0xB00F;
  const auto out = client.submit(req);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().status, "ok");
  ASSERT_FALSE(out.value().telemetry.empty());

  auto parsed = obs::parse_telemetry(out.value().telemetry);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const obs::ProcessTelemetry& t = parsed.value();
  EXPECT_EQ(t.label, "traceseld");
  EXPECT_EQ(t.pid, static_cast<std::uint64_t>(::getpid()));

  // The job's root span parents under the span id the client stamped into
  // the request, and the per-job counter delta travels alongside.
  const obs::WireTraceEvent* job_span = nullptr;
  for (const auto& e : t.events)
    if (e.name == "svc.job") job_span = &e;
  ASSERT_NE(job_span, nullptr);
  EXPECT_EQ(job_span->parent_id, 0xB00Fu);
  EXPECT_NE(job_span->span_id, 0u);
  bool counted = false;
  for (const auto& [name, value] : t.metrics.counters)
    if (name == "svc.jobs") counted = value >= 1;
  EXPECT_TRUE(counted);

  // An untraced job ships no telemetry block.
  JobRequest plain = fig2_request(3);
  const auto second = client.submit(plain);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().telemetry.empty());

  obs::set_enabled(false);  // run_job enabled the layer one-way
  obs::reset();
}

TEST(Service, MalformedTelemetryFramesRejectedWithoutKillingConnection) {
  Daemon daemon;
  const int fd = raw_connect(daemon.path);
  // Version skew, a truncated verb and a junk body: each gets a typed
  // error frame, and the connection stays usable throughout.
  const std::string skew = util::encode_frame("tracesel-svc telemetry 2\n");
  const std::string truncated = util::encode_frame("tracesel-svc telemetr");
  const std::string junk =
      util::encode_frame("not-tracesel-svc telemetry 1\n");
  for (const std::string* frame : {&skew, &truncated, &junk})
    ASSERT_EQ(::write(fd, frame->data(), frame->size()),
              static_cast<ssize_t>(frame->size()));
  const std::string good = util::encode_frame("tracesel-svc telemetry 1\n");
  ASSERT_EQ(::write(fd, good.data(), good.size()),
            static_cast<ssize_t>(good.size()));

  util::FrameReader reader;
  char buf[65536];
  std::vector<Message> got;
  while (got.size() < 4) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    reader.feed(buf, static_cast<std::size_t>(n));
    std::string payload;
    while (reader.next(payload) == util::FrameReader::State::kFrame) {
      auto msg = parse_message(payload);
      ASSERT_TRUE(msg.ok());
      got.push_back(std::move(msg).value());
    }
  }
  ::close(fd);
  EXPECT_EQ(got[0].type, MessageType::kError);
  EXPECT_EQ(got[1].type, MessageType::kError);
  EXPECT_EQ(got[2].type, MessageType::kError);
  EXPECT_EQ(got[3].type, MessageType::kTelemetryResult);
  EXPECT_NE(got[3].text.find("\"journal\""), std::string::npos);
  // Protocol errors were counted, and the daemon is still healthy.
  EXPECT_GE(daemon.server->stats().protocol_errors, 3u);
  Client client = daemon.connect();
  EXPECT_TRUE(client.ping().ok());
}

TEST(Service, ResultFrameTelemetryBlockRoundTripsThroughProtocol) {
  // encode_result/parse_message round-trip of the telemetry block, plus
  // version-1 compatibility: a result without the block parses with an
  // empty telemetry string.
  JobOutcome out;
  out.job_id = 9;
  out.status = "ok";
  out.report_json = "{}";
  out.metrics_json = "{}";
  out.telemetry = "tracesel-telemetry 1 0badc0de\nopaque payload\n";
  auto msg = parse_message(encode_result(out));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().outcome.telemetry, out.telemetry);

  out.telemetry.clear();
  msg = parse_message(encode_result(out));
  ASSERT_TRUE(msg.ok());
  EXPECT_TRUE(msg.value().outcome.telemetry.empty());
}

TEST(Service, StopFrameDrainsTheDaemon) {
  Daemon daemon;
  {
    Client client = daemon.connect();
    EXPECT_TRUE(client.stop().ok());
  }
  daemon.thread.join();
  EXPECT_EQ(daemon.exit_code, 0);
  // A second stop() on the fixture is a no-op (thread already joined).
}

TEST(Service, DisconnectCancelsTheInflightJob) {
  Daemon daemon;
  {
    // Submit a job and vanish without reading the result.
    const int fd = raw_connect(daemon.path);
    JobRequest req = fig2_request();
    const std::string wire = util::encode_frame(encode_submit(req));
    ASSERT_EQ(::write(fd, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    ::close(fd);
  }
  // The daemon must stay healthy: the job finishes or is cancelled, and a
  // new client gets served. (Drain on teardown would hang otherwise.)
  for (int i = 0; i < 100; ++i) {
    const auto s = daemon.server->stats();
    if (s.completed + s.cancelled + s.partial + s.errors >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Client client = daemon.connect();
  EXPECT_TRUE(client.ping().ok());
}

}  // namespace
}  // namespace tracesel::service
