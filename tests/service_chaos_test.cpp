// traceseld under fire: the write-ahead job journal's corruption-recovery
// contract (torn tails, flipped bytes, version skew, duplicate terminals,
// compaction), in-process restart replay and the durable result cache,
// admission-control backpressure (typed retry-after, per-tenant caps,
// hinted retries), client reconnect resilience, and the headline property:
// kill -9 the daemon at a seeded random moment, restart it on the same
// journal directory, and the resubmitted job's report is byte-identical
// to a single-process compute.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "debug/serialize.hpp"
#include "service/client.hpp"
#include "service/journal.hpp"
#include "service/server.hpp"
#include "tracesel/query_core.hpp"
#include "util/framing.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace tracesel::service {
namespace {

JobRequest fig2_request(std::uint32_t buffer_width = 2) {
  JobRequest req;
  req.spec = std::string(TRACESEL_DATA_DIR) + "/fig2.flow";
  req.instances = 2;
  req.buffer_width = buffer_width;
  // The serial maximal oracle rather than the default knapsack: recovery
  // must reproduce the exponential search's bytes too.
  req.mode = selection::SearchMode::kMaximal;
  return req;
}

/// The single-process reference bytes every recovery path must reproduce.
std::string reference_report(const JobRequest& req) {
  auto direct = QueryCore::run(req, nullptr, {});
  EXPECT_TRUE(direct.ok()) << (direct.ok() ? "" : direct.error().to_string());
  if (!direct.ok()) return {};
  return selection::to_json(*direct.value().workload->catalog,
                            *direct.value().result)
      .dump(2);
}

/// A fresh scratch directory per test, removed on destruction.
struct TempDir {
  TempDir() {
    static std::atomic<int> counter{0};
    path = "/tmp/tsel_chaos_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string sub(const std::string& name) const { return path + "/" + name; }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Journal options with fsync off: the corruption sweeps open the journal
/// hundreds of times and need no durability, only the record format.
JournalOptions fast_options(const std::string& dir,
                            std::uint64_t rotate_bytes = 0) {
  JournalOptions o;
  o.dir = dir;
  o.rotate_bytes = rotate_bytes;
  o.fsync = false;
  return o;
}

/// Byte offsets of the frame boundaries in a journal image (offset 0 plus
/// the end of each complete frame), via the same FrameReader the journal
/// replays with.
std::vector<std::size_t> frame_boundaries(const std::string& bytes) {
  std::vector<std::size_t> at{0};
  util::FrameReader reader;
  reader.feed(bytes);
  std::string payload;
  while (reader.next(payload) == util::FrameReader::State::kFrame)
    at.push_back(bytes.size() - reader.buffered());
  return at;
}

/// An in-process daemon with caller-controlled options; picks a fresh
/// /tmp socket unless the options name one.
struct Daemon {
  explicit Daemon(ServerOptions opt) {
    static std::atomic<int> counter{0};
    if (opt.socket_path.empty())
      opt.socket_path = "/tmp/tsvc_chaos_" + std::to_string(::getpid()) +
                        "_" + std::to_string(counter.fetch_add(1)) + ".sock";
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

// --- journal corruption contract ----------------------------------------

TEST(ServiceChaos, JournalRoundTripReplay) {
  TempDir tmp;
  const JobRequest a = fig2_request(2);
  const JobRequest b = fig2_request(4);
  {
    JobJournal j;
    auto rec = j.open(fast_options(tmp.sub("wal")));
    ASSERT_TRUE(rec.ok()) << rec.error().to_string();
    EXPECT_TRUE(rec.value().pending.empty());
    j.accepted(1, a);
    j.started(1);
    j.accepted(2, b);
    j.accepted(3, a);
    j.completed(3, 0xabcdef);
    j.close();
  }
  JobJournal j;
  auto rec = j.open(fast_options(tmp.sub("wal")));
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  const JournalRecovery& r = rec.value();
  ASSERT_EQ(r.pending.size(), 2u);
  EXPECT_EQ(r.pending[0].id, 1u);
  EXPECT_TRUE(r.pending[0].started);
  EXPECT_TRUE(r.pending[0].request.same_computation(a));
  EXPECT_EQ(r.pending[1].id, 2u);
  EXPECT_FALSE(r.pending[1].started);
  EXPECT_TRUE(r.pending[1].request.same_computation(b));
  EXPECT_EQ(r.completed, 1u);
  EXPECT_EQ(r.dropped_records, 0u);
  EXPECT_EQ(r.dropped_bytes, 0u);
  EXPECT_EQ(r.next_job_id, 4u);
}

TEST(ServiceChaos, TornTailTruncationSweep) {
  // Cut the journal at every byte offset; recovery must replay exactly the
  // frames fully inside the prefix, truncate the torn remainder in place,
  // and leave an appendable log. This is the kill -9 torn-write model.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  {
    JobJournal j;
    ASSERT_TRUE(j.open(fast_options(dir)).ok());
    j.accepted(1, fig2_request(2));
    j.accepted(2, fig2_request(4));
    j.completed(1, 0x1111);
    j.close();
  }
  const std::string pristine = slurp(dir + "/jobs.journal");
  ASSERT_GT(pristine.size(), 3 * util::kFrameHeaderBytes);
  const std::vector<std::size_t> bounds = frame_boundaries(pristine);
  ASSERT_EQ(bounds.size(), 4u);  // 0 + three frame ends

  for (std::size_t cut = 0; cut <= pristine.size(); cut += 3) {
    TempDir sweep;
    const std::string d = sweep.sub("wal");
    std::filesystem::create_directories(d);
    spill(d + "/jobs.journal", pristine.substr(0, cut));

    std::size_t good = 0;  // largest frame boundary <= cut
    std::size_t whole_frames = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i)
      if (bounds[i] <= cut) {
        good = bounds[i];
        whole_frames = i;
      }

    JobJournal j;
    auto rec = j.open(fast_options(d));
    ASSERT_TRUE(rec.ok()) << "cut=" << cut << ": " << rec.error().to_string();
    const JournalRecovery& r = rec.value();
    EXPECT_EQ(r.replayed_records, whole_frames) << "cut=" << cut;
    EXPECT_EQ(r.dropped_bytes, cut - good) << "cut=" << cut;
    // Job 1 is pending once its accepted record survives and its completed
    // record does not; job 2 pends once its accepted record survives.
    std::size_t want_pending = 0;
    if (whole_frames >= 1 && whole_frames < 3) ++want_pending;  // job 1
    if (whole_frames >= 2) ++want_pending;                      // job 2
    EXPECT_EQ(r.pending.size(), want_pending) << "cut=" << cut;
    j.close();
    // The torn tail is gone from disk: reopening is clean.
    EXPECT_EQ(slurp(d + "/jobs.journal").size(), good) << "cut=" << cut;
  }
}

TEST(ServiceChaos, TornJournalStaysAppendable) {
  // After a torn-tail recovery the log keeps accepting records.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  {
    JobJournal j;
    ASSERT_TRUE(j.open(fast_options(dir)).ok());
    j.accepted(1, fig2_request(2));
    j.accepted(2, fig2_request(4));
    j.close();
  }
  const std::string pristine = slurp(dir + "/jobs.journal");
  spill(dir + "/jobs.journal",
        pristine.substr(0, pristine.size() - 5));  // tear the last record

  JobJournal j;
  auto rec = j.open(fast_options(dir));
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec.value().pending.size(), 1u);
  EXPECT_GT(rec.value().dropped_bytes, 0u);
  j.accepted(7, fig2_request(8));
  j.close();

  JobJournal again;
  auto rec2 = again.open(fast_options(dir));
  ASSERT_TRUE(rec2.ok());
  ASSERT_EQ(rec2.value().pending.size(), 2u);
  EXPECT_EQ(rec2.value().pending[0].id, 1u);
  EXPECT_EQ(rec2.value().pending[1].id, 7u);
  EXPECT_EQ(rec2.value().dropped_bytes, 0u);
}

TEST(ServiceChaos, FlippedChecksumByteDropsTailFromThatRecord) {
  // A bit flip inside a record's payload poisons the stream at that frame
  // (framing cannot resynchronize); everything before it still replays and
  // the file is truncated back to the last good record.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  {
    JobJournal j;
    ASSERT_TRUE(j.open(fast_options(dir)).ok());
    j.accepted(1, fig2_request(2));
    j.accepted(2, fig2_request(4));
    j.accepted(3, fig2_request(8));
    j.close();
  }
  std::string bytes = slurp(dir + "/jobs.journal");
  const std::vector<std::size_t> bounds = frame_boundaries(bytes);
  ASSERT_EQ(bounds.size(), 4u);
  // Flip one payload byte in the middle record (past its frame header).
  bytes[bounds[1] + util::kFrameHeaderBytes + 4] ^= 0x40;
  spill(dir + "/jobs.journal", bytes);

  JobJournal j;
  auto rec = j.open(fast_options(dir));
  ASSERT_TRUE(rec.ok());
  const JournalRecovery& r = rec.value();
  EXPECT_EQ(r.replayed_records, 1u);
  ASSERT_EQ(r.pending.size(), 1u);
  EXPECT_EQ(r.pending[0].id, 1u);
  EXPECT_EQ(r.dropped_bytes, bytes.size() - bounds[1]);
  j.close();
  EXPECT_EQ(slurp(dir + "/jobs.journal").size(), bounds[1]);
}

TEST(ServiceChaos, VersionSkewedRecordIsDroppedIndividually) {
  // An intact frame carrying an unknown record version (a future daemon's
  // log) is dropped alone: the frame layer still delimits it, so records
  // after it replay normally — unlike a checksum failure.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  std::filesystem::create_directories(dir);
  const JobRequest a = fig2_request(2);
  const JobRequest b = fig2_request(4);
  std::string image;
  image += util::encode_frame("tracesel-jrec 1 accepted 1\n" +
                              serialize_job_request(a));
  image += util::encode_frame("tracesel-jrec 99 accepted 7\nfrom the future");
  image += util::encode_frame("tracesel-jrec 1 unknown-event 8");
  image += util::encode_frame("tracesel-jrec 1 accepted 2\n" +
                              serialize_job_request(b));
  spill(dir + "/jobs.journal", image);

  JobJournal j;
  auto rec = j.open(fast_options(dir));
  ASSERT_TRUE(rec.ok());
  const JournalRecovery& r = rec.value();
  ASSERT_EQ(r.pending.size(), 2u);
  EXPECT_EQ(r.pending[0].id, 1u);
  EXPECT_EQ(r.pending[1].id, 2u);
  EXPECT_TRUE(r.pending[1].request.same_computation(b));
  EXPECT_EQ(r.dropped_records, 2u);  // the skewed frame + the unknown event
  EXPECT_EQ(r.dropped_bytes, 0u);    // nothing torn, nothing truncated
}

TEST(ServiceChaos, DuplicateCompletedRecordsAreIdempotent) {
  // A crash between the completed append and the in-memory erase can
  // double-log the terminal record on the next life; replay must not care.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  {
    JobJournal j;
    ASSERT_TRUE(j.open(fast_options(dir)).ok());
    j.accepted(1, fig2_request(2));
    j.completed(1, 0x42);
    j.completed(1, 0x42);
    j.cancelled(1);  // a stale terminal for an already-finished job
    j.close();
  }
  JobJournal j;
  auto rec = j.open(fast_options(dir));
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec.value().pending.empty());
  EXPECT_EQ(rec.value().completed, 2u);
  EXPECT_EQ(rec.value().cancelled, 1u);
  EXPECT_EQ(rec.value().dropped_records, 0u);
}

TEST(ServiceChaos, RotationCompactsToLiveJobs) {
  // With a tiny rotate threshold and a churn of accept/complete pairs, the
  // journal must stay bounded by its live set — and compaction must
  // preserve the one still-unfinished job across a reopen.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  const JobRequest live_req = fig2_request(16);
  std::uint64_t rotations = 0;
  {
    JobJournal j;
    ASSERT_TRUE(j.open(fast_options(dir, /*rotate_bytes=*/2048)).ok());
    j.accepted(1000, live_req);
    j.started(1000);
    for (std::uint64_t id = 1; id <= 50; ++id) {
      j.accepted(id, fig2_request(2));
      j.completed(id, id);
    }
    rotations = j.rotations();
    EXPECT_GT(rotations, 0u);
    // Bounded: at most one live job plus the appends since the last
    // compaction — nowhere near 50 jobs' worth of records.
    EXPECT_LT(j.bytes(), 4096u);
    j.close();
  }
  JobJournal j;
  auto rec = j.open(fast_options(dir));
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec.value().pending.size(), 1u);
  EXPECT_EQ(rec.value().pending[0].id, 1000u);
  EXPECT_TRUE(rec.value().pending[0].started);
  EXPECT_TRUE(rec.value().pending[0].request.same_computation(live_req));
}

TEST(ServiceChaos, RotationKeepsDurableResults) {
  // With a tiny rotate threshold and more distinct results than fit in
  // it, compaction must keep every result (byte for byte across a reopen)
  // and the one live job, and must not rewrite the log on every append
  // once the retained results alone exceed the threshold.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  const JobRequest live_req = fig2_request(100);
  constexpr std::uint64_t kResults = 64;
  const auto key_of = [](std::uint64_t id) { return 0x5000 + id; };
  const auto report_of = [](std::uint64_t id) {
    return "{\n  \"job\": " + std::to_string(id) + ",\n  \"pad\": \"" +
           std::string(id % 7 * 13, 'x') + "\"\n}";
  };
  const auto request_of = [](std::uint64_t id) {
    return fig2_request(static_cast<std::uint32_t>(id));
  };
  std::uint64_t appends = 0;
  {
    JobJournal j;
    ASSERT_TRUE(j.open(fast_options(dir, /*rotate_bytes=*/2048)).ok());
    j.accepted(1000, live_req);
    j.started(1000);
    appends += 2;
    for (std::uint64_t id = 1; id <= kResults; ++id) {
      j.accepted(id, request_of(id));
      j.started(id);
      j.completed(id, key_of(id), request_of(id), report_of(id));
      appends += 3;
    }
    EXPECT_GT(j.rotations(), 0u);
    // Each compaction at least doubles the next trigger's distance, so
    // the count grows with the log of the retained bytes, not with the
    // appends.
    EXPECT_LE(j.rotations(), 12u) << "over " << appends << " appends";
    j.close();
  }
  JobJournal j;
  auto rec = j.open(fast_options(dir));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().dropped_records, 0u);
  ASSERT_EQ(rec.value().pending.size(), 1u);
  EXPECT_EQ(rec.value().pending[0].id, 1000u);
  EXPECT_TRUE(rec.value().pending[0].request.same_computation(live_req));
  for (std::uint64_t id = 1; id <= kResults; ++id) {
    const auto hit = j.load_result(key_of(id), request_of(id));
    ASSERT_TRUE(hit.ok()) << "job " << id << ": " << hit.error().to_string();
    EXPECT_EQ(hit.value(), report_of(id)) << "job " << id;
  }
  // The collision guard: a key answers only the computation it was for.
  EXPECT_FALSE(j.load_result(key_of(1), request_of(2)).ok());
}

TEST(ServiceChaos, ResultBudgetBoundsTheJournalAndKeepsPendingJobs) {
  // Churn three budgets' worth of large results through a journal at the
  // default rotate threshold. The index evicts the oldest results, so the
  // log stays bounded, a reopen replays the whole log, and the job
  // accepted before the churn is still pending. A report over the whole
  // budget completes its job without a body and is never served.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  const JobRequest live_req = fig2_request(100);
  constexpr std::uint64_t kReportBytes = 1u << 20;
  constexpr std::uint64_t kResults =
      3 * JobJournal::kResultBudgetBytes / kReportBytes;
  const auto key_of = [](std::uint64_t id) { return 0x7000 + id; };
  const auto report_of = [](std::uint64_t id) {
    return std::to_string(id) + std::string(kReportBytes, 'r');
  };
  const auto request_of = [](std::uint64_t id) {
    return fig2_request(static_cast<std::uint32_t>(id));
  };
  const std::uint64_t huge_id = kResults + 1;
  {
    JobJournal j;
    ASSERT_TRUE(j.open(fast_options(dir, /*rotate_bytes=*/4u << 20)).ok());
    j.accepted(1000, live_req);
    for (std::uint64_t id = 1; id <= kResults; ++id) {
      j.accepted(id, request_of(id));
      j.completed(id, key_of(id), request_of(id), report_of(id));
      // Compacted results + live jobs, doubled, plus one record.
      ASSERT_LT(j.bytes(), 2 * JobJournal::kResultBudgetBytes + 2 * kReportBytes)
          << "after job " << id;
    }
    j.accepted(huge_id, request_of(huge_id));
    j.completed(huge_id, key_of(huge_id), request_of(huge_id),
                std::string(JobJournal::kResultBudgetBytes + 1, 'h'));
    EXPECT_FALSE(j.load_result(key_of(huge_id), request_of(huge_id)).ok());
    EXPECT_GT(j.rotations(), 0u);
    j.close();
  }
  JobJournal j;
  auto rec = j.open(fast_options(dir));
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  EXPECT_EQ(rec.value().dropped_records, 0u);
  ASSERT_EQ(rec.value().pending.size(), 1u);
  EXPECT_EQ(rec.value().pending[0].id, 1000u);
  EXPECT_TRUE(rec.value().pending[0].request.same_computation(live_req));
  EXPECT_FALSE(j.load_result(key_of(1), request_of(1)).ok());
  EXPECT_FALSE(j.load_result(key_of(huge_id), request_of(huge_id)).ok());
  std::uint64_t kept = 0;
  for (std::uint64_t id = 1; id <= kResults; ++id) {
    const auto hit = j.load_result(key_of(id), request_of(id));
    if (!hit.ok()) continue;
    EXPECT_EQ(hit.value(), report_of(id)) << "job " << id;
    ++kept;
  }
  // The newest results survive; the index holds no more than the budget.
  EXPECT_TRUE(j.load_result(key_of(kResults), request_of(kResults)).ok());
  EXPECT_GT(kept, 0u);
  EXPECT_LE(kept * kReportBytes, JobJournal::kResultBudgetBytes);
}

// The same index on a journal that was never opened: the result cache of
// a daemon without a journal directory. It writes nothing and keeps the
// collision guard and the budget of the durable index above.

TEST(ServiceChaos, UnopenedJournalIndexGuardsCollisions) {
  // RotationKeepsDurableResults's index checks with no log behind it.
  constexpr std::uint64_t kResults = 64;
  const auto key_of = [](std::uint64_t id) { return 0x5000 + id; };
  const auto report_of = [](std::uint64_t id) {
    return "{\n  \"job\": " + std::to_string(id) + ",\n  \"pad\": \"" +
           std::string(id % 7 * 13, 'x') + "\"\n}";
  };
  const auto request_of = [](std::uint64_t id) {
    return fig2_request(static_cast<std::uint32_t>(id));
  };
  JobJournal j;
  j.accepted(1000, fig2_request(100));
  for (std::uint64_t id = 1; id <= kResults; ++id) {
    j.accepted(id, request_of(id));
    j.started(id);
    j.completed(id, key_of(id), request_of(id), report_of(id));
  }
  for (std::uint64_t id = 1; id <= kResults; ++id) {
    const auto hit = j.load_result(key_of(id), request_of(id));
    ASSERT_TRUE(hit.ok()) << "job " << id << ": " << hit.error().to_string();
    EXPECT_EQ(hit.value(), report_of(id)) << "job " << id;
  }
  EXPECT_FALSE(j.load_result(key_of(1), request_of(2)).ok());
  EXPECT_FALSE(j.enabled());
  EXPECT_EQ(j.bytes(), 0u);
  EXPECT_EQ(j.records_appended(), 0u);
}

TEST(ServiceChaos, UnopenedJournalIndexEvictsOldestPastTheBudget) {
  // ResultBudgetBoundsTheJournalAndKeepsPendingJobs's churn, in memory:
  // the oldest results are evicted, the newest survive, the index holds
  // no more than the budget, and a report over the budget is not kept.
  constexpr std::uint64_t kReportBytes = 1u << 20;
  constexpr std::uint64_t kResults =
      3 * JobJournal::kResultBudgetBytes / kReportBytes;
  const auto key_of = [](std::uint64_t id) { return 0x7000 + id; };
  const auto report_of = [](std::uint64_t id) {
    return std::to_string(id) + std::string(kReportBytes, 'r');
  };
  const auto request_of = [](std::uint64_t id) {
    return fig2_request(static_cast<std::uint32_t>(id));
  };
  const std::uint64_t huge_id = kResults + 1;
  JobJournal j;
  for (std::uint64_t id = 1; id <= kResults; ++id)
    j.completed(id, key_of(id), request_of(id), report_of(id));
  j.completed(huge_id, key_of(huge_id), request_of(huge_id),
              std::string(JobJournal::kResultBudgetBytes + 1, 'h'));
  EXPECT_FALSE(j.load_result(key_of(huge_id), request_of(huge_id)).ok());
  EXPECT_FALSE(j.load_result(key_of(1), request_of(1)).ok());
  std::uint64_t kept = 0;
  for (std::uint64_t id = 1; id <= kResults; ++id) {
    const auto hit = j.load_result(key_of(id), request_of(id));
    if (!hit.ok()) continue;
    EXPECT_EQ(hit.value(), report_of(id)) << "job " << id;
    ++kept;
  }
  EXPECT_TRUE(j.load_result(key_of(kResults), request_of(kResults)).ok());
  EXPECT_GT(kept, 0u);
  EXPECT_LE(kept * kReportBytes, JobJournal::kResultBudgetBytes);
  EXPECT_EQ(j.bytes(), 0u);
}

TEST(ServiceChaos, UnreadableJournalFailsOpenInsteadOfStartingEmpty) {
  // A log that exists but cannot be read (here: a directory in its place,
  // which opens but fails every read) must fail open() with a typed
  // error: starting empty would let the next compaction overwrite it.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  std::filesystem::create_directories(dir + "/jobs.journal");
  JobJournal j;
  const auto rec = j.open(fast_options(dir));
  ASSERT_FALSE(rec.ok());
  EXPECT_NE(rec.error().to_string().find("cannot read"), std::string::npos)
      << rec.error().to_string();
  EXPECT_FALSE(j.enabled());
}

TEST(ServiceChaos, TornResultRecordLeavesTheJobPending) {
  // kill -9 mid-append of a completed record that carries a report: cut
  // the journal at every byte offset inside that last record. Replay must
  // never crash or serve the torn result, the job must come back pending,
  // and a daemon on such a directory must return the reference bytes.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  const JobRequest req = fig2_request(2);
  const std::string expected = reference_report(req);
  const auto source = QueryCore::source_hash(req);
  ASSERT_TRUE(source.ok());
  const std::uint64_t rkey = req.canonical_hash(source.value());
  {
    JobJournal j;
    ASSERT_TRUE(j.open(fast_options(dir)).ok());
    j.accepted(1, req);
    j.started(1);
    j.completed(1, rkey, req, expected);
    j.close();
  }
  const std::string pristine = slurp(dir + "/jobs.journal");
  const std::vector<std::size_t> bounds = frame_boundaries(pristine);
  ASSERT_EQ(bounds.size(), 4u);
  {
    JobJournal j;
    auto rec = j.open(fast_options(dir));
    ASSERT_TRUE(rec.ok());
    EXPECT_TRUE(rec.value().pending.empty());
    const auto hit = j.load_result(rkey, req);
    ASSERT_TRUE(hit.ok()) << hit.error().to_string();
    EXPECT_EQ(hit.value(), expected);
  }

  for (std::size_t cut = bounds[2]; cut < bounds[3]; ++cut) {
    TempDir sweep;
    const std::string d = sweep.sub("wal");
    std::filesystem::create_directories(d);
    spill(d + "/jobs.journal", pristine.substr(0, cut));
    JobJournal j;
    auto rec = j.open(fast_options(d));
    ASSERT_TRUE(rec.ok()) << "cut=" << cut << ": " << rec.error().to_string();
    ASSERT_EQ(rec.value().pending.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(rec.value().pending[0].id, 1u) << "cut=" << cut;
    EXPECT_EQ(rec.value().dropped_bytes, cut - bounds[2]) << "cut=" << cut;
    EXPECT_FALSE(j.load_result(rkey, req).ok()) << "cut=" << cut;
  }

  // An intact frame whose result body is malformed is dropped alone: the
  // job stays pending rather than serve a report it cannot vouch for.
  {
    TempDir bad;
    const std::string d = bad.sub("wal");
    std::filesystem::create_directories(d);
    char hex[17];
    const auto end = std::to_chars(hex, hex + sizeof(hex), rkey, 16).ptr;
    spill(d + "/jobs.journal",
          pristine.substr(0, bounds[2]) +
              util::encode_frame("tracesel-jrec 1 completed 1 " +
                                 std::string(hex, end) +
                                 "\nrequest 999\ntruncated"));
    JobJournal j;
    auto rec = j.open(fast_options(d));
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.value().pending.size(), 1u);
    EXPECT_EQ(rec.value().dropped_records, 1u);
    EXPECT_EQ(rec.value().dropped_bytes, 0u);
    EXPECT_FALSE(j.load_result(rkey, req).ok());
  }

  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  spill(dir + "/jobs.journal",
        pristine.substr(0, (bounds[2] + bounds[3]) / 2));
  ServerOptions opt;
  opt.journal_dir = dir;
  Daemon daemon{std::move(opt)};
  EXPECT_EQ(daemon.server->stats().recovered, 1u);
  Client client = daemon.connect();
  const auto out = client.submit(req);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_EQ(out.value().status, "ok");
  EXPECT_EQ(out.value().report_json, expected);
}

// --- daemon recovery ----------------------------------------------------

TEST(ServiceChaos, ServerReplaysPendingJobsOnRestart) {
  // A journal holding an accepted-but-unfinished job (the "previous life"
  // died mid-run) must be replayed on start(): the job runs to completion
  // with no client attached, and a later identical submit is served the
  // reference bytes from cache.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  const JobRequest req = fig2_request(2);
  {
    JobJournal j;
    JournalOptions o;
    o.dir = dir;
    ASSERT_TRUE(j.open(o).ok());
    j.accepted(1, req);
    j.started(1);
    j.close();
  }

  ServerOptions opt;
  opt.journal_dir = dir;
  Daemon daemon{std::move(opt)};
  EXPECT_EQ(daemon.server->stats().recovered, 1u);

  // The replayed job runs without any connection driving it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (daemon.server->stats().completed < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "recovered job never completed";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  Client client = daemon.connect();
  const auto out = client.submit(req);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_TRUE(out.value().cache_hit);
  EXPECT_EQ(out.value().report_json, reference_report(req));
}

TEST(ServiceChaos, DurableResultCacheSurvivesRestart) {
  // A completed job's report persists under <journal-dir>/results/; a
  // fresh daemon (empty in-memory store) on the same directory serves the
  // resubmission byte-identically without recomputing.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  const JobRequest req = fig2_request(2);
  const std::string expected = reference_report(req);

  {
    ServerOptions opt;
    opt.journal_dir = dir;
    Daemon first{std::move(opt)};
    Client client = first.connect();
    const auto out = client.submit(req);
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    EXPECT_EQ(out.value().report_json, expected);
  }

  ServerOptions opt;
  opt.journal_dir = dir;
  Daemon second{std::move(opt)};
  EXPECT_EQ(second.server->stats().recovered, 0u);  // job 1 completed
  Client client = second.connect();
  const auto out = client.submit(req);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_TRUE(out.value().cache_hit);
  EXPECT_EQ(out.value().report_json, expected);
}

TEST(ServiceChaos, OldVersionResultFileIsNotServed) {
  // A results/ entry left by an older daemon (here one of a stored-result
  // version that could hold a beam-degraded report) is ignored: the job
  // recomputes to the current bytes, its completed journal record carries
  // them, and a fresh daemon then serves them from the journal.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  const JobRequest req = fig2_request(2);
  const std::string expected = reference_report(req);
  const auto source = QueryCore::source_hash(req);
  ASSERT_TRUE(source.ok());
  const std::uint64_t rkey = req.canonical_hash(source.value());
  {
    JobJournal j;
    ASSERT_TRUE(j.open(fast_options(dir)).ok());
    const std::string wire = serialize_job_request(req);
    const std::string stale = "{\"stale\": true}";
    char hex[17];
    const auto end = std::to_chars(hex, hex + sizeof(hex), rkey, 16).ptr;
    std::filesystem::create_directories(dir + "/results");
    spill(dir + "/results/" + std::string(hex, end) + ".result",
          util::encode_envelope(
              "tracesel-result", 1,
              "request " + std::to_string(wire.size()) + "\n" + wire +
                  "\nreport " + std::to_string(stale.size()) + "\n" +
                  stale + "\n"));
  }

  {
    ServerOptions opt;
    opt.journal_dir = dir;
    Daemon first{std::move(opt)};
    Client client = first.connect();
    const auto out = client.submit(req);
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    EXPECT_FALSE(out.value().cache_hit);
    EXPECT_EQ(out.value().report_json, expected);
  }

  ServerOptions opt;
  opt.journal_dir = dir;
  Daemon second{std::move(opt)};
  Client client = second.connect();
  const auto out = client.submit(req);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_TRUE(out.value().cache_hit);
  EXPECT_EQ(out.value().report_json, expected);
}

TEST(ServiceChaos, SyncsPerJob) {
  // The journal's fsync budget: a computed job syncs its accepted record
  // and its completed record, which carries the report; a resubmission of
  // a durable result syncs nothing, in the same daemon or a fresh one.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  const JobRequest req = fig2_request(2);
  const std::string expected = reference_report(req);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto syncs = [] {
    return obs::registry().counter_value("svc.journal.syncs");
  };

  {
    ServerOptions opt;
    opt.journal_dir = dir;
    Daemon first{std::move(opt)};
    Client client = first.connect();
    std::uint64_t before = syncs();
    const auto cold = client.submit(req);
    ASSERT_TRUE(cold.ok()) << cold.error().to_string();
    EXPECT_FALSE(cold.value().cache_hit);
    EXPECT_EQ(cold.value().report_json, expected);
    EXPECT_EQ(syncs() - before, 2u);

    before = syncs();
    const auto repeat = client.submit(req);
    ASSERT_TRUE(repeat.ok()) << repeat.error().to_string();
    EXPECT_TRUE(repeat.value().cache_hit);
    EXPECT_EQ(repeat.value().report_json, expected);
    EXPECT_EQ(syncs() - before, 0u);
  }

  ServerOptions opt;
  opt.journal_dir = dir;
  Daemon second{std::move(opt)};
  Client client = second.connect();
  const std::uint64_t before = syncs();
  const auto out = client.submit(req);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_TRUE(out.value().cache_hit);
  EXPECT_EQ(out.value().report_json, expected);
  EXPECT_EQ(syncs() - before, 0u);
  obs::set_enabled(was_enabled);
}

TEST(ServiceChaos, EveryJournalSyncIsSpanned) {
  // Each journal fsync runs inside an svc.journal.sync span, so the span
  // count matches the syncs counter: two per cold job.
  TempDir tmp;
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto syncs = [] {
    return obs::registry().counter_value("svc.journal.syncs");
  };
  const auto spans = [] {
    const auto h = obs::registry().histogram_snapshot("span.svc.journal.sync");
    return h ? h->count : 0u;
  };
  ServerOptions opt;
  opt.journal_dir = tmp.sub("wal");
  Daemon daemon{std::move(opt)};
  Client client = daemon.connect();
  constexpr std::uint32_t kJobs = 4;
  const std::uint64_t syncs_before = syncs();
  const std::uint64_t spans_before = spans();
  for (std::uint32_t width = 2; width < 2 + kJobs; ++width) {
    const auto out = client.submit(fig2_request(width));
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    EXPECT_FALSE(out.value().cache_hit);
  }
  EXPECT_EQ(syncs() - syncs_before, 2u * kJobs);
  EXPECT_EQ(spans() - spans_before, syncs() - syncs_before);
  obs::set_enabled(was_enabled);
}

// --- admission control under load ---------------------------------------

/// Blocks every runner inside on_job_start until release() — the
/// deterministic way to keep the queue occupied (fig2 jobs otherwise
/// finish in milliseconds, making overload tests racy).
struct RunnerGate {
  void wait_in_job() {
    std::unique_lock<std::mutex> lk(mu);
    ++entered;
    cv.notify_all();
    cv.wait(lk, [&] { return open; });
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu);
    open = true;
    cv.notify_all();
  }
  void await_entered(int n) {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return entered >= n; });
  }
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool open = false;
};

TEST(ServiceChaos, QueueFullShedsWithTypedRetryAfterAndHintedRetrySucceeds) {
  RunnerGate gate;
  ServerOptions opt;
  opt.runners = 1;
  opt.max_queue = 1;
  opt.retry_after_floor_ms = 37;
  opt.on_job_start = [&](const JobRequest&) { gate.wait_in_job(); };
  Daemon daemon{std::move(opt)};

  // Job A occupies the runner (held at the gate), job B fills the queue.
  std::thread a([&] {
    Client c = daemon.connect();
    const auto out = c.submit(fig2_request(2));
    EXPECT_TRUE(out.ok());
  });
  gate.await_entered(1);
  std::atomic<bool> b_queued{false};
  std::thread b([&] {
    Client c = daemon.connect();
    const auto out = c.submit(fig2_request(4), {},
                              [&](std::string_view, std::uint64_t) {
                                b_queued.store(true);
                              });
    EXPECT_TRUE(out.ok());
  });
  while (!b_queued.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));

  // Job C is shed with a typed, hinted retry-after — not a hard error.
  Client c = daemon.connect();
  Client::RetryAfter ra;
  const auto shed = c.submit(fig2_request(8), {}, {}, &ra);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error().code, util::ErrorCode::kResourceExhausted);
  EXPECT_TRUE(ra.hinted);
  EXPECT_GE(ra.ms, 37u);
  EXPECT_NE(ra.reason.find("queue is full"), std::string::npos);
  {
    const auto s = daemon.server->stats();
    EXPECT_GE(s.rejected, 1u);
    EXPECT_GE(s.retry_after, 1u);
  }

  // Honouring the hint pays off: release the backlog and resubmit with the
  // resilient path — it sleeps the server's hint and then lands.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.release();
  });
  Client::SubmitOptions sopt;
  sopt.max_attempts = 20;
  const auto out = c.submit_resilient(fig2_request(8), sopt);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_EQ(out.value().status, "ok");

  releaser.join();
  a.join();
  b.join();
}

TEST(ServiceChaos, PerTenantCapShedsOnlyTheNoisyTenant) {
  RunnerGate gate;
  ServerOptions opt;
  opt.runners = 1;
  opt.per_tenant_inflight = 1;
  opt.on_job_start = [&](const JobRequest&) { gate.wait_in_job(); };
  Daemon daemon{std::move(opt)};

  JobRequest first = fig2_request(2);
  first.tenant = "acme";
  std::thread a([&] {
    Client c = daemon.connect();
    const auto out = c.submit(first);
    EXPECT_TRUE(out.ok());
  });
  gate.await_entered(1);

  // Same tenant, different computation: shed at the cap.
  Client c = daemon.connect();
  JobRequest second = fig2_request(4);
  second.tenant = "acme";
  Client::RetryAfter ra;
  const auto shed = c.submit(second, {}, {}, &ra);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(ra.hinted);
  EXPECT_NE(ra.reason.find("acme"), std::string::npos);
  EXPECT_EQ(daemon.server->stats().shed_tenant_cap, 1u);

  // A different tenant is unaffected by acme's backlog.
  JobRequest other = fig2_request(8);
  other.tenant = "zen";
  std::atomic<bool> other_accepted{false};
  std::thread z([&] {
    Client zc = daemon.connect();
    const auto out = zc.submit(other, {},
                               [&](std::string_view, std::uint64_t) {
                                 other_accepted.store(true);
                               });
    EXPECT_TRUE(out.ok());
  });
  while (!other_accepted.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));

  gate.release();
  a.join();
  z.join();

  // With the cap freed, the shed tenant's retry is admitted.
  const auto retry = c.submit(second);
  ASSERT_TRUE(retry.ok()) << retry.error().to_string();
  EXPECT_EQ(retry.value().status, "ok");

  const auto tel = daemon.server->telemetry_json().dump(2);
  EXPECT_NE(tel.find("\"shed\""), std::string::npos);
}

// --- client resilience --------------------------------------------------

TEST(ServiceChaos, ClientConnectRetriesUntilTheDaemonArrives) {
  // The daemon binds its socket 200 ms after the client starts dialing; a
  // connect timeout with backoff must bridge the gap (this is the
  // --connect-timeout-ms path the CLI exposes).
  static std::atomic<int> counter{0};
  const std::string path = "/tmp/tsvc_late_" + std::to_string(::getpid()) +
                           "_" + std::to_string(counter.fetch_add(1)) +
                           ".sock";
  std::unique_ptr<Daemon> late;
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ServerOptions opt;
    opt.socket_path = path;
    late = std::make_unique<Daemon>(std::move(opt));
  });
  Client::ConnectOptions co;
  co.timeout_ms = 10000;
  auto c = Client::connect(path, co);
  starter.join();
  ASSERT_TRUE(c.ok()) << c.error().to_string();
  EXPECT_TRUE(c.value().ping().ok());
}

TEST(ServiceChaos, SubmitResilientSurvivesAnInProcessRestart) {
  // The daemon dies between two submits; submit_resilient reconnects to
  // the reborn daemon on the same socket path and the resubmission is
  // served byte-identically from the durable result cache.
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  const JobRequest req = fig2_request(2);
  const std::string expected = reference_report(req);

  static std::atomic<int> counter{0};
  const std::string socket = "/tmp/tsvc_reborn_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(counter.fetch_add(1)) + ".sock";
  const auto make_daemon = [&] {
    ServerOptions opt;
    opt.socket_path = socket;
    opt.journal_dir = dir;
    return std::make_unique<Daemon>(std::move(opt));
  };

  auto first = make_daemon();
  auto c = Client::connect(socket);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.value().submit(req).ok());
  first->stop();
  first.reset();

  // The daemon is gone; the stale connection's plain submit would fail,
  // but the resilient path reconnects once the daemon is reborn on the
  // same socket and is served from the durable result cache.
  auto second = make_daemon();
  Client::SubmitOptions sopt;
  sopt.max_attempts = 10;
  const auto out = c.value().submit_resilient(req, sopt);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_TRUE(out.value().cache_hit);
  EXPECT_EQ(out.value().report_json, expected);
}

// --- the kill -9 property -----------------------------------------------

/// Spawns `tracesel serve` as a real process (stdout/stderr silenced).
pid_t spawn_served(const std::string& socket, const std::string& journal) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, 1);
      ::dup2(null_fd, 2);
      ::close(null_fd);
    }
    ::execl(TRACESEL_CLI_BIN, "tracesel", "serve", "--socket",
            socket.c_str(), "--journal-dir", journal.c_str(), "--runners",
            "1", static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

TEST(ServiceChaos, KillNineAtRandomMomentsRecoversByteIdentically) {
  // The headline robustness property: SIGKILL the real daemon process at a
  // seeded random moment around a submit — before admission, mid-journal,
  // mid-compute or after completion — restart it on the same journal
  // directory, and a resilient resubmission always lands the exact
  // single-process reference bytes. No case may wedge, crash the reborn
  // daemon, or produce different output.
  const JobRequest req = fig2_request(2);
  const std::string expected = reference_report(req);
  util::Rng rng(0xC4A05);

  for (int round = 0; round < 4; ++round) {
    TempDir tmp;
    const std::string dir = tmp.sub("wal");
    const std::string socket = tmp.sub("d.sock");

    const pid_t first = spawn_served(socket, dir);
    ASSERT_GT(first, 0);
    Client::ConnectOptions co;
    co.timeout_ms = 15000;
    auto c = Client::connect(socket, co);
    ASSERT_TRUE(c.ok()) << c.error().to_string();

    // Fire the submit concurrently; it may or may not complete before the
    // kill lands, and its outcome is deliberately ignored.
    std::thread submitter([&] {
      Client sc = std::move(c).value();
      (void)sc.submit(req);
    });
    std::this_thread::sleep_for(
        std::chrono::milliseconds(rng.between(0, 30)));
    ASSERT_EQ(::kill(first, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(first, &status, 0), first);
    submitter.join();

    const pid_t second = spawn_served(socket, dir);
    ASSERT_GT(second, 0);
    auto rc = Client::connect(socket, co);
    ASSERT_TRUE(rc.ok()) << "round " << round << ": "
                         << rc.error().to_string();
    Client::SubmitOptions sopt;
    sopt.max_attempts = 10;
    const auto out = rc.value().submit_resilient(req, sopt);
    ASSERT_TRUE(out.ok()) << "round " << round << ": "
                          << out.error().to_string();
    EXPECT_EQ(out.value().status, "ok") << "round " << round;
    EXPECT_EQ(out.value().report_json, expected) << "round " << round;

    ASSERT_EQ(::kill(second, SIGTERM), 0);
    ASSERT_EQ(::waitpid(second, &status, 0), second);
    EXPECT_TRUE(WIFEXITED(status)) << "round " << round;
    EXPECT_EQ(WEXITSTATUS(status), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace tracesel::service
