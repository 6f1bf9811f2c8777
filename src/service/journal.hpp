#pragma once
// tracesel::service::JobJournal — the write-ahead job journal that makes
// traceseld crash-durable (DESIGN.md §16, docs/service.md "Durability &
// recovery").
//
// The daemon's queue and in-flight set live in memory; a crash would lose
// every accepted job. The journal fixes that with the classic WAL
// discipline: every job lifecycle transition is appended — and fsync'd —
// to an on-disk log *before* the transition becomes visible to the rest
// of the daemon. On restart, open() replays the log, hands back the
// accepted-but-unfinished jobs in their original admission order, and the
// daemon re-enqueues them.
//
// Record format: each record is one TSELFRM1 binary frame (util/framing
// .hpp — the same magic + length + FNV-1a checksum layout the socket
// protocol uses, so torn and corrupted records are detected by the same
// codec the tests already abuse). The frame payload is versioned text:
//
//     tracesel-jrec <version> <event> <job_id>[ <aux>]\n[<body>]
//
// where <event> is accepted | started | completed | cancelled, <aux> is
// the result key (hex) on completed records, and <body> is
//   - on accepted records, the serialized JobRequest (its own checksummed
//     envelope);
//   - on the completed record of an `ok` job, the durable result:
//     "request <len>\n<request>\nreport <len>\n<report>\n", the exact
//     report bytes plus the request as a hash-collision guard.
// Other completed records (partial, error) carry no body. Appends go
// through util::write_frame — the one EINTR-retried full-write loop in
// the repository — never a hand-rolled write call.
//
// Syncs: accepted and completed/cancelled appends fsync before they
// return; started appends do not (replay recomputes a started job exactly
// like an unstarted one), so they become durable with the next synced
// record. A computed job costs two fsyncs, and one whose result was
// already durable costs none: the daemon serves it from the result index.
//
// Durable result index: rkey -> {request, report}, filled on replay from
// every completed record with a body (a later record replaces an earlier
// one) and on each such append, after its fsync. load_result() reads it
// under its own mutex, so a lookup never waits on an append's fsync or a
// compaction. The index holds at most kResultBudgetBytes of record
// bodies: a new result evicts the oldest ones, and a report whose body
// alone exceeds the budget is written as a bodyless completed record. An
// evicted or unkept result costs one recompute. A results/ directory left
// by an older daemon is ignored. A journal that was never opened (a
// daemon without a journal directory) keeps the same bounded index in
// memory: completed() indexes the result and writes nothing, so the index
// is the daemon's one result cache either way.
//
// Recovery semantics (torn tails are a fact of kill -9):
//   - A frame that fails validation poisons the stream from that offset
//     (framing cannot resynchronize), so recovery truncates the file at
//     the last good record and continues — counted in `obs`
//     (svc.journal.dropped_records / dropped_bytes), never a crash.
//   - A frame that parses but carries an unknown version or a malformed
//     body is dropped *individually* (the frame layer is intact, so later
//     records still replay) and counted.
//   - Duplicate terminal records are idempotent.
//
// Rotation: once the live log exceeds max(rotate_bytes, twice its size
// after the last compaction), it is compacted — rewritten (atomically,
// temp + fsync + rename) to hold one completed-with-body record per
// indexed result, oldest first, plus the records of still-unfinished jobs
// — so the journal of a long-lived daemon stays bounded by the result
// budget and its in-flight set, not its lifetime, and compaction stays
// amortized once the results alone outgrow rotate_bytes. Replay streams
// the log, so no journal size makes it skip a record.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tracesel/job_request.hpp"
#include "util/result.hpp"

namespace tracesel::service {

struct JournalOptions {
  /// Directory holding the journal. open() creates it when absent.
  std::string dir;
  /// Compaction threshold: an append that pushes the file past this many
  /// bytes (or past twice its size after the last compaction, if that is
  /// larger) triggers a rewrite holding the durable results and the live
  /// jobs. 0 disables.
  std::uint64_t rotate_bytes = 4u << 20;
  /// fsync the accepted and terminal appends (the durability contract;
  /// started appends never sync). Tests that sweep
  /// thousands of corruption cases may turn it off; the daemon never does.
  bool fsync = true;
};

/// One accepted-but-unfinished job reconstructed by replay.
struct RecoveredJob {
  std::uint64_t id = 0;
  JobRequest request;
  /// True when a started record followed (the daemon died mid-job).
  /// Reported only: replay recomputes started and unstarted jobs alike,
  /// which is why started records are appended without an fsync.
  bool started = false;
};

/// What replay found. `pending` preserves original admission order.
struct JournalRecovery {
  std::vector<RecoveredJob> pending;
  std::uint64_t completed = 0;        ///< terminal records seen (incl. dups)
  std::uint64_t cancelled = 0;
  std::uint64_t replayed_records = 0; ///< well-formed records replayed
  std::uint64_t dropped_records = 0;  ///< malformed records skipped
  std::uint64_t dropped_bytes = 0;    ///< torn/corrupt tail truncated away
  std::uint64_t next_job_id = 1;      ///< max replayed id + 1
  std::string note;                   ///< one-line human recovery summary
};

class JobJournal {
 public:
  /// Bound on the record bodies the result index (and so every compacted
  /// log) holds; the oldest results are evicted past it.
  static constexpr std::uint64_t kResultBudgetBytes = 16u << 20;

  JobJournal() = default;
  ~JobJournal();
  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Creates `options.dir`, replays any existing journal — truncating a
  /// torn tail in place and refilling the result index — and opens the
  /// log for appending. Typed error when the directory cannot be created
  /// or the journal cannot be read or opened; a torn or corrupt log never
  /// fails replay, it recovers.
  util::Result<JournalRecovery> open(JournalOptions options);

  /// True between a successful open() and close().
  bool enabled() const;
  void close();

  // --- lifecycle appenders (each: one frame under a mutex; every one but
  // started() fsyncs before it returns; none writes before open()) ---
  void accepted(std::uint64_t job_id, const JobRequest& request);
  void started(std::uint64_t job_id);
  /// A terminal record without a result (partial, error, or no key).
  void completed(std::uint64_t job_id, std::uint64_t result_hash);
  /// The terminal record of an `ok` job: it carries the report, so one
  /// fsync makes the completion and the result durable together, and
  /// load_result() serves it from then on (until evicted). A report over
  /// the result budget gets the bodyless record instead. On a journal
  /// that was never opened it only indexes the result.
  void completed(std::uint64_t job_id, std::uint64_t result_key,
                 const JobRequest& request, std::string_view report_json);
  void cancelled(std::uint64_t job_id);

  // --- introspection (telemetry surface) ---
  std::uint64_t bytes() const;
  std::uint64_t rotations() const;
  std::uint64_t records_appended() const;

  const std::string& dir() const { return options_.dir; }
  /// dir/jobs.journal — the log itself.
  std::string path() const;

  /// The report for `result_key` from the result index; typed
  /// error when absent (never kept, or evicted) or written for a
  /// different computation (collision guard).
  util::Result<std::string> load_result(std::uint64_t result_key,
                                        const JobRequest& request) const;

 private:
  enum class Kind { kAccepted, kStarted, kTerminal };
  /// A durable result: the completed job's id (compaction rewrites its
  /// record), the request it answers, the exact report bytes, its record
  /// body's size (what it costs against the budget) and its age.
  struct StoredResult {
    std::uint64_t job_id = 0;
    JobRequest request;
    std::string report;
    std::uint64_t cost = 0;
    std::uint64_t seq = 0;
  };

  /// Writes one record (fsync'd unless `kind` is kStarted) and updates the
  /// live set; `result`, when given, enters the index after the write.
  void append(std::uint64_t job_id, const std::string& payload, Kind kind,
              std::uint64_t result_key = 0, StoredResult* result = nullptr);
  void sync_locked();
  void rotate_locked();
  /// Indexes `res` under `key` as the newest result, evicting the oldest
  /// ones past kResultBudgetBytes. Caller holds mu_.
  void index_result_locked(std::uint64_t key, StoredResult res);

  JournalOptions options_;
  int fd_ = -1;
  /// Guards the log, the live set and every write of the index below.
  mutable std::mutex mu_;
  std::uint64_t size_ = 0;
  /// Size right after the last compaction (0 before the first one).
  std::uint64_t compacted_size_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t records_ = 0;
  /// The result index. Written only with mu_ and results_mu_ both held,
  /// so load_result() reads it under results_mu_ alone and a holder of
  /// mu_ (compaction) reads it without results_mu_.
  mutable std::mutex results_mu_;
  std::unordered_map<std::uint64_t, StoredResult> results_;
  /// seq -> key, oldest first: the eviction and compaction order.
  std::map<std::uint64_t, std::uint64_t> result_age_;
  std::uint64_t result_bytes_ = 0;
  std::uint64_t next_result_seq_ = 0;
  /// Live set for compaction: (job id, its accepted-record payload,
  /// started?) in admission order.
  struct LiveJob {
    std::uint64_t id = 0;
    std::string accepted_payload;
    bool started = false;
  };
  std::vector<LiveJob> live_;
};

}  // namespace tracesel::service
