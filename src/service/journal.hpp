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
// the result hash (hex) on completed records, and <body> is the
// serialized JobRequest (its own checksummed envelope) on accepted
// records. Appends go through util::write_frame — the one EINTR-retried
// full-write loop in the repository — never a hand-rolled write call.
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
// Rotation: once the live log exceeds rotate_bytes, it is compacted —
// rewritten (atomically, temp + fsync + rename) to hold only the records
// of still-unfinished jobs — so the journal of a long-lived daemon stays
// bounded by its in-flight set, not its lifetime.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "tracesel/job_request.hpp"
#include "util/result.hpp"

namespace tracesel::service {

struct JournalOptions {
  /// Directory holding the journal and its side artifacts. open() creates
  /// it (plus the results/ subdirectory) when absent.
  std::string dir;
  /// Compaction threshold: an append that pushes the file past this many
  /// bytes triggers a rewrite containing only live jobs. 0 disables.
  std::uint64_t rotate_bytes = 4u << 20;
  /// fsync after every append (the durability contract). Tests that sweep
  /// thousands of corruption cases may turn it off; the daemon never does.
  bool fsync = true;
};

/// One accepted-but-unfinished job reconstructed by replay.
struct RecoveredJob {
  std::uint64_t id = 0;
  JobRequest request;
  /// True when a started record followed (the daemon died mid-job; the
  /// replayed job recomputes from scratch).
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
  JobJournal() = default;
  ~JobJournal();
  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Creates `options.dir` (and results/), replays any existing
  /// journal — truncating a torn tail in place — and opens the log for
  /// appending. Typed error when the directory cannot be created or the
  /// journal cannot be opened; replay itself never fails, it recovers.
  util::Result<JournalRecovery> open(JournalOptions options);

  /// True between a successful open() and close().
  bool enabled() const { return fd_ >= 0; }
  void close();

  // --- lifecycle appenders (each: one frame + fsync, under a mutex) ---
  void accepted(std::uint64_t job_id, const JobRequest& request);
  void started(std::uint64_t job_id);
  void completed(std::uint64_t job_id, std::uint64_t result_hash);
  void cancelled(std::uint64_t job_id);

  // --- introspection (telemetry surface) ---
  std::uint64_t bytes() const;
  std::uint64_t rotations() const;
  std::uint64_t records_appended() const;

  const std::string& dir() const { return options_.dir; }
  /// dir/jobs.journal — the log itself.
  std::string path() const;
  /// dir/results/<rkey-hex>.result — the durable result cache entry.
  std::string result_path(std::uint64_t result_key) const;

  /// Persists a completed job's exact report bytes (atomic write) keyed by
  /// the request's canonical hash, so a resubmission after a restart is
  /// served byte-identically without recompute. The request rides along to
  /// guard against hash collisions on load.
  util::Status store_result(std::uint64_t result_key, const JobRequest& request,
                            std::string_view report_json);
  /// Loads a stored result; typed error when absent, corrupt, or written
  /// for a different computation (collision guard).
  util::Result<std::string> load_result(std::uint64_t result_key,
                                        const JobRequest& request) const;

 private:
  void append(std::uint64_t job_id, const std::string& payload, bool live,
              bool terminal);
  void rotate_locked();

  JournalOptions options_;
  int fd_ = -1;
  mutable std::mutex mu_;
  std::uint64_t size_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t records_ = 0;
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
