#pragma once
// tracesel::service::Server — traceseld, the selection/debug job daemon
// (DESIGN.md §13, docs/service.md).
//
// A long-running process accepting tracesel::JobRequest jobs over the
// framed Unix-socket protocol (protocol.hpp). Architecture:
//
//   accept loop   poll()s the listening socket in 100 ms slices, checking
//                 the shutdown token between slices; each accepted client
//                 gets a connection thread.
//   connections   read frames, answer ping/stats immediately, enqueue
//                 submits on the job queue and stream lifecycle events
//                 (queued -> started -> result) back while polling the
//                 socket for a cancel frame or a disconnect — either
//                 cancels the in-flight job cooperatively.
//   runners       N worker threads pull jobs off the queue and execute
//                 them through QueryCore::run against the shared
//                 ArtifactStore, so concurrent and repeated jobs share
//                 workloads. A repeat is served at admission from the
//                 job journal's bounded result index (journal.hpp), which
//                 stays in memory when no journal directory is set.
//                 Each job's deadline_ms is armed on its CancelToken when
//                 the job *starts* (queue time does not count).
//   metrics       a runner snapshots its obs thread-counter shard before
//                 and after the job; the delta rides back in the result
//                 frame as the job's own metrics (a job runs on its
//                 runner thread alone, so the delta is exactly its own).
//
// Shutdown is drain-and-exit: when the shutdown token fires (SIGTERM in
// the CLI) or a stop frame arrives, the server stops accepting, lets the
// queue drain, answers every waiting client, then serve() returns 0.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "tracesel/artifact_store.hpp"
#include "tracesel/job_request.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace tracesel::service {

struct ServerOptions {
  /// Filesystem path of the Unix domain socket. Must fit sun_path
  /// (~107 chars) — keep it short (/tmp/...); start() rejects longer.
  std::string socket_path;
  /// Concurrent job runner threads (the multi-tenancy width).
  std::size_t runners = 1;
  /// Submissions beyond this many queued-or-running jobs are rejected
  /// with a typed error frame rather than queued unboundedly.
  std::size_t max_queue = 64;
  /// Oversized-frame guard for client connections.
  std::size_t max_frame_bytes = 16u << 20;
  /// Jobs whose wall time meets this threshold are recorded in the
  /// slow-job log (telemetry surface) with a span summary.
  std::uint64_t slow_job_ms = 1000;
  /// Ring-buffer capacity of the telemetry event journal.
  std::size_t journal_capacity = 256;
  /// Crash durability (DESIGN.md §16): when non-empty, every computed
  /// job's lifecycle is write-ahead journalled here, an ok job's completed
  /// record carries its report (two fsyncs per computed job), a
  /// resubmission of a durable result is served from the journal with no
  /// record at all, and start() replays unfinished jobs from a previous
  /// life (they recompute). Empty = a purely in-memory daemon: the same
  /// bounded result index serves repeats, but nothing is written.
  std::string journal_dir;
  /// Journal compaction threshold (JournalOptions::rotate_bytes).
  std::uint64_t journal_rotate_bytes = 4u << 20;
  /// Per-tenant in-flight (queued + running) cap; 0 = unlimited. Breaches
  /// are shed with a typed retry-after frame, counted per tenant.
  std::size_t per_tenant_inflight = 0;
  /// Minimum retry-after hint for shed submissions (the hint grows with
  /// queue depth and the observed mean job time).
  std::uint64_t retry_after_floor_ms = 50;
  /// Drain-and-exit trigger; the CLI points this at its signal token so
  /// SIGTERM/SIGINT drain the daemon. Defaults to a live token.
  util::CancelToken shutdown = util::CancelToken::make();
  /// Test seam: called on the runner thread right after a job enters
  /// kRunning and before its compute starts. Lets the chaos/overload
  /// tests hold a runner busy deterministically. Null in production.
  std::function<void(const JobRequest&)> on_job_start;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens on options.socket_path (unlinking a stale socket
  /// file) and starts the runner threads. Typed error on failure.
  util::Status start();

  /// The accept loop; blocks until shutdown, then drains and returns 0.
  /// Call start() first.
  int serve();

  /// Counters for the stats verb and the tests.
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;   ///< status ok (incl. cache hits)
    std::uint64_t partial = 0;     ///< deadline/budget-stopped jobs
    std::uint64_t cancelled = 0;   ///< client-cancelled jobs
    std::uint64_t errors = 0;      ///< failed jobs
    std::uint64_t rejected = 0;    ///< all shed/refused submissions
    std::uint64_t retry_after = 0; ///< rejections sent as typed retry-after
    std::uint64_t shed_tenant_cap = 0;  ///< per-tenant in-flight breaches
    std::uint64_t shed_deadline = 0;    ///< unmeetable-deadline sheds
    std::uint64_t attached = 0;    ///< submits attached to an in-flight twin
    std::uint64_t result_hits = 0;    ///< jobs served from the result index
    std::uint64_t result_misses = 0;  ///< jobs that ran a compute
    std::uint64_t recovered = 0;   ///< jobs replayed from the WAL on start
    std::uint64_t protocol_errors = 0;  ///< malformed/oversized frames
    std::uint64_t queued = 0;      ///< current depth
    std::uint64_t running = 0;     ///< currently executing
  };
  Stats stats() const;
  /// Flat stats JSON: jobs.* counters, the result index's result.hits/
  /// .misses (the CI smoke steps grep these) and the ArtifactStore's
  /// store.workload.* counters.
  util::Json stats_json() const;

  /// One journal ring-buffer entry: a job lifecycle transition stamped
  /// with uptime, job id and tenant. "slow" entries additionally carry a
  /// span summary (the job's longest spans, when the obs layer is on).
  struct JournalEntry {
    std::uint64_t seq = 0;
    std::uint64_t at_ms = 0;  ///< server uptime at the event
    std::uint64_t job_id = 0;
    std::string tenant;
    std::string event;  ///< queued|recovered|started|ok|partial|cancelled|error|slow
    std::uint64_t elapsed_ms = 0;  ///< job wall time (terminal events)
    std::string detail;            ///< span summary / error text
  };

  /// The live introspection surface behind the telemetry verb
  /// (docs/service.md): queue/utilization gauges, per-tenant accounting,
  /// the event journal and the slow-job log.
  util::Json telemetry_json() const;

  ArtifactStore& store() { return store_; }
  const std::string& socket_path() const { return options_.socket_path; }

 private:
  struct Job {
    std::uint64_t id = 0;
    JobRequest request;
    util::CancelToken cancel = util::CancelToken::make();
    std::atomic<bool> client_cancelled{false};
    /// Canonical result key (canonical_hash over the resolved source);
    /// 0 when the source could not be resolved at admission time.
    std::uint64_t rkey = 0;
    /// The report, when the journal's result index held it at admission:
    /// the job is served from it and writes no journal record.
    std::optional<std::string> cached_report;
    /// Replayed from the WAL on restart: no originating connection, so a
    /// watcher disconnect must not cancel it.
    bool replayed = false;
    /// Connections currently streaming this job's lifecycle (the
    /// submitter plus attached idempotent resubmitters).
    std::atomic<int> watchers{0};

    std::mutex mu;
    std::condition_variable cv;
    enum class State { kQueued, kRunning, kDone } state = State::kQueued;
    JobOutcome outcome;  // filled by the runner before kDone
  };

  /// The admission-control verdict for one submission.
  struct Admission {
    std::shared_ptr<Job> job;  ///< non-null on accept (or attach)
    bool attached = false;     ///< an in-flight twin is serving this hash
    std::string why;           ///< rejection reason when job == nullptr
    /// >0: shed with a typed retry-after hint; 0: hard error (draining).
    std::uint64_t retry_after_ms = 0;
    /// Queue position at admission (0 = already claimed by a runner).
    std::uint64_t position = 0;
  };

  void runner_main();
  void connection_main(int fd);
  std::uint64_t uptime_ms() const;
  void journal_append(std::uint64_t job_id, const std::string& tenant,
                      std::string event, std::uint64_t elapsed_ms = 0,
                      std::string detail = {});
  /// Admission control: draining / duplicate-attach / per-tenant cap /
  /// queue depth / deadline shed, in that order (DESIGN.md §16).
  Admission admit(JobRequest request);
  /// Re-enqueues one WAL-recovered job, bypassing admission control (it
  /// was already admitted in a previous life).
  void enqueue_recovered(RecoveredJob job);
  /// The server-computed backoff hint: floor + estimated queue latency.
  std::uint64_t retry_hint_ms(std::size_t queue_depth) const;
  /// Mean wall time of completed jobs (0 when no history).
  std::uint64_t mean_job_ms() const;
  std::shared_ptr<Job> pop_job();
  void run_job(Job& job);
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  void begin_drain();

  ServerOptions options_;
  int listen_fd_ = -1;
  ArtifactStore store_;
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> next_job_id_{1};

  /// The write-ahead job journal (disabled when journal_dir is empty).
  /// Appends happen under queue_mu_ so WAL order == admission order.
  JobJournal wal_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  /// Every queued-or-running job, for duplicate-attach lookup; entries
  /// are erased when the job reaches kDone. Guarded by queue_mu_.
  std::vector<std::shared_ptr<Job>> inflight_;
  /// Per-tenant queued-or-running counts (admission cap). queue_mu_.
  std::vector<std::pair<std::string, std::size_t>> tenant_inflight_;

  mutable std::mutex stats_mu_;
  Stats stats_;
  /// Completed-job wall-time integral for the retry-after estimator.
  std::uint64_t finished_jobs_ = 0;
  std::uint64_t finished_ms_ = 0;

  /// Telemetry surface state (journal ring, slow-job log, per-tenant
  /// accounting, busy-time integral for the utilization gauge).
  struct TenantStats {
    std::uint64_t jobs = 0;
    std::uint64_t errors = 0;
    std::uint64_t busy_ms = 0;
    std::uint64_t shed = 0;  ///< admissions refused with retry-after
  };
  mutable std::mutex telemetry_mu_;
  std::deque<JournalEntry> journal_;
  std::uint64_t journal_seq_ = 0;
  std::deque<JournalEntry> slow_jobs_;
  std::vector<std::pair<std::string, TenantStats>> tenants_;
  std::uint64_t busy_ms_ = 0;

  std::vector<std::thread> runners_;
  std::mutex conns_mu_;
  std::vector<std::thread> conns_;
  std::chrono::steady_clock::time_point started_at_;
};

}  // namespace tracesel::service
