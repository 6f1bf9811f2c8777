#include "service/server.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "debug/serialize.hpp"
#include "tracesel/query_core.hpp"
#include "util/framing.hpp"
#include "util/log.hpp"
#include "util/obs.hpp"

namespace tracesel::service {

namespace {

/// The accept/connection poll slice: long enough to stay cheap, short
/// enough that shutdown and job completion are noticed promptly.
constexpr int kPollMs = 100;

/// Per-job obs metrics: the delta of this thread's counter shard across
/// the job (obs.hpp thread_counter_values). Empty string when the obs
/// layer is off.
std::string metrics_delta_json(
    const std::vector<std::pair<std::string, std::uint64_t>>& before,
    const std::vector<std::pair<std::string, std::uint64_t>>& after) {
  if (!obs::enabled()) return {};
  util::Json j = util::Json::object();
  std::size_t bi = 0;
  for (const auto& [name, value] : after) {
    std::uint64_t prev = 0;
    // Both vectors are in registration (id) order; advance in lockstep.
    while (bi < before.size() && before[bi].first != name) ++bi;
    if (bi < before.size()) prev = before[bi].second;
    if (value > prev) j.set(name, util::Json::number(value - prev));
  }
  return j.dump();
}

/// The same before/after delta as named counter pairs, for the telemetry
/// shipped back to a tracing client.
std::vector<std::pair<std::string, std::uint64_t>> metrics_delta_pairs(
    const std::vector<std::pair<std::string, std::uint64_t>>& before,
    const std::vector<std::pair<std::string, std::uint64_t>>& after) {
  std::vector<std::pair<std::string, std::uint64_t>> delta;
  std::size_t bi = 0;
  for (const auto& [name, value] : after) {
    std::uint64_t prev = 0;
    while (bi < before.size() && before[bi].first != name) ++bi;
    if (bi < before.size()) prev = before[bi].second;
    if (value > prev) delta.emplace_back(name, value - prev);
  }
  return delta;
}

/// "svc.job 812ms, selection.step2.score 790ms, ..." — the job's longest
/// spans, for the slow-job log.
std::string span_summary(const std::vector<obs::TraceEvent>& events) {
  std::vector<const obs::TraceEvent*> by_dur;
  by_dur.reserve(events.size());
  for (const obs::TraceEvent& e : events) by_dur.push_back(&e);
  std::sort(by_dur.begin(), by_dur.end(),
            [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
              return a->dur_ns > b->dur_ns;
            });
  std::string out;
  const std::size_t top = std::min<std::size_t>(3, by_dur.size());
  for (std::size_t i = 0; i < top; ++i) {
    if (i != 0) out += ", ";
    out += by_dur[i]->name;
    out += ' ';
    out += std::to_string(by_dur[i]->dur_ns / 1000000);
    out += "ms";
  }
  return out;
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  if (options_.runners == 0) options_.runners = 1;
}

Server::~Server() {
  begin_drain();
  for (auto& t : runners_)
    if (t.joinable()) t.join();
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (auto& t : conns_)
      if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
}

util::Status Server::start() {
  if (options_.socket_path.empty())
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "traceseld: no socket path"};
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path))
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "traceseld: socket path '" + options_.socket_path +
                           "' exceeds the sun_path limit (" +
                           std::to_string(sizeof(addr.sun_path) - 1) +
                           " chars); use a shorter path"};
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size());

  util::ignore_sigpipe();  // a vanished client surfaces as EPIPE, not SIGPIPE
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    return util::Error{util::ErrorCode::kInternal,
                       std::string("traceseld: socket failed: ") +
                           std::strerror(errno)};
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Error{util::ErrorCode::kInternal,
                       "traceseld: bind(" + options_.socket_path +
                           ") failed: " + std::strerror(err)};
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Error{util::ErrorCode::kInternal,
                       std::string("traceseld: listen failed: ") +
                           std::strerror(err)};
  }

  // Crash durability: replay the write-ahead journal before the first
  // runner starts and before the socket is advertised, so recovered jobs
  // re-enter the queue in their original admission order ahead of any new
  // submissions.
  if (!options_.journal_dir.empty()) {
    JournalOptions jo;
    jo.dir = options_.journal_dir;
    jo.rotate_bytes = options_.journal_rotate_bytes;
    auto rec = wal_.open(std::move(jo));
    if (!rec.ok()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      ::unlink(options_.socket_path.c_str());
      return rec.error();
    }
    JournalRecovery r = std::move(rec).value();
    if (r.next_job_id > next_job_id_.load(std::memory_order_relaxed))
      next_job_id_.store(r.next_job_id, std::memory_order_relaxed);
    for (RecoveredJob& j : r.pending) enqueue_recovered(std::move(j));
    if (!r.note.empty())
      util::Log(util::LogLevel::kInfo) << "traceseld: " << r.note;
  }

  started_at_ = std::chrono::steady_clock::now();
  runners_.reserve(options_.runners);
  for (std::size_t i = 0; i < options_.runners; ++i)
    runners_.emplace_back([this] { runner_main(); });
  util::Log(util::LogLevel::kInfo)
      << "traceseld: listening on " << options_.socket_path << " ("
      << options_.runners << " runner(s))";
  return util::Status::success();
}

int Server::serve() {
  while (!draining()) {
    if (options_.shutdown.cancelled()) break;
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, kPollMs);
    if (r < 0) {
      if (errno == EINTR) continue;
      util::Log(util::LogLevel::kError)
          << "traceseld: poll failed: " << std::strerror(errno);
      break;
    }
    if (r == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) continue;
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns_.emplace_back([this, cfd] { connection_main(cfd); });
  }

  // Drain-and-exit: no new connections or submissions; queued jobs finish
  // and every waiting client gets its result frame before we return.
  begin_drain();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  for (auto& t : runners_) t.join();
  runners_.clear();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& t : conns) t.join();
  util::Log(util::LogLevel::kInfo) << "traceseld: drained, exiting";
  return 0;
}

void Server::begin_drain() {
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    draining_.store(true, std::memory_order_relaxed);
  }
  queue_cv_.notify_all();
}

std::uint64_t Server::mean_job_ms() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return finished_jobs_ > 0 ? finished_ms_ / finished_jobs_ : 0;
}

std::uint64_t Server::retry_hint_ms(std::size_t queue_depth) const {
  // Floor + the estimated time for the backlog to clear: depth+1 jobs at
  // the observed mean wall time, spread over the runner pool. With no
  // history yet, assume a small per-job cost so the hint still scales
  // with depth. Capped so a pathological backlog cannot tell clients to
  // sleep forever.
  const std::uint64_t mean = mean_job_ms();
  const std::uint64_t per_job = mean > 0 ? mean : 25;
  const std::uint64_t hint =
      options_.retry_after_floor_ms +
      per_job * (static_cast<std::uint64_t>(queue_depth) + 1) /
          std::max<std::uint64_t>(1, options_.runners);
  return std::min<std::uint64_t>(hint, 10000);
}

Server::Admission Server::admit(JobRequest request) {
  Admission a;
  // Resolve the content hash before taking queue_mu_ — it may read the
  // spec file. rkey == 0 means unresolvable here; run_job will surface
  // the real error, and the job simply skips the attach and cache paths.
  std::uint64_t rkey = 0;
  if (auto sh = QueryCore::source_hash(request); sh.ok())
    rkey = request.canonical_hash(sh.value());
  // The result cache: a result the journal's index holds (in memory alone
  // when no journal was opened) is served without a WAL record or a
  // recompute. The collision guard inside load_result re-checks
  // same_computation.
  std::optional<std::string> cached;
  if (rkey != 0)
    if (auto hit = wal_.load_result(rkey, request); hit.ok())
      cached = std::move(hit).value();

  // Per-tenant shed accounting happens outside queue_mu_ (telemetry_mu_
  // stays innermost); stats_mu_ nests under queue_mu_ as elsewhere.
  const auto note_shed = [this](const std::string& tenant) {
    std::lock_guard<std::mutex> lk(telemetry_mu_);
    auto it = std::find_if(tenants_.begin(), tenants_.end(),
                           [&](const auto& t) { return t.first == tenant; });
    if (it == tenants_.end()) {
      tenants_.emplace_back(tenant, TenantStats{});
      it = std::prev(tenants_.end());
    }
    ++it->second.shed;
  };

  std::unique_lock<std::mutex> lk(queue_mu_);
  if (draining()) {
    a.why = "server is shutting down";
    std::lock_guard<std::mutex> slk(stats_mu_);
    ++stats_.rejected;
    return a;
  }

  // Idempotent resubmission: an in-flight job for the same canonical hash
  // means this submission can just watch that job instead of queueing a
  // duplicate computation (same_computation guards hash collisions).
  // Attach only when the outcomes would agree: never to a job already
  // cancelled, and never across differing deadlines — a twin's tighter
  // deadline would hand this client a partial result it did not ask for.
  // (Cancel/attach/release decisions all serialize under queue_mu_.)
  if (rkey != 0) {
    for (const auto& j : inflight_) {
      if (j->rkey == rkey && !j->cancel.cancelled() &&
          j->request.deadline_ms == request.deadline_ms &&
          j->request.same_computation(request)) {
        j->watchers.fetch_add(1, std::memory_order_relaxed);
        a.job = j;
        a.attached = true;
        for (std::size_t i = 0; i < queue_.size(); ++i)
          if (queue_[i] == j) a.position = i + 1;
        OBS_COUNT("svc.jobs.attached", 1);
        std::lock_guard<std::mutex> slk(stats_mu_);
        ++stats_.attached;
        return a;
      }
    }
  }

  // Per-tenant in-flight cap: one noisy tenant cannot occupy the whole
  // queue. Shed with a typed retry-after rather than a hard error.
  if (options_.per_tenant_inflight > 0) {
    auto it = std::find_if(
        tenant_inflight_.begin(), tenant_inflight_.end(),
        [&](const auto& t) { return t.first == request.tenant; });
    if (it != tenant_inflight_.end() &&
        it->second >= options_.per_tenant_inflight) {
      a.retry_after_ms = retry_hint_ms(queue_.size());
      a.why = "tenant '" + (request.tenant.empty() ? "-" : request.tenant) +
              "' is at its in-flight cap (" +
              std::to_string(options_.per_tenant_inflight) + ")";
      OBS_COUNT("svc.shed.tenant_cap", 1);
      {
        std::lock_guard<std::mutex> slk(stats_mu_);
        ++stats_.rejected;
        ++stats_.retry_after;
        ++stats_.shed_tenant_cap;
      }
      lk.unlock();
      note_shed(request.tenant);
      return a;
    }
  }

  if (queue_.size() >= options_.max_queue) {
    a.retry_after_ms = retry_hint_ms(queue_.size());
    a.why = "job queue is full (" + std::to_string(options_.max_queue) + ")";
    OBS_COUNT("svc.shed.queue_full", 1);
    {
      std::lock_guard<std::mutex> slk(stats_mu_);
      ++stats_.rejected;
      ++stats_.retry_after;
    }
    lk.unlock();
    note_shed(request.tenant);
    return a;
  }

  // Deadline-aware shedding: if the backlog alone is predicted to outlast
  // the job's deadline, queueing it only wastes a runner on a job that
  // will start already doomed — shed it now with an honest hint.
  if (request.deadline_ms > 0) {
    const std::uint64_t wait =
        mean_job_ms() * static_cast<std::uint64_t>(queue_.size()) /
        std::max<std::uint64_t>(1, options_.runners);
    if (wait > 0 && wait >= request.deadline_ms) {
      a.retry_after_ms = retry_hint_ms(queue_.size());
      a.why = "predicted queue wait " + std::to_string(wait) +
              "ms exceeds the job deadline " +
              std::to_string(request.deadline_ms) + "ms";
      OBS_COUNT("svc.shed.deadline", 1);
      {
        std::lock_guard<std::mutex> slk(stats_mu_);
        ++stats_.rejected;
        ++stats_.retry_after;
        ++stats_.shed_deadline;
      }
      lk.unlock();
      note_shed(request.tenant);
      return a;
    }
  }

  auto job = std::make_shared<Job>();
  job->id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  job->request = std::move(request);
  job->rkey = rkey;
  job->cached_report = std::move(cached);
  job->watchers.store(1, std::memory_order_relaxed);
  // WAL discipline: a job that will compute has its accepted record on
  // disk (fsync'd) before it becomes visible to any runner. A cache hit
  // writes none: its answer was kept before it was admitted.
  if (!job->cached_report) wal_.accepted(job->id, job->request);
  queue_.push_back(job);
  inflight_.push_back(job);
  a.position = queue_.size();
  {
    auto it = std::find_if(
        tenant_inflight_.begin(), tenant_inflight_.end(),
        [&](const auto& t) { return t.first == job->request.tenant; });
    if (it == tenant_inflight_.end())
      tenant_inflight_.emplace_back(job->request.tenant, 1);
    else
      ++it->second;
  }
  OBS_GAUGE_MAX("svc.queue.peak_depth", queue_.size());
  {
    std::lock_guard<std::mutex> slk(stats_mu_);
    ++stats_.submitted;
  }
  journal_append(job->id, job->request.tenant, "queued");
  queue_cv_.notify_one();
  a.job = std::move(job);
  return a;
}

void Server::enqueue_recovered(RecoveredJob r) {
  // start()-only (single-threaded, pre-listen): admission control is
  // bypassed — these jobs were admitted and journalled in a previous life.
  std::uint64_t rkey = 0;
  if (auto sh = QueryCore::source_hash(r.request); sh.ok())
    rkey = r.request.canonical_hash(sh.value());
  std::lock_guard<std::mutex> lk(queue_mu_);
  auto job = std::make_shared<Job>();
  job->id = r.id;
  job->request = std::move(r.request);
  job->rkey = rkey;
  job->replayed = true;
  queue_.push_back(job);
  inflight_.push_back(job);
  {
    auto it = std::find_if(
        tenant_inflight_.begin(), tenant_inflight_.end(),
        [&](const auto& t) { return t.first == job->request.tenant; });
    if (it == tenant_inflight_.end())
      tenant_inflight_.emplace_back(job->request.tenant, 1);
    else
      ++it->second;
  }
  {
    std::lock_guard<std::mutex> slk(stats_mu_);
    ++stats_.submitted;
    ++stats_.recovered;
  }
  journal_append(job->id, job->request.tenant, "recovered");
  queue_cv_.notify_one();
}

std::shared_ptr<Server::Job> Server::pop_job() {
  std::unique_lock<std::mutex> lk(queue_mu_);
  queue_cv_.wait(lk, [this] { return !queue_.empty() || draining(); });
  if (queue_.empty()) return nullptr;  // draining
  auto job = queue_.front();
  queue_.pop_front();
  return job;
}

void Server::runner_main() {
  while (auto job = pop_job()) run_job(*job);
}

void Server::run_job(Job& job) {
  {
    std::lock_guard<std::mutex> lk(job.mu);
    job.state = Job::State::kRunning;
  }
  job.cv.notify_all();
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.running;
  }
  const bool cached = job.cached_report.has_value();
  journal_append(job.id, job.request.tenant, "started");
  if (!cached) wal_.started(job.id);
  if (options_.on_job_start) options_.on_job_start(job.request);
  // The deadline starts when the job starts — queue time must not eat a
  // client's compute budget.
  if (job.request.deadline_ms > 0)
    job.cancel.set_timeout(std::chrono::milliseconds(job.request.deadline_ms));

  // A tracing client stamped its TraceContext into the request: enable
  // the obs layer (one-way — stats-only daemons stay zero-cost) so the
  // job's spans and counter deltas can ride back in the result frame.
  const bool tracing = job.request.trace_id != 0;
  if (tracing) obs::set_enabled(true);

  const auto t0 = std::chrono::steady_clock::now();
  const auto before = obs::registry().thread_counter_values();
  const std::size_t events_mark = obs::thread_events_mark();

  JobOutcome out;
  out.job_id = job.id;
  {
    // The job span parents under the *client's* submit span (explicit
    // parent: runners serve concurrent jobs with distinct parents, so the
    // process-global context cannot carry it).
    obs::Span job_span("svc.job", job.request.parent_span_id);
    OBS_COUNT("svc.jobs", 1);
    if (cached) {
      // Admission found the exact report bytes in the result index.
      out.report_json = std::move(*job.cached_report);
      out.cache_hit = true;
      out.status = "ok";
      OBS_COUNT("svc.result.disk_hits", 1);
    } else try {
      auto run = QueryCore::run(job.request, &store_, job.cancel);
      if (!run.ok()) {
        out.status = "error";
        out.error = run.error().to_string();
      } else {
        const QueryCore::Outcome& o = run.value();
        out.workload_cache_hit = o.workload_cache_hit;
        // The exact bytes `tracesel select --json` prints, so clients can
        // diff daemon answers against the single-process CLI.
        out.report_json =
            selection::to_json(*o.workload->catalog, *o.result).dump(2);
        out.status = !o.result->partial
                         ? "ok"
                         : (job.client_cancelled.load(std::memory_order_relaxed)
                                ? "cancelled"
                                : "partial");
      }
    } catch (const util::CancelledError& e) {
      // A stage with no partial form (parse, interleave build) unwound.
      out.status = job.client_cancelled.load(std::memory_order_relaxed)
                       ? "cancelled"
                       : "partial";
      out.error = e.what();
    } catch (const std::exception& e) {
      out.status = "error";
      out.error = e.what();
    }
  }

  const auto after = obs::registry().thread_counter_values();
  out.metrics_json = metrics_delta_json(before, after);
  out.elapsed_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  // The per-job window of this runner thread's event buffer: the job's
  // own spans (svc.job and everything under it), not the whole process.
  std::vector<obs::TraceEvent> job_events =
      obs::enabled() ? obs::thread_events_since(events_mark)
                     : std::vector<obs::TraceEvent>{};
  if (tracing) {
    obs::ProcessTelemetry t;
    t.label = "traceseld";
    t.pid = static_cast<std::uint64_t>(::getpid());
    t.epoch_ns = obs::trace_epoch_ns();
    t.metrics.counters = metrics_delta_pairs(before, after);
    for (const obs::TraceEvent& e : job_events) {
      obs::WireTraceEvent w;
      w.name = e.name;
      w.ts_ns = e.ts_ns;
      w.dur_ns = e.dur_ns;
      w.tid = e.tid;
      w.depth = e.depth;
      w.span_id = e.span_id;
      w.parent_id = e.parent_id;
      t.events.push_back(std::move(w));
    }
    out.telemetry = obs::serialize_telemetry(t);
  }

  // WAL terminal record before the outcome becomes visible: cancelled
  // jobs replay as cancelled, everything else (ok, partial, error) is
  // finished business a restart must not re-run. An ok job's record
  // carries its report, so one fsync makes the result durable too (with
  // no journal open, completed() only indexes it). A cache hit has no
  // record to close.
  if (!cached) {
    if (out.status == "cancelled")
      wal_.cancelled(job.id);
    else if (out.status == "ok" && job.rkey != 0)
      wal_.completed(job.id, job.rkey, job.request, out.report_json);
    else
      wal_.completed(job.id, job.rkey);
  }

  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    --stats_.running;
    ++(cached ? stats_.result_hits : stats_.result_misses);
    if (out.status == "ok") ++stats_.completed;
    else if (out.status == "partial") ++stats_.partial;
    else if (out.status == "cancelled") ++stats_.cancelled;
    else ++stats_.errors;
    ++finished_jobs_;
    finished_ms_ += out.elapsed_ms;
  }
  {
    // Release the admission-control slots (attach lookup + tenant cap).
    std::lock_guard<std::mutex> lk(queue_mu_);
    inflight_.erase(
        std::remove_if(inflight_.begin(), inflight_.end(),
                       [&](const auto& j) { return j.get() == &job; }),
        inflight_.end());
    auto it = std::find_if(
        tenant_inflight_.begin(), tenant_inflight_.end(),
        [&](const auto& t) { return t.first == job.request.tenant; });
    if (it != tenant_inflight_.end() && it->second > 0) --it->second;
  }
  journal_append(job.id, job.request.tenant, out.status, out.elapsed_ms,
                 out.status == "error" ? out.error : std::string());
  {
    std::lock_guard<std::mutex> lk(telemetry_mu_);
    busy_ms_ += out.elapsed_ms;
    auto tenant = std::find_if(
        tenants_.begin(), tenants_.end(),
        [&](const auto& t) { return t.first == job.request.tenant; });
    if (tenant == tenants_.end()) {
      tenants_.emplace_back(job.request.tenant, TenantStats{});
      tenant = std::prev(tenants_.end());
    }
    ++tenant->second.jobs;
    if (out.status == "error") ++tenant->second.errors;
    tenant->second.busy_ms += out.elapsed_ms;
  }
  if (out.elapsed_ms >= options_.slow_job_ms) {
    OBS_COUNT("svc.jobs.slow", 1);
    journal_append(job.id, job.request.tenant, "slow", out.elapsed_ms,
                   span_summary(job_events));
    std::lock_guard<std::mutex> lk(telemetry_mu_);
    // journal_append copied the entry into the ring; mirror the newest
    // one into the bounded slow-job log.
    if (!journal_.empty()) {
      slow_jobs_.push_back(journal_.back());
      if (slow_jobs_.size() > 32) slow_jobs_.pop_front();
    }
  }
  {
    std::lock_guard<std::mutex> lk(job.mu);
    job.outcome = std::move(out);
    job.state = Job::State::kDone;
  }
  job.cv.notify_all();
}

std::uint64_t Server::uptime_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_at_)
          .count());
}

void Server::journal_append(std::uint64_t job_id, const std::string& tenant,
                            std::string event, std::uint64_t elapsed_ms,
                            std::string detail) {
  std::lock_guard<std::mutex> lk(telemetry_mu_);
  JournalEntry entry;
  entry.seq = ++journal_seq_;
  entry.at_ms = uptime_ms();
  entry.job_id = job_id;
  entry.tenant = tenant;
  entry.event = std::move(event);
  entry.elapsed_ms = elapsed_ms;
  entry.detail = std::move(detail);
  journal_.push_back(std::move(entry));
  while (journal_.size() > options_.journal_capacity) journal_.pop_front();
}

void Server::connection_main(int fd) {
  util::FrameReader reader(options_.max_frame_bytes);
  char buf[4096];
  std::shared_ptr<Job> active;
  bool started_sent = false;
  bool peer_gone = false;

  const auto send = [&](const std::string& payload) {
    if (peer_gone) return;
    if (!util::write_frame(fd, payload).ok()) peer_gone = true;
  };
  // Detach from the watched job; when this was its last watcher and
  // `cancel` is set, cancel it cooperatively. Replayed jobs are never
  // disconnect-cancelled: nobody held a connection to them to begin with,
  // and recovery must run them to completion.
  const auto release_active = [&](bool cancel) {
    if (!active) return;
    {
      // queue_mu_ serializes this against admit()'s attach check, so a
      // submission cannot attach to a job in the act of being cancelled.
      std::lock_guard<std::mutex> lk(queue_mu_);
      const int left =
          active->watchers.fetch_sub(1, std::memory_order_acq_rel) - 1;
      if (cancel && left <= 0 && !active->replayed) {
        active->client_cancelled.store(true, std::memory_order_relaxed);
        active->cancel.cancel();
      }
    }
    active.reset();
  };

  while (!peer_gone) {
    if (active) {
      // Watch the job between socket polls; stream lifecycle transitions.
      Job::State state;
      JobOutcome outcome;
      {
        std::lock_guard<std::mutex> lk(active->mu);
        state = active->state;
        if (state == Job::State::kDone) outcome = active->outcome;
      }
      if (state != Job::State::kQueued && !started_sent) {
        send(encode_event("started", 0));
        started_sent = true;
      }
      if (state == Job::State::kDone) {
        send(encode_result(outcome));
        release_active(/*cancel=*/false);
        started_sent = false;
        continue;
      }
      // Block on the job's cv (run_job notifies every transition) so the
      // result streams without polling latency; time out at kPollMs to
      // keep watching the socket for cancel frames and disconnects.
      {
        std::unique_lock<std::mutex> lk(active->mu);
        active->cv.wait_for(lk, std::chrono::milliseconds(kPollMs), [&] {
          return active->state != (started_sent ? Job::State::kRunning
                                                : Job::State::kQueued);
        });
      }
    } else if (draining()) {
      break;  // idle connection during drain
    }

    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, active ? 0 : kPollMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      // Disconnect cancels the client's in-flight job — when this was its
      // last watcher: nobody is waiting for the answer, so stop burning
      // the machine on it. Attached twins keep it alive.
      release_active(/*cancel=*/true);
      break;
    }
    reader.feed(buf, static_cast<std::size_t>(n));

    std::string payload;
    while (!peer_gone) {
      const auto st = reader.next(payload);
      if (st == util::FrameReader::State::kNeedMore) break;
      if (st == util::FrameReader::State::kCorrupt) {
        // Malformed/oversized frame: typed rejection, then drop the
        // connection — the stream cannot be resynchronized.
        {
          std::lock_guard<std::mutex> lk(stats_mu_);
          ++stats_.protocol_errors;
        }
        send(encode_error("protocol error: " + reader.corrupt_reason()));
        peer_gone = true;
        break;
      }
      auto msg = parse_message(payload);
      if (!msg.ok()) {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.protocol_errors;
        send(encode_error(msg.error().to_string()));
        continue;
      }
      Message& m = msg.value();
      switch (m.type) {
        case MessageType::kPing:
          send(encode_simple(MessageType::kPong));
          break;
        case MessageType::kStats:
          send(encode_stats_result(stats_json().dump(2)));
          break;
        case MessageType::kTelemetry:
          send(encode_telemetry_result(telemetry_json().dump(2)));
          break;
        case MessageType::kStop:
          begin_drain();
          send(encode_simple(MessageType::kOk));
          break;
        case MessageType::kCancel:
          // A cancel frame kills the job only when this connection is its
          // sole watcher — attached twins still want the answer. Either
          // way the canceller keeps streaming and takes the shared result
          // as authoritative.
          if (active) {
            std::lock_guard<std::mutex> lk(queue_mu_);
            if (active->watchers.load(std::memory_order_relaxed) <= 1) {
              active->client_cancelled.store(true, std::memory_order_relaxed);
              active->cancel.cancel();
            }
          }
          send(encode_simple(MessageType::kOk));
          break;
        case MessageType::kSubmit: {
          if (active) {
            send(encode_error(
                "a job is already in flight on this connection"));
            break;
          }
          Admission adm = admit(std::move(m.request));
          if (!adm.job) {
            // admit() already counted the rejection; sheds carry a typed
            // retry-after hint, hard refusals (draining) a plain error.
            send(adm.retry_after_ms > 0
                     ? encode_retry_after(adm.retry_after_ms, adm.why)
                     : encode_error(adm.why));
            break;
          }
          active = std::move(adm.job);
          started_sent = false;
          send(encode_event(adm.attached ? "attached" : "queued",
                            adm.position));
          break;
        }
        default:
          send(encode_error("unexpected verb on a client connection"));
          break;
      }
    }
  }
  release_active(/*cancel=*/true);  // send failure path: the client is gone
  ::close(fd);
}

Server::Stats Server::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    s = stats_;
  }
  std::lock_guard<std::mutex> lk(queue_mu_);
  s.queued = queue_.size();
  return s;
}

util::Json Server::stats_json() const {
  const Stats s = stats();
  const ArtifactStore::Stats ss = store_.stats();
  util::Json j = util::Json::object();
  j.set("uptime_ms",
        util::Json::number(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - started_at_)
                .count())));
  j.set("runners", util::Json::number(std::uint64_t{options_.runners}));
  j.set("jobs.submitted", util::Json::number(s.submitted));
  j.set("jobs.completed", util::Json::number(s.completed));
  j.set("jobs.partial", util::Json::number(s.partial));
  j.set("jobs.cancelled", util::Json::number(s.cancelled));
  j.set("jobs.errors", util::Json::number(s.errors));
  j.set("jobs.rejected", util::Json::number(s.rejected));
  j.set("jobs.retry_after", util::Json::number(s.retry_after));
  j.set("jobs.shed.tenant_cap", util::Json::number(s.shed_tenant_cap));
  j.set("jobs.shed.deadline", util::Json::number(s.shed_deadline));
  j.set("jobs.attached", util::Json::number(s.attached));
  j.set("jobs.recovered", util::Json::number(s.recovered));
  j.set("jobs.protocol_errors", util::Json::number(s.protocol_errors));
  j.set("jobs.queued", util::Json::number(s.queued));
  j.set("jobs.running", util::Json::number(s.running));
  if (wal_.enabled()) {
    j.set("journal.bytes", util::Json::number(wal_.bytes()));
    j.set("journal.records", util::Json::number(wal_.records_appended()));
    j.set("journal.rotations", util::Json::number(wal_.rotations()));
  }
  j.set("result.hits", util::Json::number(s.result_hits));
  j.set("result.misses", util::Json::number(s.result_misses));
  j.set("store.workload.hits", util::Json::number(ss.workload_hits));
  j.set("store.workload.misses", util::Json::number(ss.workload_misses));
  j.set("store.workload.entries", util::Json::number(ss.workload_entries));
  return j;
}

util::Json Server::telemetry_json() const {
  // Lock discipline: stats() takes stats_mu_ then queue_mu_ and releases
  // both before telemetry_mu_ below (journal_append runs under queue_mu_ ->
  // telemetry_mu_, so telemetry_mu_ must always be innermost).
  const Stats s = stats();
  const std::uint64_t up = uptime_ms();

  const auto entry_json = [](const JournalEntry& e) {
    util::Json j = util::Json::object();
    j.set("seq", util::Json::number(e.seq));
    j.set("at_ms", util::Json::number(e.at_ms));
    j.set("job", util::Json::number(e.job_id));
    if (!e.tenant.empty()) j.set("tenant", util::Json::string(e.tenant));
    j.set("event", util::Json::string(e.event));
    if (e.elapsed_ms != 0) j.set("elapsed_ms", util::Json::number(e.elapsed_ms));
    if (!e.detail.empty()) j.set("detail", util::Json::string(e.detail));
    return j;
  };

  util::Json j = util::Json::object();
  j.set("uptime_ms", util::Json::number(up));
  j.set("runners", util::Json::number(std::uint64_t{options_.runners}));
  j.set("slow_job_threshold_ms", util::Json::number(options_.slow_job_ms));
  j.set("queue.depth", util::Json::number(s.queued));
  j.set("queue.max", util::Json::number(std::uint64_t{options_.max_queue}));
  j.set("jobs.running", util::Json::number(s.running));
  j.set("jobs.submitted", util::Json::number(s.submitted));
  j.set("jobs.completed", util::Json::number(s.completed));
  j.set("jobs.errors", util::Json::number(s.errors));
  j.set("jobs.retry_after", util::Json::number(s.retry_after));
  j.set("jobs.attached", util::Json::number(s.attached));
  j.set("jobs.recovered", util::Json::number(s.recovered));
  if (options_.per_tenant_inflight > 0)
    j.set("tenant_inflight_cap",
          util::Json::number(std::uint64_t{options_.per_tenant_inflight}));
  if (wal_.enabled()) {
    util::Json wj = util::Json::object();
    wj.set("dir", util::Json::string(wal_.dir()));
    wj.set("bytes", util::Json::number(wal_.bytes()));
    wj.set("records", util::Json::number(wal_.records_appended()));
    wj.set("rotations", util::Json::number(wal_.rotations()));
    j.set("wal", std::move(wj));
  }

  std::lock_guard<std::mutex> lk(telemetry_mu_);
  j.set("busy_ms", util::Json::number(busy_ms_));
  // Runner utilization over the daemon's lifetime: busy runner-ms over
  // elapsed runner-ms, clamped (in-flight jobs are not yet in busy_ms_).
  const double capacity_ms =
      static_cast<double>(up) * static_cast<double>(options_.runners);
  const double util_ratio =
      capacity_ms > 0.0
          ? std::min(1.0, static_cast<double>(busy_ms_) / capacity_ms)
          : 0.0;
  j.set("utilization", util::Json::number(util_ratio));

  util::Json tenants = util::Json::object();
  for (const auto& [name, t] : tenants_) {
    util::Json tj = util::Json::object();
    tj.set("jobs", util::Json::number(t.jobs));
    tj.set("errors", util::Json::number(t.errors));
    tj.set("busy_ms", util::Json::number(t.busy_ms));
    if (t.shed != 0) tj.set("shed", util::Json::number(t.shed));
    tenants.set(name.empty() ? "-" : name, std::move(tj));
  }
  j.set("tenants", std::move(tenants));

  util::Json journal = util::Json::array();
  for (const JournalEntry& e : journal_) journal.push_back(entry_json(e));
  j.set("journal", std::move(journal));

  util::Json slow = util::Json::array();
  for (const JournalEntry& e : slow_jobs_) slow.push_back(entry_json(e));
  j.set("slow_jobs", std::move(slow));
  return j;
}

}  // namespace tracesel::service
