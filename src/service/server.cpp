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

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/// The delta of this thread's counter shard across a job (obs.hpp
/// thread_counter_values), as named counter pairs.
Counters metrics_delta_pairs(const Counters& before, const Counters& after) {
  Counters delta;
  std::size_t bi = 0;
  for (const auto& [name, value] : after) {
    std::uint64_t prev = 0;
    // Both vectors are in registration (id) order; advance in lockstep.
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

/// The request's canonical result key; 0 when its source cannot be
/// resolved (the job then skips the attach and cache paths, and its
/// compute surfaces the real error).
std::uint64_t result_key(const JobRequest& request) {
  const auto source = QueryCore::source_hash(request);
  return source.ok() ? request.canonical_hash(source.value()) : 0;
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
  // A failed start closes the socket (after the error text read errno).
  const auto fail = [this](util::Error e) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return e;
  };
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0)
    return fail({util::ErrorCode::kInternal,
                 "traceseld: bind(" + options_.socket_path +
                     ") failed: " + std::strerror(errno)});
  if (::listen(listen_fd_, 64) != 0)
    return fail({util::ErrorCode::kInternal,
                 std::string("traceseld: listen failed: ") +
                     std::strerror(errno)});

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
      ::unlink(options_.socket_path.c_str());
      return fail(rec.error());
    }
    JournalRecovery r = std::move(rec).value();
    if (r.next_job_id > next_job_id_.load(std::memory_order_relaxed))
      next_job_id_.store(r.next_job_id, std::memory_order_relaxed);
    // Admission control is bypassed: these jobs were admitted and
    // journalled in a previous life.
    for (RecoveredJob& j : r.pending) {
      const std::uint64_t rkey = result_key(j.request);
      auto job = std::make_shared<Job>(j.id, std::move(j.request), rkey);
      job->replayed = true;
      std::lock_guard<std::mutex> lk(queue_mu_);
      enqueue_locked(std::move(job));
    }
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
  const std::uint64_t finished = stats_.completed + stats_.partial +
                                 stats_.cancelled + stats_.errors;
  return finished > 0 ? stats_.busy_ms / finished : 0;
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
  // Resolve the key and look the result index up before taking queue_mu_:
  // resolving may read the spec file, and the index has its own lock. The
  // collision guard inside load_result re-checks same_computation.
  const std::uint64_t rkey = result_key(request);
  std::optional<std::string> cached;
  if (rkey != 0)
    if (auto hit = wal_.load_result(rkey, request); hit.ok())
      cached = std::move(hit).value();

  std::unique_lock<std::mutex> lk(queue_mu_);
  if (draining()) {
    a.why = "server is shutting down";
    std::lock_guard<std::mutex> slk(stats_mu_);
    ++stats_.rejected;
    return a;
  }

  // A result the index holds is answered here, on the connection thread:
  // no queue slot and no runner, so no backlog or cap can shed it, and no
  // journal record, because its answer was kept before it was admitted.
  if (cached) {
    lk.unlock();
    const std::uint64_t id =
        next_job_id_.fetch_add(1, std::memory_order_relaxed);
    journal_append(id, request.tenant, "queued");
    a.hit = execute(request, id, nullptr, [&](JobOutcome& out) {
      OBS_COUNT("svc.result.disk_hits", 1);
      out.report_json = std::move(*cached);
      out.cache_hit = true;
      out.status = "ok";
      return rkey;
    });
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

  // A shed answers with a typed retry-after hint rather than a hard error
  // and is counted against its tenant; `kind` is its stats counter, if any.
  const auto shed = [&](std::string why, std::uint64_t* kind) {
    a.retry_after_ms = retry_hint_ms(queue_.size());
    a.why = std::move(why);
    ++tenant_locked(request.tenant).shed;
    std::lock_guard<std::mutex> slk(stats_mu_);
    ++stats_.rejected;
    ++stats_.retry_after;
    if (kind != nullptr) ++*kind;
  };

  // Per-tenant in-flight cap: one noisy tenant cannot occupy the whole
  // queue.
  if (options_.per_tenant_inflight > 0 &&
      tenant_locked(request.tenant).inflight >= options_.per_tenant_inflight) {
    OBS_COUNT("svc.shed.tenant_cap", 1);
    shed("tenant '" + (request.tenant.empty() ? "-" : request.tenant) +
             "' is at its in-flight cap (" +
             std::to_string(options_.per_tenant_inflight) + ")",
         &stats_.shed_tenant_cap);
    return a;
  }

  if (queue_.size() >= options_.max_queue) {
    OBS_COUNT("svc.shed.queue_full", 1);
    shed("job queue is full (" + std::to_string(options_.max_queue) + ")",
         nullptr);
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
      OBS_COUNT("svc.shed.deadline", 1);
      shed("predicted queue wait " + std::to_string(wait) +
               "ms exceeds the job deadline " +
               std::to_string(request.deadline_ms) + "ms",
           &stats_.shed_deadline);
      return a;
    }
  }

  auto job = std::make_shared<Job>(
      next_job_id_.fetch_add(1, std::memory_order_relaxed), std::move(request),
      rkey);
  job->watchers.store(1, std::memory_order_relaxed);
  // WAL discipline: the job's accepted record is on disk (fsync'd) before
  // it becomes visible to any runner.
  wal_.accepted(job->id, job->request);
  enqueue_locked(job);
  a.position = queue_.size();
  a.job = std::move(job);
  return a;
}

void Server::enqueue_locked(std::shared_ptr<Job> job) {
  ++tenant_locked(job->request.tenant).inflight;
  queue_.push_back(job);
  inflight_.push_back(job);
  OBS_GAUGE_MAX("svc.queue.peak_depth", queue_.size());
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.submitted;
    if (job->replayed) ++stats_.recovered;
  }
  journal_append(job->id, job->request.tenant,
                 job->replayed ? "recovered" : "queued");
  queue_cv_.notify_one();
}

Server::TenantStats& Server::tenant_locked(const std::string& tenant) {
  auto it = std::find_if(tenants_.begin(), tenants_.end(),
                         [&](const auto& t) { return t.first == tenant; });
  return it != tenants_.end()
             ? it->second
             : tenants_.emplace_back(tenant, TenantStats{}).second;
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
  journal_append(job.id, job.request.tenant, "started");
  wal_.started(job.id);
  if (options_.on_job_start) options_.on_job_start(job.request);
  // The deadline starts when the job starts — queue time must not eat a
  // client's compute budget.
  job.cancel.set_timeout_ms(job.request.deadline_ms);

  JobOutcome done = execute(job.request, job.id, &job, [&](JobOutcome& out) {
    // The key of the bytes QueryCore::run compiled, not of the admission's
    // read: a spec file rewritten in between must not index its report
    // under the old bytes' key.
    std::uint64_t key = job.rkey;
    try {
      auto run = QueryCore::run(job.request, &store_, job.cancel);
      if (!run.ok()) {
        out.status = "error";
        out.error = run.error().to_string();
      } else {
        const QueryCore::Outcome& o = run.value();
        key = job.request.canonical_hash(o.workload->source_hash);
        out.workload_cache_hit = o.workload_cache_hit;
        // The exact bytes `tracesel select --json` prints, so clients can
        // diff daemon answers against the single-process CLI.
        out.report_json =
            selection::report_text(*o.workload->catalog, *o.result);
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
    return key;
  });
  {
    std::lock_guard<std::mutex> lk(job.mu);
    job.outcome = std::move(done);
    job.state = Job::State::kDone;
  }
  job.cv.notify_all();
}

JobOutcome Server::execute(
    const JobRequest& request, std::uint64_t id, const Job* computed,
    const std::function<std::uint64_t(JobOutcome&)>& body) {
  // A tracing client stamped its TraceContext into the request: enable
  // the obs layer (one-way — stats-only daemons stay zero-cost) so the
  // job's spans and counter deltas can ride back in the result frame.
  const bool tracing = request.trace_id != 0;
  if (tracing) obs::set_enabled(true);
  // Decided once, at job start: an unmetered job takes no counter
  // snapshot (each locks the registry and copies every name) and ships no
  // metrics or spans, even if another job turns the layer on meanwhile.
  const bool metered = obs::enabled();

  const auto t0 = std::chrono::steady_clock::now();
  Counters before;
  std::size_t events_mark = 0;
  if (metered) {
    before = obs::registry().thread_counter_values();
    events_mark = obs::thread_events_mark();
  }

  JobOutcome out;
  out.job_id = id;
  std::uint64_t rkey = 0;
  {
    // The job span parents under the *client's* submit span (explicit
    // parent: threads serve concurrent jobs with distinct parents, so the
    // process-global context cannot carry it).
    obs::Span job_span("svc.job", request.parent_span_id);
    OBS_COUNT("svc.jobs", 1);
    rkey = body(out);
  }

  Counters delta;
  if (metered) {
    delta =
        metrics_delta_pairs(before, obs::registry().thread_counter_values());
    util::Json j = util::Json::object();
    for (const auto& [name, value] : delta)
      j.set(name, util::Json::number(value));
    out.metrics_json = j.dump();
  }
  out.elapsed_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  // The per-job window of this thread's event buffer: the job's own spans
  // (svc.job and everything under it), not the whole process.
  std::vector<obs::TraceEvent> job_events =
      metered ? obs::thread_events_since(events_mark)
              : std::vector<obs::TraceEvent>{};
  if (tracing) {
    obs::ProcessTelemetry t;
    t.label = "traceseld";
    t.pid = static_cast<std::uint64_t>(::getpid());
    t.epoch_ns = obs::trace_epoch_ns();
    t.metrics.counters = std::move(delta);
    for (const obs::TraceEvent& e : job_events)
      t.events.push_back({e.name, e.ts_ns, e.dur_ns, e.tid, e.depth,
                          e.span_id, e.parent_id});
    out.telemetry = obs::serialize_telemetry(t);
  }

  // WAL terminal record before the outcome becomes visible: cancelled
  // jobs replay as cancelled, everything else (ok, partial, error) is
  // finished business a restart must not re-run. An ok job's record
  // carries its report, so one fsync makes the result durable too (with
  // no journal open, completed() only indexes it).
  if (computed) {
    if (out.status == "cancelled")
      wal_.cancelled(id);
    else if (out.status == "ok" && rkey != 0)
      wal_.completed(id, rkey, request, out.report_json);
    else
      wal_.completed(id, rkey);
  }

  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    if (computed) --stats_.running;
    else ++stats_.submitted;  // a hit is submitted and finished at once
    ++(computed ? stats_.result_misses : stats_.result_hits);
    if (out.status == "ok") ++stats_.completed;
    else if (out.status == "partial") ++stats_.partial;
    else if (out.status == "cancelled") ++stats_.cancelled;
    else ++stats_.errors;
    stats_.busy_ms += out.elapsed_ms;
  }
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    TenantStats& tenant = tenant_locked(request.tenant);
    if (computed) {
      // Release the admission-control slots (attach lookup + tenant cap).
      std::erase_if(inflight_,
                    [&](const auto& j) { return j.get() == computed; });
      --tenant.inflight;
    }
    ++tenant.jobs;
    if (out.status == "error") ++tenant.errors;
    tenant.busy_ms += out.elapsed_ms;
  }
  journal_append(id, request.tenant, out.status, out.elapsed_ms,
                 out.status == "error" ? out.error : std::string());
  if (out.elapsed_ms >= options_.slow_job_ms) {
    OBS_COUNT("svc.jobs.slow", 1);
    journal_append(id, request.tenant, "slow", out.elapsed_ms,
                   span_summary(job_events));
  }
  return out;
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
  // A slow entry also enters the bounded slow-job log, under the same
  // lock, so no concurrent append can take its place there.
  if (entry.event == "slow") {
    slow_jobs_.push_back(entry);
    if (slow_jobs_.size() > 32) slow_jobs_.pop_front();
  }
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
          if (adm.hit) {
            // Answered at admission: no started event, nothing to watch.
            send(encode_event("queued", 0));
            send(encode_result(*adm.hit));
            break;
          }
          if (!adm.job) {
            // admit() already counted the rejection; sheds carry a typed
            // retry-after hint, hard refusals (draining) a plain error.
            send(adm.retry_after_ms > 0
                     ? encode_retry_after(adm.retry_after_ms, adm.why)
                     : encode_error(adm.why));
            break;
          }
          active = std::move(adm.job);
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
  j.set("uptime_ms", util::Json::number(uptime_ms()));
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
  // Lock discipline: stats() takes stats_mu_ then queue_mu_, and the
  // tenant rows queue_mu_, each released before telemetry_mu_ below
  // (journal_append runs under queue_mu_ -> telemetry_mu_, so
  // telemetry_mu_ must always be innermost).
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

  j.set("busy_ms", util::Json::number(s.busy_ms));
  // Runner utilization over the daemon's lifetime: busy runner-ms over
  // elapsed runner-ms, clamped (in-flight jobs are not yet in busy_ms).
  const double capacity_ms =
      static_cast<double>(up) * static_cast<double>(options_.runners);
  const double util_ratio =
      capacity_ms > 0.0
          ? std::min(1.0, static_cast<double>(s.busy_ms) / capacity_ms)
          : 0.0;
  j.set("utilization", util::Json::number(util_ratio));

  util::Json tenants = util::Json::object();
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    for (const auto& [name, t] : tenants_) {
      if (t.jobs == 0 && t.shed == 0) continue;  // nothing finished yet
      util::Json tj = util::Json::object();
      tj.set("jobs", util::Json::number(t.jobs));
      tj.set("errors", util::Json::number(t.errors));
      tj.set("busy_ms", util::Json::number(t.busy_ms));
      if (t.shed != 0) tj.set("shed", util::Json::number(t.shed));
      tenants.set(name.empty() ? "-" : name, std::move(tj));
    }
  }
  j.set("tenants", std::move(tenants));

  std::lock_guard<std::mutex> lk(telemetry_mu_);
  util::Json journal = util::Json::array();
  for (const JournalEntry& e : journal_) journal.push_back(entry_json(e));
  j.set("journal", std::move(journal));

  util::Json slow = util::Json::array();
  for (const JournalEntry& e : slow_jobs_) slow.push_back(entry_json(e));
  j.set("slow_jobs", std::move(slow));
  return j;
}

}  // namespace tracesel::service
