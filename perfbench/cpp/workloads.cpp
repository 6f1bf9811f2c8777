#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "pipeline.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/obs.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace obs = tracesel::obs;

constexpr const char* kDataDir = "data";
/// Scratch space of a run (daemon sockets and journals), removed after use.
constexpr const char* kRunDir = ".bench_build/run";
/// A serial workload times its set-up this many times before its passes,
/// once between passes and this many times after them; setup_s is the
/// median of all. The first two or three set-ups of a process are cold
/// (heap growth, first page faults) and take 2-3x as long, and the host's
/// speed drifts over seconds, so five back-to-back set-ups gave a median
/// that moved by 50% from run to run.
constexpr int kSetupReps = 11;

// Nine widths: with an odd count of equally frequent request kinds, p50
// falls inside one kind's samples rather than on the gap between two
// kinds.
const std::vector<std::uint32_t> kSweepWidths = {32,  64,  96,  128, 160,
                                                 192, 256, 384, 512};
const std::vector<std::uint32_t> kDaemonWidths = {8, 16, 32, 64, 128, 256};
const std::vector<std::uint64_t> kTrialSeeds = {2018, 7, 42};
/// Case studies 3 and 4 take ~6 ms, 1 and 2 ~14 ms and 5 ~55 ms. Case 5 is
/// sent twice per pass, so the three groups are equally frequent: p50 then
/// lies in the middle of the 1-2 group rather than on its fast edge, where
/// it moved with every fast or slow pass.
constexpr int kTwiceSentCase = 5;
/// Occurrences of each daemon-mix request per pass: one cold, the rest
/// repeats.
constexpr int kDaemonCopies = 3;
constexpr std::size_t kDaemonRunners = 2;

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

constexpr std::string_view kCoverageSpan = "bench.selection.coverage";

/// Summed duration of the spans called `name` in `events`, ms.
double span_ms(const std::vector<obs::TraceEvent>& events,
               std::string_view name) {
  double ns = 0;
  for (const obs::TraceEvent& e : events)
    if (name == e.name) ns += static_cast<double>(e.dur_ns);
  return ns / 1e6;
}

/// Summed duration of the benchmark's top-level spans that lie inside the
/// requests' wall clocks (all but coverage, timed after a request), ms.
double request_span_ms(const std::vector<obs::TraceEvent>& events) {
  double ns = 0;
  for (const obs::TraceEvent& e : events) {
    const std::string_view name = e.name;
    if (e.depth == 0 && name.rfind("bench.", 0) == 0 && name != kCoverageSpan)
      ns += static_cast<double>(e.dur_ns);
  }
  return ns / 1e6;
}

/// Maps the benchmark's spans, recorded on this thread during one pass,
/// onto per-layer metric names.
void add_span_totals(LayerSamples& layers,
                     const std::vector<obs::TraceEvent>& events) {
  static const std::vector<std::pair<std::string_view, const char*>> kSpans = {
      {"bench.flow.parse", "flow.parse.ms"},
      {"bench.flow.interleave", "flow.interleave.ms"},
      {"bench.selection.gain_engine", "selection.gain_engine.ms"},
      {"bench.selection.select", "selection.select.ms"},
      {kCoverageSpan, "selection.coverage.ms"},
      {"bench.report.serialize", "report.serialize.ms"},
      {"bench.flow.interleave.concrete", "flow.interleave.concrete_ms"},
      {"bench.flow.kernel.compile", "flow.kernel.compile_ms"},
      {"bench.selection.localize", "selection.localize.ms"},
      {"bench.soc.simulate", "soc.simulate.ms"},
      {"bench.debug.root_cause", "debug.root_cause.ms"},
  };
  for (const auto& [span, metric] : kSpans) {
    const double total = span_ms(events, span);
    if (total > 0) layers.add(metric, total);
  }
}

void add_sizes(LayerSamples& layers, const LayerSizes& sizes) {
  if (sizes.nodes == 0) return;
  layers.add("flow.interleave.nodes", sizes.nodes);
  layers.add("flow.interleave.edges", sizes.edges);
  layers.add("flow.interleave.product_states", sizes.product_states);
  layers.add("flow.interleave.rss_mb", sizes.interleave_rss_mb);
  layers.add("selection.gain_engine.rss_mb", sizes.gain_engine_rss_mb);
}

/// Latency percentile q of each pass's requests, lowest over passes. A pass
/// is one round of the workload's fixed request set. The host's speed
/// drifts by 15-40% in phases of many seconds; the best pass of a run is
/// the one least slowed by them, and its value moved about half as much
/// between 15-s windows as the median pass's. A stall that hits only some
/// passes does not show in it.
double best_pass_percentile(
    const std::vector<std::vector<double>>& pass_latencies, double q) {
  std::vector<double> per_pass;
  for (const std::vector<double>& latencies : pass_latencies)
    per_pass.push_back(percentile(latencies, q));
  return percentile(per_pass, 0);
}

Report end_to_end(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<double>& setup_s,
                  const std::vector<double>& pass_wall_s,
                  const std::vector<std::vector<double>>& pass_latencies_ms,
                  const std::vector<double>& pass_peak_rss_mb) {
  double peak_sum_mb = 0;
  for (double p : pass_peak_rss_mb) peak_sum_mb += p;
  std::size_t requests = 0;
  for (const std::vector<double>& l : pass_latencies_ms) requests += l.size();
  Report r;
  r.attempted = attempted;
  r.failed = failed;
  r.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"wall_s", percentile(pass_wall_s, 0), "s"},  // the fastest pass
      {"latency_ms_p50", best_pass_percentile(pass_latencies_ms, 0.50), "ms"},
      {"latency_ms_p99", best_pass_percentile(pass_latencies_ms, 0.99), "ms"},
      {"peak_rss_mb",
       peak_sum_mb / static_cast<double>(pass_peak_rss_mb.size()), "MiB"},
  };
  std::cerr << "perfbench: " << requests << " requests in "
            << pass_wall_s.size() << " passes (pass wall s: min "
            << percentile(pass_wall_s, 0) << ", median " << median(pass_wall_s)
            << ", max " << percentile(pass_wall_s, 1) << "; peak MiB: min "
            << percentile(pass_peak_rss_mb, 0) << ", max "
            << percentile(pass_peak_rss_mb, 1) << "), " << failed
            << " failed; set-up s:";
  for (double s : setup_s) std::cerr << ' ' << s;
  std::cerr << '\n';
  return r;
}

Report per_layer(std::uint64_t attempted, std::uint64_t failed,
                 const LayerSamples& layers, const TruthCheck& truth) {
  for (const std::string& note : truth.notes)
    std::cerr << "perfbench: telemetry disagrees: " << note << '\n';
  Report r;
  r.attempted = attempted;
  r.failed = failed;
  for (const auto& [name, unit] : per_layer_metrics())
    r.metrics.push_back({name, layers.value(name), unit});
  return r;
}

/// Set-up's warm-up request: run once, checked against its reference.
void warm_up(References& refs, const std::string& key,
             const std::function<std::string()>& run) {
  if (!refs.matches(key, run()))
    throw std::runtime_error("warm-up request " + key + " differs");
}

// --- serial workloads (t2x2, t2x1-sweep, debug-cases) -------------------

struct TracedOutcome {
  std::string output;
  double wall_ms = 0;  ///< the request itself, without after-the-fact checks
  bool checks_ok = true;
};

/// One request of a serial workload: its reference key and the two ways to
/// run it.
struct Job {
  std::string key;
  std::function<std::string()> run;
  std::function<TracedOutcome(TruthCheck& truth, LayerSizes& sizes)>
      run_traced;
};

using PassMaker = std::function<std::vector<Job>(Rng& rng)>;

/// Passes over the workload's request set until `seconds` are used (at
/// least one). Untraced: end-to-end metrics. Traced: the same number of
/// traced passes and then untraced ones, for the overhead ratio.
Report run_serial(const Options& o, const std::function<void()>& setup,
                  const PassMaker& make_pass, References& refs) {
  std::vector<double> setup_s;
  const auto time_setups = [&](int reps) {
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      setup();
      setup_s.push_back(ms_since(t0) / 1000.0);
    }
  };
  time_setups(kSetupReps);
  Rng rng(o.seed);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::vector<double> peaks;
  std::map<std::string, std::vector<double>> by_key;
  const auto untraced_pass = [&](std::vector<double>* latencies) {
    const std::vector<Job> jobs = make_pass(rng);
    reset_peak_rss();
    const auto t0 = Clock::now();
    for (const Job& job : jobs) {
      const auto t = Clock::now();
      const std::string out = job.run();
      if (latencies) {
        latencies->push_back(ms_since(t));
        by_key[job.key].push_back(latencies->back());
      }
      ++attempted;
      if (!refs.matches(job.key, out)) {
        ++failed;
        std::cerr << "perfbench: " << job.key << ": output differs\n";
      }
    }
    const double wall_s = ms_since(t0) / 1000.0;
    peaks.push_back(peak_rss_mb());
    return wall_s;
  };

  const auto start = Clock::now();
  const auto time_left = [&] { return ms_since(start) < o.seconds * 1000.0; };
  if (!o.trace) {
    std::vector<double> walls;
    std::vector<std::vector<double>> latencies;
    do {
      if (!walls.empty()) time_setups(1);
      walls.push_back(untraced_pass(&latencies.emplace_back()));
    } while (time_left());
    time_setups(kSetupReps);
    std::cerr << "perfbench: median ms per request:";
    for (const auto& [key, ms] : by_key)
      std::cerr << ' ' << key << '=' << median(ms);
    std::cerr << '\n';
    return end_to_end(attempted, failed, setup_s, walls, latencies, peaks);
  }

  obs::set_enabled(true);
  LayerSamples layers;
  TruthCheck truth;
  std::vector<double> traced_walls;
  do {
    LayerSizes sizes;
    const std::uint64_t mismatches_before = truth.mismatches;
    const std::size_t mark = obs::thread_events_mark();
    double wall_ms = 0;
    for (const Job& job : make_pass(rng)) {
      const TracedOutcome r = job.run_traced(truth, sizes);
      wall_ms += r.wall_ms;
      ++attempted;
      if (!r.checks_ok || !refs.matches(job.key, r.output)) {
        ++failed;
        std::cerr << "perfbench: " << job.key << ": traced output differs\n";
      }
    }
    const std::vector<obs::TraceEvent> spans = obs::thread_events_since(mark);
    traced_walls.push_back(wall_ms);
    add_span_totals(layers, spans);
    add_sizes(layers, sizes);
    layers.add("traced_wall_ms", wall_ms);
    layers.add("dark_ms", wall_ms - request_span_ms(spans));
    layers.add("obs.counter_mismatches",
               static_cast<double>(truth.mismatches - mismatches_before));
  } while (time_left());
  obs::set_enabled(false);

  std::vector<double> untraced_walls;
  for (std::size_t i = 0; i < traced_walls.size(); ++i)
    untraced_walls.push_back(untraced_pass(nullptr) * 1000.0);
  layers.add("trace_overhead_frac",
             median(traced_walls) / median(untraced_walls) - 1.0);
  return per_layer(attempted, failed, layers, truth);
}

Job select_job(const SelectCase& c) {
  Job job;
  job.key = c.key;
  job.run = [req = c.request] { return run_select(req); };
  job.run_traced = [req = c.request](TruthCheck& truth, LayerSizes& sizes) {
    TracedOutcome out;
    const auto t0 = Clock::now();
    auto workload = build_traced(req, truth, sizes);
    TracedSelect sel = select_traced(*workload, req);
    out.wall_ms = ms_since(t0);
    out.checks_ok = time_coverage(*workload, sel.result);
    check_search_counters(*workload, req, sel, truth);
    out.output = std::move(sel.report);
    return out;
  };
  return job;
}

PassMaker t2x2_pass() {
  return [](Rng&) {
    return std::vector<Job>{select_job(t2flow_case(kDataDir, 2, 32))};
  };
}

PassMaker sweep_pass() {
  return [](Rng& rng) {
    std::vector<std::uint32_t> widths = kSweepWidths;
    rng.shuffle(widths);
    std::vector<Job> jobs;
    for (std::uint32_t w : widths)
      jobs.push_back(select_job(t2flow_case(kDataDir, 1, w)));
    return jobs;
  };
}

PassMaker debug_pass(const soc::T2Design& design) {
  return [&design](Rng& rng) {
    std::vector<DebugCase> cases;
    for (const DebugCase& c : reference_debug_cases()) {
      cases.push_back(c);
      if (c.study.id == kTwiceSentCase) cases.push_back(c);
    }
    rng.shuffle(cases);
    std::vector<Job> jobs;
    for (const DebugCase& c : cases) {
      Job job;
      job.key = c.key;
      job.run = [&design, c] { return run_case(design, c); };
      job.run_traced = [&design, c](TruthCheck& truth, LayerSizes& sizes) {
        TracedOutcome out;
        const auto t0 = Clock::now();
        out.output = run_case_traced(design, c, truth, sizes);
        out.wall_ms = ms_since(t0);
        return out;
      };
      jobs.push_back(std::move(job));
    }
    return jobs;
  };
}

std::vector<std::string> keys_of(const std::vector<Job>& jobs) {
  std::vector<std::string> keys;
  for (const Job& j : jobs) keys.push_back(j.key);
  return keys;
}

// --- daemon-mix --------------------------------------------------------

/// The distinct computations of daemon-mix: T2 scenarios 1-4, USB and
/// Fig. 2 (inline spec text) at 2 instances, data/t2.flow at 1 instance,
/// each at every daemon width.
std::vector<SelectCase> daemon_pool(const std::string& fig2_text) {
  std::vector<SelectCase> pool;
  for (std::uint32_t w : kDaemonWidths) {
    for (int s = 1; s <= 4; ++s) pool.push_back(t2_scenario_case(s, w));
    pool.push_back(usb_case(w));
    pool.push_back(fig2_case(fig2_text, w));
    pool.push_back(t2flow_case(kDataDir, 1, w));
  }
  return pool;
}

/// Every pool entry kDaemonCopies times, in seeded order: the first
/// occurrence of an entry misses the result cache (and hits the workload
/// cache unless it is the first of its spec), the others are repeats. Each
/// pass draws a new order, so a run averages over many orders rather than
/// measuring the one its seed picked.
std::vector<std::size_t> daemon_sequence(std::size_t pool_size, Rng& rng) {
  std::vector<std::size_t> seq;
  for (int copy = 0; copy < kDaemonCopies; ++copy)
    for (std::size_t i = 0; i < pool_size; ++i) seq.push_back(i);
  rng.shuffle(seq);
  return seq;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec))
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  return bytes;
}

/// An in-process traceseld with its own journal directory; stopped,
/// joined and removed on destruction.
class Daemon {
 public:
  Daemon(const std::string& dir, const std::string& socket) : dir_(dir) {
    fs::create_directories(dir_);
    tracesel::service::ServerOptions options;
    options.socket_path = socket;
    options.runners = kDaemonRunners;
    options.journal_dir = dir_ + "/journal";
    options.shutdown = shutdown_;
    server_ = std::make_unique<tracesel::service::Server>(std::move(options));
    const auto started = server_->start();
    if (!started.ok()) throw std::runtime_error(started.error().to_string());
    serve_ = std::thread([this] { server_->serve(); });
  }
  ~Daemon() {
    shutdown_.cancel();
    if (serve_.joinable()) serve_.join();
    server_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  tracesel::service::Server& server() { return *server_; }
  std::uint64_t journal_bytes() const { return dir_bytes(dir_ + "/journal"); }

 private:
  std::string dir_;
  tracesel::util::CancelToken shutdown_ = tracesel::util::CancelToken::make();
  std::unique_ptr<tracesel::service::Server> server_;
  std::thread serve_;
};

struct Reply {
  double submit_ms = 0;
  double started_ms = -1;  ///< -1: no "started" event (attached to a twin)
  double done_ms = 0;
  double server_ms = 0;    ///< the daemon's own job timer
  bool ok = false;
  bool cache_hit = false;
  bool attached = false;   ///< shared an in-flight twin's outcome
  std::string report;
};

/// Runs the sequence closed loop: each client sends its next request only
/// after the previous reply arrived.
std::vector<Reply> drive(const std::string& socket,
                         const std::vector<SelectCase>& pool,
                         const std::vector<std::size_t>& seq,
                         std::size_t clients, Clock::time_point epoch) {
  std::vector<Reply> replies(seq.size());
  std::atomic<std::size_t> next{0};
  const auto client_main = [&] {
    auto client = tracesel::service::Client::connect(socket);
    for (std::size_t i; (i = next.fetch_add(1)) < seq.size();) {
      Reply& r = replies[i];
      r.submit_ms = ms_since(epoch);
      if (!client.ok()) {
        r.done_ms = r.submit_ms;
        continue;
      }
      auto out = client.value().submit(
          pool[seq[i]].request, {},
          [&](std::string_view status, std::uint64_t) {
            if (status == "started") r.started_ms = ms_since(epoch);
            if (status == "attached") r.attached = true;
          });
      r.done_ms = ms_since(epoch);
      if (out.ok()) {
        r.ok = out.value().ok();
        r.cache_hit = out.value().cache_hit;
        r.server_ms = static_cast<double>(out.value().elapsed_ms);
        r.report = std::move(out.value().report_json);
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client_main);
  for (auto& t : threads) t.join();
  return replies;
}

Report run_daemon_mix(const Options& o) {
  const std::string socket =
      std::string(kRunDir) + "/d" + std::to_string(::getpid()) + ".sock";
  // One closed-loop client. With two, whether the runners' slow jobs
  // overlapped changed from pass to pass, and with it the pass wall, the
  // peak resident set and p90 (small cold jobs queued behind t2.flow
  // jobs): p90 moved twice as much as the wall when the host slowed. With
  // four, the p50 swung 0.6-2.9 ms from pass to pass.
  constexpr std::size_t clients = 1;
  References refs(kRefsDir);
  std::vector<SelectCase> pool;
  std::vector<std::size_t> seq;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> walls_s;
  std::vector<std::vector<double>> latencies;  // per pass
  LayerSamples layers;
  TruthCheck truth;

  // One pass: a fresh daemon (set-up, timed), the sequence, and the checks.
  Rng order_rng(o.seed);
  int pass_no = 0;
  std::vector<double> peaks;
  const auto pass = [&](bool traced) {
    reset_peak_rss();
    const auto t0 = Clock::now();
    const std::string fig2 = read_text(std::string(kDataDir) + "/fig2.flow");
    pool = daemon_pool(fig2);
    seq = daemon_sequence(pool.size(), order_rng);
    std::vector<std::string> keys;
    for (const SelectCase& c : pool) keys.push_back(c.key);
    refs.preload(keys);
    Daemon daemon(std::string(kRunDir) + "/daemon-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(pass_no++),
                  socket);
    {
      // Warm up on a request outside the pool (Fig. 2, 1 instance, 2 bits),
      // so the pool's cache behaviour is untouched.
      tracesel::JobRequest warm = fig2_case(fig2, 2).request;
      warm.instances = 1;
      auto probe = tracesel::service::Client::connect(socket);
      if (!probe.ok()) throw std::runtime_error(probe.error().to_string());
      auto reply = probe.value().submit(warm);
      if (!reply.ok() || !reply.value().ok())
        throw std::runtime_error("daemon warm-up request failed");
    }
    setup_s.push_back(ms_since(t0) / 1000.0);

    const double hits_before = static_cast<double>(
        obs::registry().counter_value("store.result.hits"));
    const double whits_before = static_cast<double>(
        obs::registry().counter_value("store.workload.hits"));
    const double disk_hits_before = static_cast<double>(
        obs::registry().counter_value("svc.result.disk_hits"));
    const auto epoch = Clock::now();
    const std::vector<Reply> replies = drive(socket, pool, seq, clients, epoch);
    double first = 1e300;
    double last = 0;
    std::vector<double> queue_wait, run, cold, warm;
    double dark = 0;
    double served_hits = 0;    // replies flagged cache_hit
    double computed_hits = 0;  // ... that did not share a twin's outcome
    std::set<std::size_t> seen;
    std::vector<double>& pass_latencies = latencies.emplace_back();
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const Reply& r = replies[i];
      const double latency = r.done_ms - r.submit_ms;
      first = std::min(first, r.submit_ms);
      last = std::max(last, r.done_ms);
      ++attempted;
      const SelectCase& c = pool[seq[i]];
      if (!r.ok || !refs.matches(c.key, r.report)) {
        ++failed;
        std::cerr << "perfbench: " << c.key << ": daemon reply differs\n";
      }
      pass_latencies.push_back(latency);
      (seen.insert(seq[i]).second ? cold : warm).push_back(latency);
      served_hits += r.cache_hit ? 1 : 0;
      computed_hits += r.cache_hit && !r.attached ? 1 : 0;
      if (r.started_ms >= 0) {
        queue_wait.push_back(r.started_ms - r.submit_ms);
        run.push_back(r.done_ms - r.started_ms);
        dark += std::max(0.0, latency - (r.started_ms - r.submit_ms) -
                                  r.server_ms);
      }
    }
    const double wall_ms = last - first;
    walls_s.push_back(wall_ms / 1000.0);
    peaks.push_back(peak_rss_mb());
    if (traced) {
      const auto stats = daemon.server().store().stats();
      const double lookups =
          static_cast<double>(stats.result_hits + stats.result_misses);
      const double wlookups =
          static_cast<double>(stats.workload_hits + stats.workload_misses);
      layers.add("traced_wall_ms", wall_ms);
      layers.add("tracesel.store.lookups", lookups);
      layers.add("tracesel.store.result_hit_ratio",
                 lookups > 0 ? static_cast<double>(stats.result_hits) / lookups
                             : 0.0);
      layers.add("tracesel.store.workload_hit_ratio",
                 wlookups > 0
                     ? static_cast<double>(stats.workload_hits) / wlookups
                     : 0.0);
      layers.add("service.cache_hit_ratio",
                 served_hits / static_cast<double>(replies.size()));
      layers.add("service.queue_wait_ms_p50", median(queue_wait));
      layers.add("service.run_ms_p50", median(run));
      layers.add("service.cold_ms_p50", median(cold));
      layers.add("service.warm_ms_p50", median(warm));
      layers.add("service.journal_bytes",
                 static_cast<double>(daemon.journal_bytes()));
      layers.add("dark_ms", dark);
      const std::uint64_t mismatches_before = truth.mismatches;
      truth.expect("store.result.hits",
                   static_cast<double>(stats.result_hits),
                   static_cast<double>(
                       obs::registry().counter_value("store.result.hits")) -
                       hits_before);
      truth.expect("store.workload.hits",
                   static_cast<double>(stats.workload_hits),
                   static_cast<double>(obs::registry().counter_value(
                       "store.workload.hits")) -
                       whits_before);
      // A reply flagged cache_hit came from the store or, with a journal,
      // from the durable result files; attached replies share a twin's.
      truth.expect("unattached cache hits seen by clients (store + disk)",
                   computed_hits,
                   static_cast<double>(stats.result_hits) +
                       static_cast<double>(obs::registry().counter_value(
                           "svc.result.disk_hits")) -
                       disk_hits_before);
      layers.add("obs.counter_mismatches",
                 static_cast<double>(truth.mismatches - mismatches_before));
    }
  };

  const auto start = Clock::now();
  const auto time_left = [&] { return ms_since(start) < o.seconds * 1000.0; };
  if (!o.trace) {
    do {
      pass(false);
    } while (time_left());
    return end_to_end(attempted, failed, setup_s, walls_s, latencies, peaks);
  }

  obs::set_enabled(true);
  do {
    pass(true);
  } while (time_left());
  obs::set_enabled(false);
  const std::vector<double> traced_walls = walls_s;
  walls_s.clear();
  for (std::size_t i = 0; i < traced_walls.size(); ++i) pass(false);
  layers.add("trace_overhead_frac",
             median(traced_walls) / median(walls_s) - 1.0);

  // The layer split of one pass's compute: each distinct computation once,
  // built layer by layer outside the daemon (workloads shared per spec, as
  // the daemon's workload cache shares them).
  obs::set_enabled(true);
  const std::size_t mark = obs::thread_events_mark();
  LayerSizes sizes;
  std::vector<std::size_t> order;
  for (std::size_t i : seq)
    if (std::find(order.begin(), order.end(), i) == order.end())
      order.push_back(i);
  std::map<std::string, std::unique_ptr<tracesel::Workload>> built;
  for (std::size_t i : order) {
    const SelectCase& c = pool[i];
    const std::string spec_key =
        c.key.substr(0, c.key.rfind("-w"));
    auto& w = built[spec_key];
    if (!w) w = build_traced(c.request, truth, sizes);
    TracedSelect sel = select_traced(*w, c.request);
    check_search_counters(*w, c.request, sel, truth);
    ++attempted;
    if (!time_coverage(*w, sel.result) ||
        !refs.matches(c.key, sel.report)) {
      ++failed;
      std::cerr << "perfbench: " << c.key << ": layered output differs\n";
    }
  }
  obs::set_enabled(false);
  add_span_totals(layers, obs::thread_events_since(mark));
  add_sizes(layers, sizes);
  return per_layer(attempted, failed, layers, truth);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"t2x2", "t2x1-sweep",
                                                  "daemon-mix", "debug-cases"};
  return kNames;
}

std::vector<std::string> request_sequence(const std::string& workload,
                                          std::uint64_t seed,
                                          std::size_t passes) {
  std::vector<std::string> keys;
  if (workload == "daemon-mix") {
    const auto pool = daemon_pool("");
    Rng rng(seed);
    for (std::size_t p = 0; p < passes; ++p)
      for (std::size_t i : daemon_sequence(pool.size(), rng))
        keys.push_back(pool[i].key);
    return keys;
  }
  const soc::T2Design design;
  PassMaker make = workload == "t2x2"         ? t2x2_pass()
                   : workload == "t2x1-sweep" ? sweep_pass()
                   : workload == "debug-cases"
                       ? debug_pass(design)
                       : throw std::invalid_argument("unknown workload " +
                                                     workload);
  Rng rng(seed);
  for (std::size_t p = 0; p < passes; ++p)
    for (const std::string& k : keys_of(make(rng))) keys.push_back(k);
  return keys;
}

std::vector<SelectCase> reference_cases(const std::string& fig2_text) {
  std::vector<SelectCase> cases = {t2flow_case(kDataDir, 2, 32)};
  for (std::uint32_t w : kSweepWidths)
    cases.push_back(t2flow_case(kDataDir, 1, w));
  for (SelectCase& c : daemon_pool(fig2_text)) {
    const auto same = [&](const SelectCase& x) { return x.key == c.key; };
    if (std::none_of(cases.begin(), cases.end(), same))
      cases.push_back(std::move(c));
  }
  return cases;
}

std::vector<DebugCase> reference_debug_cases() {
  std::vector<DebugCase> cases;
  for (const soc::CaseStudy& cs : soc::standard_case_studies())
    for (std::uint64_t trial : kTrialSeeds)
      cases.push_back(debug_case(cs.id, trial));
  return cases;
}

std::vector<std::string> reference_keys() {
  std::vector<std::string> keys;
  for (const SelectCase& c : reference_cases("")) keys.push_back(c.key);
  for (const DebugCase& c : reference_debug_cases()) keys.push_back(c.key);
  return keys;
}

Report run_workload(const Options& o) {
  std::error_code ec;
  fs::create_directories(kRunDir, ec);
  if (o.workload == "daemon-mix") return run_daemon_mix(o);

  References refs(kRefsDir);
  if (o.workload == "debug-cases") {
    std::unique_ptr<soc::T2Design> design;
    const auto setup = [&] {
      refs = References(kRefsDir);
      design = std::make_unique<soc::T2Design>();
      Rng rng(o.seed);
      refs.preload(keys_of(debug_pass(*design)(rng)));
      warm_up(refs, "case1-t2018",
              [&] { return run_case(*design, debug_case(1, 2018)); });
    };
    // The pass maker binds the design built by the last set-up.
    return run_serial(
        o, setup, [&](Rng& rng) { return debug_pass(*design)(rng); }, refs);
  }

  PassMaker make;
  if (o.workload == "t2x2") make = t2x2_pass();
  else if (o.workload == "t2x1-sweep") make = sweep_pass();
  else throw std::invalid_argument("unknown workload " + o.workload);
  const auto setup = [&] {
    // Load the inputs (the spec bytes and the references of one pass) and
    // warm up on the small 1-instance product.
    refs = References(kRefsDir);
    (void)read_text(std::string(kDataDir) + "/t2.flow");
    Rng rng(o.seed);
    refs.preload(keys_of(make(rng)));
    const SelectCase small = t2flow_case(kDataDir, 1, 32);
    warm_up(refs, small.key, [&] { return run_select(small.request); });
  };
  return run_serial(o, setup, make, refs);
}

}  // namespace perfbench
