// tracesel — command-line front end.
//
//   tracesel inspect <spec.flow>                     flows/messages summary
//   tracesel select  <t2|usb|spec.flow> [options]    run message selection
//       the same JobRequest through the same QueryCore::run as `submit`
//       --buffer N       trace buffer width in bits   (default 32)
//       --instances K    indexed instances per flow, or the t2 scenario
//                        id                           (default 2)
//       --mode M         knapsack|exhaustive|maximal (default knapsack:
//                        the exact Step 2 optimum in O(messages x
//                        width); exhaustive and maximal are the
//                        exponential searches it is checked against)
//       --no-packing     disable Step 3
//       --json           machine-readable output
//     resilience (docs/resilience.md):
//       --deadline-ms N  cancel the run after N milliseconds
//   tracesel serve --socket PATH [--runners N] [--max-queue N]
//                  [--slow-job-ms N] [--journal-capacity N]
//                  [--journal-dir DIR] [--journal-rotate-bytes N]
//                  [--tenant-inflight N] [--retry-after-floor-ms N]
//       run traceseld: the long-lived selection/debug job daemon
//       (docs/service.md). SIGTERM/SIGINT or a stop frame drains the
//       queue, answers every waiting client, then exits 0. Jobs at or
//       over --slow-job-ms land in the slow-job log with a span summary.
//       --journal-dir enables crash durability: accepted jobs are
//       write-ahead journalled there, and a restart with the same
//       directory replays unfinished jobs and serves completed ones
//       byte-identically from the journal's result index. --tenant-inflight
//       caps each tenant's queued+running jobs; breaches (and
//       full-queue/unmeetable-deadline submissions) are shed with a typed
//       retry-after hint.
//   tracesel submit <t2|usb|spec.flow> --socket PATH [select options]
//       submit one job to a running daemon and wait for the result; with
//       --json prints the daemon's report block, which is byte-identical
//       to `tracesel select --json` for the same request
//       --tenant NAME    tenant label for the daemon's telemetry surface
//       --connect-timeout-ms N  retry the initial connect with seeded
//                        backoff for up to N ms (default 0: fail fast)
//       --retries N      survive daemon restarts/sheds: up to N extra
//                        attempts — reconnect, honor retry-after hints,
//                        resubmit idempotently (attach or durable-cache)
//       with --trace-out, the submit span's trace context rides in the
//       request and the daemon ships the job's spans back: the written
//       trace has a lane for this process and one for traceseld
//   tracesel stats --socket PATH                     daemon counters (JSON)
//       --watch          refresh until interrupted; survives daemon
//                        restarts (reconnects with seeded backoff)
//       --interval-ms N  refresh period               (default 1000)
//       --count N        stop after N samples (0 = until interrupted)
//       --connect-timeout-ms N  initial-connect retry budget (also on
//                        top/ping/stop)
//   tracesel top --socket PATH [--json]              live telemetry view
//       utilization/queue gauges, per-tenant accounting, the event
//       journal tail and the slow-job log; --json prints the raw
//       telemetry JSON (docs/service.md)
//   tracesel ping --socket PATH                      daemon liveness probe
//   tracesel stop --socket PATH                      drain-and-exit request
//   tracesel dot <spec.flow> <flow-name>             Graphviz of one flow
//   tracesel lint <spec.flow> [--buffer N] [--lenient]
//       --lenient        accumulate parse errors instead of stopping at
//                        the first, then lint whatever parsed cleanly
//   tracesel debug <case 1..5> [--no-packing] [--vcd FILE]
//                  [--report FILE] [--json]         run a T2 case study
//       --fault-rate R   inject capture faults with probability R (0..1)
//       --fault-kinds K  csv of drop,corrupt,duplicate,reorder,truncate,
//                        overflow                      (default: all)
//       --fault-seed N   fault injection seed          (default 1)
//       --retries N      recapture attempts when the capture is unusable
//                                                      (default 2)
//
// Global options (any subcommand, docs/observability.md):
//       --trace-out FILE    write a Chrome trace-event JSON of the run
//                           (load in chrome://tracing or ui.perfetto.dev);
//                           on a submit run this is the *merged*
//                           two-process trace — one lane per process,
//                           spans parented across the wire
//       --metrics-out FILE  write the flat metrics JSON (aggregated
//                           across processes on submit runs)
//       --prom-out FILE     write Prometheus text exposition of the same
//                           aggregated metrics
//       --log-level L       debug|info|warn|error      (default warn)
//
// Exit codes: 0 ok, 1 usage error (no or unknown subcommand), 2 runtime
// failure or option error (an unknown option or a missing or malformed
// value; any uncaught exception is reported as a one-line diagnostic,
// never a crash), 3 interrupted (SIGINT/SIGTERM or --deadline-ms fired:
// the run stopped cooperatively with a partial result; a second signal
// exits immediately with 130).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>
#include <thread>

#include "tracesel/tracesel.hpp"

#include "debug/report.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "debug/serialize.hpp"
#include "flow/dot.hpp"
#include "soc/fault_injector.hpp"
#include "soc/vcd.hpp"
#include "util/backoff.hpp"
#include "util/framing.hpp"
#include "util/log.hpp"
#include "util/obs.hpp"
#include "util/table.hpp"

namespace {

using namespace tracesel;

// The exit codes of the file comment.
constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitFailure = 2;
constexpr int kExitInterrupted = 3;

/// Observability sinks from the global pre-pass; written once after the
/// subcommand finishes (success or failure — the trace of a failed run is
/// the interesting one).
std::string g_trace_out;
std::string g_metrics_out;
std::string g_prom_out;

/// Process-wide cancellation token, created before the signal handlers are
/// installed so cancel() (one lock-free store) is safe from them.
const util::CancelToken g_cancel = util::CancelToken::make();
/// True while a subcommand that polls g_cancel is running; outside such a
/// window a signal keeps its conventional kill-the-process meaning.
std::atomic<bool> g_cooperative{false};
std::atomic<int> g_signals{0};

extern "C" void handle_signal(int) {
  if (!g_cooperative.load(std::memory_order_relaxed) ||
      g_signals.fetch_add(1, std::memory_order_relaxed) > 0) {
    // Second signal (or no cooperative stage to unwind): stop insisting.
    std::_Exit(130);
  }
  g_cancel.cancel();
}

double parse_number(const std::string& text, const char* flag) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("invalid numeric value '") + text +
                             "' for " + flag);
  }
}

/// One subcommand's argv, read front to back. Every option error (an
/// unknown option, a missing or malformed value) throws a runtime_error
/// naming the option, which dispatch() reports with exit 2.
class ArgCursor {
 public:
  ArgCursor(int argc, char** argv) : next_(argv), end_(argv + argc) {}

  bool done() const { return next_ == end_; }

  /// Consumes `name` when it is the next argument.
  bool flag(std::string_view name) {
    if (done() || *next_ != name) return false;
    ++next_;
    return true;
  }

  /// Consumes `name` and the value after it.
  std::optional<std::string> value(std::string_view name) {
    if (!flag(name)) return std::nullopt;
    if (done())
      throw std::runtime_error("missing value for " + std::string(name));
    return std::string(*next_++);
  }

  /// value(name) read by util::parse_number into T's range.
  template <typename T>
  std::optional<T> number(std::string_view name) {
    const auto text = value(name);
    if (!text) return std::nullopt;
    T v{};
    if (!util::parse_number(*text, v))
      throw std::runtime_error(
          "invalid value '" + *text + "' for " + std::string(name) +
          " (expected 0.." + std::to_string(std::numeric_limits<T>::max()) +
          ")");
    return v;
  }

  /// Consumes the next argument, whatever it is.
  char* pass() { return *next_++; }

  /// Consumes the next argument as the one positional operand `slot`.
  void operand(std::string& slot) {
    if (std::string_view(*next_).starts_with("--")) unknown();
    if (!slot.empty())
      throw std::runtime_error("unexpected operand '" + std::string(*next_) +
                               "'");
    slot = pass();
  }

  [[noreturn]] void unknown() const {
    throw std::runtime_error("unknown option '" + std::string(*next_) + "'");
  }

 private:
  char** next_;
  char** end_;
};

void set_log_level(const std::string& name) {
  if (name == "debug") util::set_log_threshold(util::LogLevel::kDebug);
  else if (name == "info") util::set_log_threshold(util::LogLevel::kInfo);
  else if (name == "warn") util::set_log_threshold(util::LogLevel::kWarn);
  else if (name == "error") util::set_log_threshold(util::LogLevel::kError);
  else
    throw std::runtime_error("unknown log level '" + name + "' for --log-level");
}

int usage() {
  std::cerr << "usage:\n"
               "  tracesel inspect <spec.flow>\n"
               "  tracesel select <t2|usb|spec.flow> [--buffer N]"
               " [--instances K] [--no-packing] [--json]\n"
               "                 [--mode knapsack(default)|exhaustive|maximal]"
               " [--deadline-ms N]\n"
               "  tracesel serve --socket PATH [--runners N]"
               " [--max-queue N] [--slow-job-ms N] [--journal-capacity N]\n"
               "                 [--journal-dir DIR] [--journal-rotate-bytes N]"
               " [--tenant-inflight N] [--retry-after-floor-ms N]\n"
               "  tracesel submit <t2|usb|spec.flow> --socket PATH"
               " [--buffer N] [--instances K] [--mode M] [--no-packing]\n"
               "                 [--max-combinations N] [--deadline-ms N]"
               " [--json]\n"
               "  tracesel submit ... [--tenant NAME]"
               " [--connect-timeout-ms N] [--retries N]\n"
               "  tracesel stats --socket PATH [--watch] [--interval-ms N]"
               " [--count N] [--connect-timeout-ms N]\n"
               "  tracesel top --socket PATH [--json]\n"
               "  tracesel ping|stop --socket PATH [--connect-timeout-ms N]\n"
               "  tracesel dot <spec.flow> <flow-name>\n"
               "  tracesel lint <spec.flow> [--buffer N] [--lenient]\n"
               "  tracesel debug <case 1..5> [--no-packing] [--vcd FILE]"
               " [--report FILE] [--json]\n"
               "                 [--fault-rate R] [--fault-kinds K,...]"
               " [--fault-seed N] [--retries N]\n"
               "global options (any subcommand):\n"
               "  --trace-out FILE    Chrome trace-event JSON of this run"
               " (merged across processes on submit runs)\n"
               "  --metrics-out FILE  flat metrics JSON of this run\n"
               "  --prom-out FILE     Prometheus text exposition\n"
               "  --log-level L       debug|info|warn|error (default warn)\n";
  return kExitUsage;
}

int cmd_inspect(const std::string& path) {
  const auto spec = flow::parse_flow_spec_file(path);
  std::cout << "Spec '" << path << "': " << spec.flows.size() << " flows, "
            << spec.catalog.size() << " messages\n\n";
  util::Table messages({"Message", "Width", "Trace width", "Route",
                        "Subgroups"});
  for (const flow::Message& m : spec.catalog) {
    std::string subgroups;
    for (const auto& sg : m.subgroups) {
      if (!subgroups.empty()) subgroups += ' ';
      subgroups += sg.name + '[' + std::to_string(sg.width) + ']';
    }
    messages.add_row({m.name, std::to_string(m.width),
                      std::to_string(m.trace_width()),
                      m.source_ip + "->" + m.dest_ip,
                      subgroups.empty() ? "-" : subgroups});
  }
  std::cout << messages << '\n';

  util::Table flows({"Flow", "States", "Messages", "Atomic", "Depth",
                     "Branching", "Executions"});
  for (const flow::Flow& f : spec.flows) {
    const auto st = flow::flow_stats(f);
    flows.add_row({st.name, std::to_string(st.states),
                   std::to_string(st.messages),
                   std::to_string(st.atomic_states),
                   std::to_string(st.depth),
                   std::to_string(st.max_branching),
                   util::fixed(st.executions, 0)});
  }
  std::cout << flows;
  return 0;
}

/// Reads one of the request options `select` and `submit` share at the
/// cursor (--buffer, --instances, --no-packing, --deadline-ms, --mode, the
/// last parsed as the wire format does); false when the next argument is
/// none of them.
bool request_option(ArgCursor& args, JobRequest& req) {
  if (auto v = args.number<std::uint32_t>("--buffer")) req.buffer_width = *v;
  else if (auto v = args.number<std::uint32_t>("--instances"))
    req.instances = *v;
  else if (args.flag("--no-packing")) req.packing = false;
  else if (auto v = args.number<std::uint64_t>("--deadline-ms"))
    req.deadline_ms = *v;
  else if (auto v = args.value("--mode")) {
    auto mode = parse_search_mode(*v);
    if (!mode.ok()) throw std::runtime_error("--mode: " + mode.error().message);
    req.mode = mode.value();
  } else {
    return false;
  }
  return true;
}

/// Handles every token after "select": one positional spec operand plus
/// options. The request runs in this process through QueryCore::run, the
/// daemon's path, so `--json` prints the bytes `submit --json` does.
int cmd_select(int argc, char** argv) {
  JobRequest req;
  req.spec.clear();
  bool json = false;
  for (ArgCursor args(argc, argv); !args.done();) {
    if (request_option(args, req)) continue;
    if (args.flag("--json")) json = true;
    else args.operand(req.spec);
  }
  if (req.spec.empty())
    throw std::runtime_error("select: missing <t2|usb|spec.flow> operand");

  // Signals and the optional deadline share one token, so either stops the
  // run the same cooperative way.
  g_cancel.set_timeout_ms(req.deadline_ms);
  g_cooperative.store(true, std::memory_order_relaxed);
  const auto run = QueryCore::run(req, nullptr, g_cancel);
  if (!run.ok()) throw std::runtime_error(run.error().to_string());
  const selection::SelectionResult& r = *run.value().result;
  const Workload& w = *run.value().workload;
  int rc = kExitOk;
  if (r.partial) {
    std::cerr << "interrupted: partial result, "
              << util::pct(r.explored_fraction) << " of the search explored"
              << '\n';
    rc = kExitInterrupted;
  }
  const flow::MessageCatalog& catalog = *w.catalog;
  if (json) {
    std::cout << selection::report_text(catalog, r) << '\n';
    return rc;
  }
  const flow::ProductStats& stats = w.selector->stats();
  std::cout << "Interleaving: " << stats.num_product_states() << " states, "
            << stats.num_product_edges() << " message occurrences\n";

  util::Table table({"Field", "Width", "Kind"});
  for (const auto m : r.combination.messages)
    table.add_row({catalog.get(m).name,
                   std::to_string(catalog.get(m).trace_width()),
                   "message"});
  for (const auto& pg : r.packed)
    table.add_row({catalog.get(pg.parent).name + '.' + pg.subgroup_name,
                   std::to_string(pg.width), "packed subgroup"});
  std::cout << table;
  std::cout << "gain=" << util::fixed(r.gain, 4)
            << " coverage=" << util::pct(r.coverage)
            << " utilization=" << util::pct(r.utilization()) << " ("
            << r.used_width << '/' << r.buffer_width << " bits)\n";
  return rc;
}

/// traceseld (docs/service.md): bind the socket, run jobs until SIGTERM/
/// SIGINT or a stop frame, then drain and exit 0.
int cmd_serve(int argc, char** argv) {
  service::ServerOptions opt;
  for (ArgCursor args(argc, argv); !args.done();) {
    if (auto v = args.value("--socket")) opt.socket_path = *v;
    else if (auto v = args.number<std::size_t>("--runners")) opt.runners = *v;
    else if (auto v = args.number<std::size_t>("--max-queue"))
      opt.max_queue = *v;
    else if (auto v = args.number<std::uint64_t>("--slow-job-ms"))
      opt.slow_job_ms = *v;
    else if (auto v = args.number<std::size_t>("--journal-capacity"))
      opt.journal_capacity = *v;
    else if (auto v = args.value("--journal-dir")) opt.journal_dir = *v;
    else if (auto v = args.number<std::uint64_t>("--journal-rotate-bytes"))
      opt.journal_rotate_bytes = *v;
    else if (auto v = args.number<std::size_t>("--tenant-inflight"))
      opt.per_tenant_inflight = *v;
    else if (auto v = args.number<std::uint64_t>("--retry-after-floor-ms"))
      opt.retry_after_floor_ms = *v;
    else args.unknown();
  }
  if (opt.socket_path.empty())
    throw std::runtime_error("serve: --socket PATH is required");
  // First SIGTERM/SIGINT drains the daemon (cooperative); a second kills.
  opt.shutdown = g_cancel;
  g_cooperative.store(true, std::memory_order_relaxed);
  service::Server server(std::move(opt));
  const auto st = server.start();
  if (!st.ok()) throw std::runtime_error(st.error().to_string());
  return server.serve();
}

int cmd_submit(int argc, char** argv) {
  JobRequest req;
  req.spec.clear();
  std::string socket;
  bool json = false;
  // Client-side resilience knobs: not part of the JobRequest, because
  // they do not change the computation.
  std::uint64_t connect_timeout_ms = 0;  // 0 = single connect attempt
  std::uint32_t retries = 0;             // extra submit attempts
  for (ArgCursor args(argc, argv); !args.done();) {
    if (request_option(args, req)) continue;
    if (auto v = args.value("--socket")) socket = *v;
    else if (auto v = args.number<std::uint64_t>("--max-combinations"))
      req.max_combinations = *v;
    else if (auto v = args.value("--tenant")) req.tenant = *v;
    else if (args.flag("--json")) json = true;
    else if (auto v = args.number<std::uint64_t>("--connect-timeout-ms"))
      connect_timeout_ms = *v;
    else if (auto v = args.number<std::uint32_t>("--retries")) retries = *v;
    else args.operand(req.spec);
  }
  if (req.spec.empty())
    throw std::runtime_error("submit: missing <t2|usb|spec.flow> operand");
  if (socket.empty())
    throw std::runtime_error("submit: --socket PATH is required");

  g_cooperative.store(true, std::memory_order_relaxed);
  service::Client::ConnectOptions conn;
  conn.timeout_ms = connect_timeout_ms;
  conn.cancel = g_cancel;
  auto client = service::Client::connect(socket, conn);
  if (!client.ok()) throw std::runtime_error(client.error().to_string());

  // With an observability sink active, stamp this process's trace context
  // into the request: the daemon opens its job span under our submit span
  // and ships the job's spans/counters back in the result frame, so the
  // written trace is one flame chart across both processes.
  std::optional<obs::Span> submit_span;
  if (obs::enabled()) {
    submit_span.emplace("cli.submit");
    req.trace_id = obs::ensure_trace_context().trace_id;
    req.parent_span_id = submit_span->id();
  }
  const auto on_event = [](std::string_view status, std::uint64_t position) {
    std::cerr << "job " << status;
    if ((status == "queued" || status == "attached") && position > 0)
      std::cerr << " (position " << position << ")";
    std::cerr << '\n';
  };
  // --retries upgrades to the restart-tolerant path: reconnect with
  // seeded backoff, honor retry-after hints, resubmit idempotently.
  service::Client::SubmitOptions sopt;
  sopt.max_attempts = std::size_t{retries} + 1;
  sopt.connect_timeout_ms =
      connect_timeout_ms > 0 ? connect_timeout_ms : 2000;
  const auto outcome =
      retries > 0
          ? client.value().submit_resilient(req, sopt, g_cancel, on_event)
          : client.value().submit(req, g_cancel, on_event);
  submit_span.reset();  // close before the sinks are written
  if (!outcome.ok()) throw std::runtime_error(outcome.error().to_string());
  const service::JobOutcome& o = outcome.value();

  if (!o.telemetry.empty()) {
    auto remote = obs::parse_telemetry(o.telemetry);
    if (remote.ok()) {
      obs::adopt_remote_telemetry(std::move(remote).value());
    } else {
      util::Log(util::LogLevel::kWarn)
          << "submit: dropping malformed daemon telemetry: "
          << remote.error().to_string();
    }
  }

  std::cerr << "job " << o.job_id << ": " << o.status << " in "
            << o.elapsed_ms << " ms"
            << (o.cache_hit ? " (result cache hit)"
                            : (o.workload_cache_hit ? " (workload cache hit)"
                                                    : ""))
            << '\n';
  if (!o.error.empty()) std::cerr << "error: " << o.error << '\n';
  if (json && !o.report_json.empty())
    std::cout << o.report_json << '\n';  // the `select --json` bytes
  else if (!o.metrics_json.empty())
    std::cerr << "metrics: " << o.metrics_json << '\n';
  if (o.status == "error") return kExitFailure;
  if (o.status == "partial" || o.status == "cancelled")
    return kExitInterrupted;
  return kExitOk;
}

/// One scalar out of the daemon's pretty-printed JSON (our own dump(2)
/// output, so the `"key": value` line shape is stable; no parser needed).
std::string json_scalar(const std::string& json, const std::string& key) {
  const std::string needle = '"' + key + "\": ";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return "?";
  std::size_t end = pos + needle.size();
  while (end < json.size() && json[end] != ',' && json[end] != '\n') ++end;
  return json.substr(pos + needle.size(), end - pos - needle.size());
}

/// The raw `[...]` (or `{...}`) block of a top-level key, by bracket
/// matching.
std::string json_block(const std::string& json, const std::string& key,
                       char open = '[', char close = ']') {
  const std::string needle = '"' + key + "\": " + open;
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return {};
  const std::size_t start = pos + needle.size() - 1;  // at the opener
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = start; i < json.size(); ++i) {
    const char c = json[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == open) ++depth;
    else if (c == close && --depth == 0)
      return json.substr(start, i - start + 1);
  }
  return {};
}

/// Human rendering of the telemetry JSON for `tracesel top`.
void render_top(const std::string& socket, const std::string& t) {
  std::cout << "traceseld @ " << socket << '\n'
            << "  uptime: " << json_scalar(t, "uptime_ms") << " ms   runners: "
            << json_scalar(t, "runners")
            << "   utilization: " << json_scalar(t, "utilization") << '\n'
            << "  queue depth: " << json_scalar(t, "queue.depth")
            << "   running: " << json_scalar(t, "jobs.running")
            << "   busy: " << json_scalar(t, "busy_ms") << " ms\n"
            << "  jobs: submitted " << json_scalar(t, "jobs.submitted")
            << ", completed " << json_scalar(t, "jobs.completed")
            << ", errors " << json_scalar(t, "jobs.errors")
            << "   slow-job threshold: "
            << json_scalar(t, "slow_job_threshold_ms") << " ms\n";
  const std::string tenants = json_block(t, "tenants", '{', '}');
  if (!tenants.empty() && tenants != "{}")
    std::cout << "tenants: " << tenants << '\n';
  const std::string slow = json_block(t, "slow_jobs");
  if (!slow.empty() && slow != "[]")
    std::cout << "slow jobs: " << slow << '\n';
  const std::string journal = json_block(t, "journal");
  if (!journal.empty() && journal != "[]")
    std::cout << "journal (oldest first): " << journal << '\n';
}

/// stats / top / ping / stop — the bodyless daemon control verbs. stats
/// and top take --watch [--interval-ms N] [--count N] to refresh until
/// interrupted (or N samples; --count 1 is the scripting one-shot).
int cmd_daemon_ctl(const std::string& verb, int argc, char** argv) {
  std::string socket;
  bool watch = false;
  bool json = false;
  std::uint64_t interval_ms = 1000;
  std::uint64_t count = 0;  // 0 = until interrupted
  std::uint64_t connect_timeout_ms = 0;
  for (ArgCursor args(argc, argv); !args.done();) {
    if (auto v = args.value("--socket")) socket = *v;
    else if (args.flag("--watch")) watch = true;
    else if (args.flag("--json")) json = true;
    else if (auto v = args.number<std::uint64_t>("--interval-ms"))
      interval_ms = *v;
    else if (auto v = args.number<std::uint64_t>("--count")) count = *v;
    else if (auto v = args.number<std::uint64_t>("--connect-timeout-ms"))
      connect_timeout_ms = *v;
    else args.unknown();
  }
  if (socket.empty())
    throw std::runtime_error(verb + ": --socket PATH is required");
  service::Client::ConnectOptions conn;
  conn.timeout_ms = connect_timeout_ms;
  conn.cancel = g_cancel;
  auto client = service::Client::connect(socket, conn);
  if (!client.ok()) throw std::runtime_error(client.error().to_string());

  if (verb == "stats" || verb == "top") {
    if (count == 0 && !watch) count = 1;
    g_cooperative.store(true, std::memory_order_relaxed);

    // A watch loop survives daemon restarts: a failed fetch drops the
    // connection and reconnects with seeded backoff (one `reconnecting`
    // notice per outage) instead of dying mid-dashboard. One-shot calls
    // keep failing fast. Returns nullopt only on interrupt.
    auto fetch = [&](bool want_stats) -> std::optional<std::string> {
      bool notified = false;
      util::Backoff backoff;
      for (;;) {
        if (g_cancel.cancelled()) return std::nullopt;
        if (client.ok() && client.value().connected()) {
          auto r = want_stats ? client.value().stats()
                              : client.value().telemetry();
          if (r.ok()) return std::move(r).value();
          if (!watch) throw std::runtime_error(r.error().to_string());
          client.value().close();
        }
        if (!notified) {
          std::cerr << "reconnecting to " << socket << "...\n";
          notified = true;
        }
        std::this_thread::sleep_for(
            std::min<std::chrono::milliseconds>(backoff.next(),
                                                std::chrono::milliseconds(
                                                    interval_ms)));
        auto re = service::Client::connect(socket);
        if (re.ok()) client = std::move(re);
      }
    };

    for (std::uint64_t sample = 0; count == 0 || sample < count; ++sample) {
      if (sample != 0) {
        // One connection, one frame per tick: the watch loop is itself a
        // cheap client, not a thundering herd.
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(interval_ms);
        while (std::chrono::steady_clock::now() < until) {
          if (g_cancel.cancelled()) return 0;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        std::cout << '\n';
      }
      if (verb == "stats" && !watch) {
        // One-shot stats keeps the legacy job/store counter frame;
        // --watch upgrades to the live telemetry view (journal, tenants,
        // utilization) so a refresh loop actually has motion to show.
        auto stats = fetch(/*want_stats=*/true);
        if (!stats) return 0;
        std::cout << *stats << '\n';
      } else {
        auto telemetry = fetch(/*want_stats=*/false);
        if (!telemetry) return 0;
        if (verb == "stats" || json) std::cout << *telemetry << '\n';
        else render_top(socket, *telemetry);
      }
      std::cout.flush();
    }
    return 0;
  }
  if (verb == "ping") {
    const auto st = client.value().ping();
    if (!st.ok()) throw std::runtime_error(st.error().to_string());
    std::cout << "pong\n";
    return 0;
  }
  const auto st = client.value().stop();
  if (!st.ok()) throw std::runtime_error(st.error().to_string());
  std::cout << "draining\n";
  return 0;
}

int cmd_lint(int argc, char** argv) {
  std::string path;
  std::uint32_t buffer = 32;
  bool lenient = false;
  for (ArgCursor args(argc, argv); !args.done();) {
    if (auto v = args.number<std::uint32_t>("--buffer")) buffer = *v;
    else if (args.flag("--lenient")) lenient = true;
    else args.operand(path);
  }
  if (path.empty())
    throw std::runtime_error("lint: missing <spec.flow> operand");
  flow::ParsedSpec spec;
  std::size_t parse_errors = 0;
  if (lenient) {
    // Lint mode: accumulate every parse error, then lint whatever survived.
    auto parsed = flow::parse_flow_spec_file_lenient(path);
    for (const flow::ParseDiagnostic& d : parsed.errors)
      std::cout << "error: " << d.to_string() << '\n';
    parse_errors = parsed.errors.size();
    spec = std::move(parsed.spec);
  } else {
    spec = flow::parse_flow_spec_file(path);
  }
  std::vector<const flow::Flow*> flows;
  for (const flow::Flow& f : spec.flows) flows.push_back(&f);
  flow::LintOptions opt;
  opt.buffer_width = buffer;
  const auto diagnostics = flow::lint(spec.catalog, flows, opt);
  for (const auto& d : diagnostics) {
    std::cout << flow::to_string(d.severity) << ": [" << d.rule << "] "
              << d.subject << ": " << d.text << '\n';
  }
  std::cout << parse_errors + diagnostics.size() << " diagnostic(s)\n";
  const bool warnings = std::any_of(
      diagnostics.begin(), diagnostics.end(), [](const auto& d) {
        return d.severity == flow::LintSeverity::kWarning;
      });
  return (parse_errors > 0 || warnings) ? kExitFailure : kExitOk;
}

int cmd_dot(const std::string& path, const std::string& flow_name) {
  const auto spec = flow::parse_flow_spec_file(path);
  std::cout << flow::to_dot(spec.flow(flow_name), spec.catalog);
  return 0;
}

int cmd_debug(int argc, char** argv) {
  std::string case_arg;
  bool json = false;
  std::string vcd_path, report_path;
  debug::CaseStudyOptions opt;
  for (ArgCursor args(argc, argv); !args.done();) {
    if (args.flag("--no-packing")) opt.packing = false;
    else if (args.flag("--json")) json = true;
    else if (auto v = args.value("--vcd")) vcd_path = *v;
    else if (auto v = args.value("--report")) report_path = *v;
    else if (auto v = args.value("--fault-rate"))
      opt.faults.rate = parse_number(*v, "--fault-rate");
    else if (auto v = args.number<std::uint64_t>("--fault-seed"))
      opt.faults.seed = *v;
    else if (auto v = args.number<std::uint32_t>("--retries"))
      opt.capture_retries = *v;
    else if (auto v = args.value("--fault-kinds")) {
      auto kinds = soc::parse_fault_kinds(*v);
      if (!kinds.ok())
        throw std::runtime_error("--fault-kinds: " +
                                 kinds.error().to_string());
      opt.faults.kinds = std::move(kinds).value();
    } else {
      args.operand(case_arg);
    }
  }
  if (!(opt.faults.rate >= 0.0 && opt.faults.rate <= 1.0))  // NaN too
    throw std::runtime_error("--fault-rate must be in [0, 1]");
  const auto cases = soc::standard_case_studies();
  std::size_t case_id = 0;
  if (!util::parse_number(case_arg, case_id) || case_id < 1 ||
      case_id > cases.size())
    throw std::runtime_error("invalid case id '" + case_arg +
                             "' (expected 1.." +
                             std::to_string(cases.size()) + ")");
  const soc::T2Design design;
  const auto r = debug::run_case_study(design, cases[case_id - 1], opt);
  if (json) {
    std::cout << debug::report_text(design.catalog(), r) << '\n';
    return 0;
  }
  std::cout << "Case study " << case_id << " (" << r.scenario.name
            << "): " << (r.buggy.failed ? r.buggy.failure : "no failure")
            << '\n';
  for (const auto& [m, status] : r.observation.status)
    std::cout << "  " << design.catalog().get(m).name << ": "
              << debug::to_string(status) << '\n';
  std::cout << "Pruned " << util::pct(r.report.pruned_fraction()) << " ("
            << r.report.final_causes.size() << " plausible cause(s))\n";
  for (const auto& c : r.report.final_causes)
    std::cout << "  [" << c.ip << "] " << c.description << '\n';
  if (opt.faults.enabled()) {
    std::cout << "Capture: quality " << util::pct(r.observation.quality())
              << ", " << r.fault_stats.total_injected()
              << " fault(s) injected, " << r.capture_attempts
              << " attempt(s)" << (r.capture_degraded ? ", degraded" : "")
              << '\n';
    std::cout << "Ranked causes (confidence-weighted):\n";
    for (const debug::ScoredCause& sc : r.ranked_causes)
      std::cout << "  " << util::fixed(sc.score, 3) << "  [" << sc.cause.ip
                << "] " << sc.cause.description << '\n';
    std::cout << "Localization confidence: "
              << util::pct(r.robust_localization.confidence)
              << (r.robust_localization.degraded ? " (degraded)" : "")
              << '\n';
  }
  if (!report_path.empty()) {
    debug::write_report(design, r, report_path);
    std::cout << "Debug report written to " << report_path << '\n';
  }
  if (!vcd_path.empty()) {
    std::ofstream out(vcd_path);
    if (!out) {
      std::cerr << "cannot write " << vcd_path << '\n';
      return kExitFailure;
    }
    out << soc::trace_to_vcd(design.catalog(), r.buggy_records);
    std::cout << "Trace buffer dump written to " << vcd_path << '\n';
  }
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "inspect" && argc == 3) return cmd_inspect(argv[2]);
    if (cmd == "select" && argc >= 3)
      return cmd_select(argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
    if (cmd == "submit" && argc >= 3) return cmd_submit(argc - 2, argv + 2);
    if (cmd == "stats" || cmd == "top" || cmd == "ping" || cmd == "stop")
      return cmd_daemon_ctl(cmd, argc - 2, argv + 2);
    if (cmd == "dot" && argc == 4) return cmd_dot(argv[2], argv[3]);
    if (cmd == "lint" && argc >= 3) return cmd_lint(argc - 2, argv + 2);
    if (cmd == "debug" && argc >= 3) return cmd_debug(argc - 2, argv + 2);
  } catch (const util::CancelledError& e) {
    // A stage that cannot carry a partial result (flow parse, interleave
    // build) unwound on cancellation: interrupted, not failed.
    std::cerr << "interrupted: " << e.what() << '\n';
    return kExitInterrupted;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitFailure;
  } catch (...) {
    // Last-resort guard: an unexpected non-std exception must still exit
    // with a diagnostic, never terminate().
    std::cerr << "error: unexpected non-standard exception\n";
    return kExitFailure;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Cooperative interrupts: while a cancellable stage runs, the first
  // SIGINT/SIGTERM requests cancellation (partial result + flushed
  // observability sinks, exit 3); a second — or any
  // signal outside such a stage — exits immediately.
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // Strip the global observability/logging options (valid anywhere on the
  // command line) before subcommand dispatch.
  std::vector<char*> args{argv[0]};
  try {
    for (ArgCursor global(argc - 1, argv + 1); !global.done();) {
      if (auto v = global.value("--trace-out")) g_trace_out = *v;
      else if (auto v = global.value("--metrics-out")) g_metrics_out = *v;
      else if (auto v = global.value("--prom-out")) g_prom_out = *v;
      else if (auto v = global.value("--log-level")) set_log_level(*v);
      else args.push_back(global.pass());
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitFailure;
  }
  const bool sinks =
      !g_trace_out.empty() || !g_metrics_out.empty() || !g_prom_out.empty();
  if (sinks) obs::set_enabled(true);

  int rc = dispatch(static_cast<int>(args.size()), args.data());

  if (sinks) {
    obs::update_process_gauges();
    if (!g_trace_out.empty() && !obs::write_chrome_trace(g_trace_out) &&
        rc == kExitOk)
      rc = kExitFailure;
    if (!g_metrics_out.empty() && !obs::write_metrics(g_metrics_out) &&
        rc == kExitOk)
      rc = kExitFailure;
    if (!g_prom_out.empty() && !obs::write_prometheus(g_prom_out) &&
        rc == kExitOk)
      rc = kExitFailure;
  }
  return rc;
}
