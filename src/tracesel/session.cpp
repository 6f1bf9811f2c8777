#include "tracesel/session.hpp"

#include <stdexcept>
#include <utility>

#include "flow/indexed_flow.hpp"
#include "soc/scenario.hpp"
#include "util/obs.hpp"

namespace tracesel {

Session Session::from_spec(flow::ParsedSpec spec) {
  Session s;
  s.workload_ = QueryCore::workload_from_spec(std::move(spec));
  return s;
}

Session Session::from_spec_file(const std::string& path) {
  Session s = from_spec(flow::parse_flow_spec_file(path));
  s.workload_->spec_ref = path;  // checkpoint provenance
  return s;
}

Session Session::from_spec_text(std::string_view text) {
  return from_spec(flow::parse_flow_spec(text));
}

Session Session::from_interleaving(const flow::MessageCatalog& catalog,
                                   flow::InterleavedFlow u) {
  Session s;
  s.workload_ = QueryCore::workload_from_interleaving(catalog, std::move(u));
  return s;
}

Session Session::t2() {
  Session s;
  s.workload_ = QueryCore::workload_t2();
  return s;
}

Session Session::usb() {
  Session s;
  s.workload_ = QueryCore::workload_usb();
  return s;
}

Session& Session::configure(const selection::SelectorConfig& config) {
  config_ = config;
  // Asking for an observability sink is the opt-in for the whole layer;
  // never the reverse (a config without sinks must not silence a layer an
  // embedding application enabled directly).
  if (!config_.trace_out.empty() || !config_.metrics_out.empty())
    obs::set_enabled(true);
  return *this;
}

bool Session::write_observability() const {
  obs::update_process_gauges();
  bool ok = true;
  if (!config_.trace_out.empty())
    ok = obs::write_chrome_trace(config_.trace_out) && ok;
  if (!config_.metrics_out.empty())
    ok = obs::write_metrics(config_.metrics_out) && ok;
  return ok;
}

Session& Session::jobs(std::size_t n) {
  config_.jobs = n;
  return *this;
}

Session& Session::interleave_options(const flow::InterleaveOptions& options) {
  interleave_options_ = options;
  // A rebuilt engine invalidates any interleaving-derived state.
  if (workload_->u) {
    workload_->u.reset();
    workload_->selector.reset();
    workload_->parallel.reset();
    last_selection_.reset();
  }
  return *this;
}

flow::InterleaveOptions Session::merged_interleave_options() const {
  flow::InterleaveOptions opt = interleave_options_;
  opt.cancel = config_.cancel;  // SIGINT/deadline covers the build too
  if (opt.mem_budget_mb == 0) opt.mem_budget_mb = config_.mem_budget_mb;
  // --kernel=generic must reach the flow-level dispatch too, not just the
  // Step 2 scoring loops (both default to kCompiled).
  if (config_.kernel != flow::KernelMode::kCompiled)
    opt.kernel = config_.kernel;
  return opt;
}

Session& Session::interleave(std::uint32_t instances) {
  if (!workload_->spec && !workload_->usb)
    throw std::logic_error(
        "Session::interleave: no spec loaded (use scenario() for t2 "
        "sessions)");
  QueryCore::interleave(*workload_, instances, merged_interleave_options());
  last_selection_.reset();
  return *this;
}

Session& Session::scenario(int id) {
  if (!workload_->t2)
    throw std::logic_error("Session::scenario: not a t2 session");
  QueryCore::interleave(*workload_, static_cast<std::uint32_t>(id),
                        merged_interleave_options());
  last_selection_.reset();
  return *this;
}

util::ThreadPool* Session::pool() {
  const std::size_t workers = util::ThreadPool::resolve_jobs(config_.jobs);
  if (workers <= 1) return nullptr;
  if (!pool_ || pool_workers_ != workers) {
    pool_ = std::make_unique<util::ThreadPool>(workers);
    pool_workers_ = workers;
  }
  return pool_.get();
}

selection::SelectorConfig Session::config_with_provenance() const {
  // Checkpoint/work-unit provenance so Session::resume and distributed
  // workers can rebuild this pipeline.
  selection::SelectorConfig cfg = config_;
  if (cfg.checkpoint_spec_path.empty())
    cfg.checkpoint_spec_path = workload_->spec_ref;
  if (cfg.checkpoint_instances == 0)
    cfg.checkpoint_instances = workload_->instances;
  return cfg;
}

selection::ParallelSelector& Session::ensure_parallel() {
  QueryCore::ensure_selectors(*workload_);
  return *workload_->parallel;
}

selection::SelectionResult Session::select_impl(bool flow_constraint) {
  if (!workload_->u) {
    // Spec sessions default to the paper's two legally indexed instances;
    // usb sessions to one instance of each flow (Table 4 setting).
    if (workload_->spec) interleave(2);
    else if (workload_->usb) interleave(1);
    else
      throw std::logic_error(
          "Session::select: no interleaving (call scenario()/interleave() "
          "first)");
  }
  QueryCore::ensure_selectors(*workload_);

  selection::SelectionResult result = QueryCore::select(
      *workload_, config_with_provenance(), flow_constraint, pool());

  // A resume is one-shot: the next select() starts a fresh search instead
  // of silently skipping shards against a stale checkpoint.
  config_.resume_from.reset();

  last_selection_ = result;
  return result;
}

util::Result<Session> Session::resume(const std::string& checkpoint_path) {
  auto loaded = selection::load_checkpoint(checkpoint_path);
  if (!loaded.ok()) return loaded.error();
  selection::SearchCheckpoint ck = std::move(loaded).value();
  if (ck.spec_path.empty())
    return util::Error{
        util::ErrorCode::kInvalidArgument,
        "checkpoint carries no spec provenance (written outside a "
        "Session); rebuild the pipeline manually and set "
        "config().resume_from"};
  if (ck.mode > static_cast<std::uint32_t>(selection::SearchMode::kKnapsack))
    return util::Error{util::ErrorCode::kParse,
                       "checkpoint records an unknown search mode"};
  try {
    Session s = ck.spec_path == "t2"    ? t2()
                : ck.spec_path == "usb" ? usb()
                                        : from_spec_file(ck.spec_path);
    s.interleave_options_.symmetry_reduction = ck.symmetry_reduction;
    s.interleave_options_.max_nodes = static_cast<std::size_t>(ck.max_nodes);
    s.config_.buffer_width = ck.buffer_width;
    s.config_.mode = static_cast<selection::SearchMode>(ck.mode);
    s.config_.packing = ck.packing;
    s.config_.max_combinations = static_cast<std::size_t>(ck.max_combinations);
    // Keep checkpointing where the interrupted run left it.
    s.config_.checkpoint_path = checkpoint_path;
    if (ck.spec_path == "t2")
      s.scenario(static_cast<int>(ck.instances));
    else
      s.interleave(ck.instances);
    s.config_.resume_from =
        std::make_shared<selection::SearchCheckpoint>(std::move(ck));
    return s;
  } catch (const std::exception& e) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       std::string("Session::resume: ") + e.what()};
  }
}

selection::SelectionResult Session::run_distributed(
    const selection::DistConfig& dist) {
  OBS_SPAN("session.select_distributed");
  if (!workload_->u) {
    if (workload_->spec) interleave(2);
    else if (workload_->usb) interleave(1);
    else if (workload_->t2)
      throw std::logic_error(
          "Session::run_distributed: no interleaving (call scenario() "
          "first)");
    else
      throw std::logic_error(
          "Session::run_distributed: no interleaving (call interleave() "
          "first)");
  }
  selection::SelectorConfig cfg = config_with_provenance();
  // Wave checkpointing is an in-process feature; the distributed engine's
  // unit of recovery is the work unit itself.
  cfg.checkpoint_path.clear();

  // Graceful degradation: anything that makes worker processes impossible
  // or pointless falls back to the in-process engine, with the reason
  // recorded as a degradation note — never an error.
  std::string why;
  if (dist.workers == 0)
    why = "workers == 0";
  else if (dist.worker_argv.empty())
    why = "no worker command";
  else if (cfg.checkpoint_spec_path.empty())
    why = "no spec provenance for workers to rebuild from";
  else if (!selection::is_sharded(cfg.mode))
    why = "sequential search mode";
  else if (ensure_parallel().memory_degraded(cfg))
    why = "memory budget forces the beam-limited serial search";
  if (!why.empty()) {
    OBS_COUNT("dist.degraded_runs", 1);
    dist_stats_ = selection::DistStats{};
    selection::SelectionResult result = select_impl(false);
    const std::string note = "distributed: fell back in-process (" + why + ")";
    result.degradation = result.degradation.empty()
                             ? note
                             : note + "; " + result.degradation;
    last_selection_ = result;
    return result;
  }

  selection::DistCoordinator coordinator(ensure_parallel(), dist);
  selection::SelectionResult result = coordinator.run(cfg);
  dist_stats_ = coordinator.stats();
  if (workload_->u->degraded()) {
    const std::string note = "interleave: " + workload_->u->degradation();
    result.degradation = result.degradation.empty()
                             ? note
                             : note + "; " + result.degradation;
  }
  last_selection_ = result;
  return result;
}

util::Result<selection::WorkerEngine> Session::worker_engine(
    const selection::SearchCheckpoint& ck) {
  if (ck.spec_path.empty())
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "work unit carries no spec provenance"};
  if (ck.mode > static_cast<std::uint32_t>(selection::SearchMode::kKnapsack))
    return util::Error{util::ErrorCode::kParse,
                       "work unit records an unknown search mode"};
  try {
    Session s = ck.spec_path == "t2"    ? t2()
                : ck.spec_path == "usb" ? usb()
                                        : from_spec_file(ck.spec_path);
    s.interleave_options_.symmetry_reduction = ck.symmetry_reduction;
    s.interleave_options_.max_nodes = static_cast<std::size_t>(ck.max_nodes);
    s.config_.buffer_width = ck.buffer_width;
    s.config_.mode = static_cast<selection::SearchMode>(ck.mode);
    s.config_.packing = ck.packing;
    s.config_.max_combinations =
        static_cast<std::size_t>(ck.max_combinations);
    s.config_.jobs = 1;  // the unit walk is serial; workers ARE the pool
    if (ck.spec_path == "t2")
      s.scenario(static_cast<int>(ck.instances));
    else
      s.interleave(ck.instances);

    auto holder = std::make_shared<Session>(std::move(s));
    selection::ParallelSelector& parallel = holder->ensure_parallel();
    selection::WorkerEngine engine;
    engine.keepalive = holder;
    engine.selector = std::shared_ptr<const selection::ParallelSelector>(
        holder, &parallel);
    engine.config = holder->config_with_provenance();
    return engine;
  } catch (const std::exception& e) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       std::string("Session::worker_engine: ") + e.what()};
  }
}

selection::SelectionResult Session::select() { return select_impl(false); }

selection::SelectionResult Session::select_with_flow_constraint() {
  return select_impl(true);
}

selection::LocalizationResult Session::localize(
    std::span<const flow::IndexedMessage> observed) const {
  if (!workload_->u || !last_selection_)
    throw std::logic_error("Session::localize: run select() first");
  return selection::localize(*workload_->u, last_selection_->observable(),
                             std::vector<flow::IndexedMessage>(
                                 observed.begin(), observed.end()));
}

debug::CaseStudyResult Session::run_case_study(
    int case_id, debug::CaseStudyOptions options) {
  if (!workload_->t2)
    throw std::logic_error("Session::run_case_study: not a t2 session");
  const auto cases = soc::standard_case_studies();
  if (case_id < 1 || case_id > static_cast<int>(cases.size()))
    throw std::out_of_range("Session::run_case_study: case id out of range");
  OBS_SPAN("session.case_study");
  options.jobs = config_.jobs;
  return debug::run_case_study(*workload_->t2, cases[case_id - 1], options);
}

debug::MonteCarloResult Session::monte_carlo(int case_id, std::size_t runs,
                                             debug::CaseStudyOptions base) {
  if (!workload_->t2)
    throw std::logic_error("Session::monte_carlo: not a t2 session");
  const auto cases = soc::standard_case_studies();
  if (case_id < 1 || case_id > static_cast<int>(cases.size()))
    throw std::out_of_range("Session::monte_carlo: case id out of range");
  // Parallelism is applied across trials, not inside each trial's
  // selection step — nesting pools would oversubscribe the machine.
  OBS_SPAN("session.monte_carlo");
  return debug::evaluate_case_study(*workload_->t2, cases[case_id - 1], base,
                                    runs, config_.jobs, pool(),
                                    &config_.cancel);
}

const flow::MessageCatalog& Session::catalog() const {
  if (!workload_->catalog) throw std::logic_error("Session: no catalog");
  return *workload_->catalog;
}

const flow::ParsedSpec& Session::spec() const {
  if (!workload_->spec) throw std::logic_error("Session: not a spec session");
  return *workload_->spec;
}

const flow::InterleavedFlow& Session::interleaving() const {
  if (!workload_->u)
    throw std::logic_error(
        "Session: no interleaving (call interleave()/scenario())");
  return *workload_->u;
}

const soc::T2Design& Session::design() const {
  if (!workload_->t2) throw std::logic_error("Session: not a t2 session");
  return *workload_->t2;
}

}  // namespace tracesel
