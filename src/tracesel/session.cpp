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
  return from_spec(flow::parse_flow_spec_file(path));
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
  // New options invalidate any interleaving-derived state.
  if (has_interleaving()) {
    workload_->u.reset();
    workload_->selector.reset();
    last_selection_.reset();
  }
  return *this;
}

flow::InterleaveOptions Session::merged_interleave_options() const {
  flow::InterleaveOptions opt = interleave_options_;
  opt.cancel = config_.cancel;  // SIGINT/deadline covers the build too
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

selection::SelectionResult Session::select_impl(bool flow_constraint) {
  if (!has_interleaving()) {
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

  selection::SelectionResult result =
      QueryCore::select(*workload_, config_, flow_constraint);
  last_selection_ = result;
  return result;
}

selection::SelectionResult Session::select() { return select_impl(false); }

selection::SelectionResult Session::select_with_flow_constraint() {
  return select_impl(true);
}

selection::LocalizationResult Session::localize(
    std::span<const flow::IndexedMessage> observed) const {
  if (!last_selection_)
    throw std::logic_error("Session::localize: run select() first");
  return selection::localize(
      flow::ProductGrid::build(stats().instances(),
                               merged_interleave_options()),
      last_selection_->observable(),
      std::vector<flow::IndexedMessage>(observed.begin(), observed.end()));
}

debug::CaseStudyResult Session::run_case_study(
    int case_id, debug::CaseStudyOptions options) {
  if (!workload_->t2)
    throw std::logic_error("Session::run_case_study: not a t2 session");
  const auto cases = soc::standard_case_studies();
  if (case_id < 1 || case_id > static_cast<int>(cases.size()))
    throw std::out_of_range("Session::run_case_study: case id out of range");
  OBS_SPAN("session.case_study");
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

const flow::ProductStats& Session::stats() const {
  if (!workload_->selector)
    throw std::logic_error(
        "Session: no interleaving (call interleave()/scenario())");
  return workload_->selector->stats();
}

const soc::T2Design& Session::design() const {
  if (!workload_->t2) throw std::logic_error("Session: not a t2 session");
  return *workload_->t2;
}

}  // namespace tracesel
