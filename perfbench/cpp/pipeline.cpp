#include "pipeline.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "debug/debugger.hpp"
#include "debug/observation.hpp"
#include "debug/root_cause.hpp"
#include "debug/serialize.hpp"
#include "flow/indexed_flow.hpp"
#include "flow/interleaved_flow.hpp"
#include "flow/parser.hpp"
#include "netlist/usb_design.hpp"
#include "selection/combination.hpp"
#include "selection/coverage.hpp"
#include "selection/localization.hpp"
#include "soc/fault_injector.hpp"
#include "soc/scenario.hpp"
#include "soc/simulator.hpp"
#include "soc/trace_buffer.hpp"
#include "util/atomic_file.hpp"
#include "util/obs.hpp"

namespace perfbench {

namespace {

std::string width_suffix(std::uint32_t width) {
  return "-w" + std::to_string(width);
}

double counter(const char* name) {
  return static_cast<double>(tracesel::obs::registry().counter_value(name));
}

}  // namespace

SelectCase t2flow_case(const std::string& data_dir, std::uint32_t instances,
                       std::uint32_t width) {
  SelectCase c;
  c.key = "t2flow-i" + std::to_string(instances) + width_suffix(width);
  c.request.spec = data_dir + "/t2.flow";
  c.request.instances = instances;
  c.request.buffer_width = width;
  // The 2-instance product has 8.9M nodes; the default cap rejects it.
  if (instances > 1) c.request.max_nodes = 100'000'000;
  return c;
}

SelectCase t2_scenario_case(int scenario, std::uint32_t width) {
  SelectCase c;
  c.key = "t2s" + std::to_string(scenario) + width_suffix(width);
  c.request.spec = "t2";
  c.request.instances = static_cast<std::uint32_t>(scenario);
  c.request.buffer_width = width;
  return c;
}

SelectCase usb_case(std::uint32_t width) {
  SelectCase c;
  c.key = "usb-i2" + width_suffix(width);
  c.request.spec = "usb";
  c.request.instances = 2;
  c.request.buffer_width = width;
  return c;
}

SelectCase fig2_case(const std::string& spec_text, std::uint32_t width) {
  SelectCase c;
  c.key = "fig2-i2" + width_suffix(width);
  c.request.spec.clear();
  c.request.spec_text = spec_text;
  c.request.instances = 2;
  c.request.buffer_width = width;
  return c;
}

std::string run_select(const tracesel::JobRequest& request) {
  auto out = tracesel::QueryCore::run(request, nullptr, {});
  if (!out.ok()) throw std::runtime_error(out.error().to_string());
  return selection::to_json(*out.value().workload->catalog,
                            *out.value().result)
      .dump(2);
}

void TruthCheck::expect(const std::string& what, double outside,
                        double inside) {
  if (outside == inside) return;
  ++mismatches;
  char line[256];
  std::snprintf(line, sizeof line, "%s: measured %.0f, obs counter %.0f",
                what.c_str(), outside, inside);
  if (std::find(notes.begin(), notes.end(), line) == notes.end())
    notes.emplace_back(line);
}

void LayerSizes::merge(double n, double e, double p, double irss,
                       double grss) {
  nodes = std::max(nodes, n);
  edges = std::max(edges, e);
  product_states = std::max(product_states, p);
  interleave_rss_mb = std::max(interleave_rss_mb, irss);
  gain_engine_rss_mb = std::max(gain_engine_rss_mb, grss);
}

std::unique_ptr<tracesel::Workload> build_traced(
    const tracesel::JobRequest& req, TruthCheck& truth, LayerSizes& sizes) {
  auto w = std::make_unique<tracesel::Workload>();
  {
    OBS_SPAN("bench.flow.parse");
    if (!req.spec_text.empty()) {
      w->spec = std::make_unique<flow::ParsedSpec>(
          flow::parse_flow_spec(req.spec_text));
      w->catalog = &w->spec->catalog;
    } else if (req.spec == "t2") {
      w->t2 = std::make_unique<soc::T2Design>();
      w->catalog = &w->t2->catalog();
    } else if (req.spec == "usb") {
      w->usb = std::make_unique<netlist::UsbDesign>();
      w->catalog = &w->usb->catalog();
    } else {
      auto bytes = tracesel::util::read_file_capped(req.spec, 64u << 20);
      if (!bytes.ok()) throw std::runtime_error(bytes.error().message);
      w->spec = std::make_unique<flow::ParsedSpec>(
          flow::parse_flow_spec(bytes.value()));
      w->catalog = &w->spec->catalog;
    }
  }

  const flow::InterleaveOptions options = req.interleave_options();
  const double nodes_before = counter("interleave.nodes");
  const double edges_before = counter("interleave.edges");
  const double rss_before = rss_mb();
  {
    OBS_SPAN("bench.flow.interleave");
    if (w->t2) {
      w->u = std::make_unique<flow::InterleavedFlow>(soc::build_interleaving(
          *w->t2, soc::scenario_by_id(static_cast<int>(req.instances)),
          options));
    } else if (w->usb) {
      w->u = std::make_unique<flow::InterleavedFlow>(
          w->usb->interleaving(req.instances, options));
    } else {
      std::vector<const flow::Flow*> flows;
      for (const flow::Flow& f : w->spec->flows) flows.push_back(&f);
      w->u = std::make_unique<flow::InterleavedFlow>(
          flow::InterleavedFlow::build(
              flow::make_instances(flows, req.instances), options));
    }
  }
  const double rss_interleaved = rss_mb();
  const flow::InterleavedFlow& u = *w->u;
  truth.expect("interleave.nodes", static_cast<double>(u.num_nodes()),
               counter("interleave.nodes") - nodes_before);
  truth.expect("interleave.edges", static_cast<double>(u.num_edges()),
               counter("interleave.edges") - edges_before);
  const auto product_gauge = static_cast<double>(
      tracesel::obs::registry().gauge_value("interleave.product_states"));
  if (product_gauge < static_cast<double>(u.num_product_states()))
    truth.expect("interleave.product_states (high-water gauge)",
                 static_cast<double>(u.num_product_states()), product_gauge);

  {
    OBS_SPAN("bench.selection.gain_engine");
    w->selector = std::make_unique<selection::MessageSelector>(*w->catalog, u);
  }
  sizes.merge(static_cast<double>(u.num_nodes()),
              static_cast<double>(u.num_edges()),
              static_cast<double>(u.num_product_states()),
              rss_interleaved - rss_before, rss_mb() - rss_interleaved);
  return w;
}

TracedSelect select_traced(const tracesel::Workload& w,
                           const tracesel::JobRequest& req) {
  const selection::SelectorConfig config = req.selector_config();
  const double combos_before = counter("selection.combinations");
  const double evals_before = counter("selection.gain.evals");
  TracedSelect out;
  {
    OBS_SPAN("bench.selection.select");
    out.result = w.selector->select(config);
  }
  out.combinations_counted = counter("selection.combinations") - combos_before;
  out.gain_evals_counted = counter("selection.gain.evals") - evals_before;
  {
    OBS_SPAN("bench.report.serialize");
    out.report = selection::to_json(*w.catalog, out.result).dump(2);
  }
  return out;
}

void check_search_counters(const tracesel::Workload& w,
                           const tracesel::JobRequest& req,
                           const TracedSelect& sel, TruthCheck& truth) {
  const selection::SelectorConfig config = req.selector_config();
  if (!tracesel::obs::enabled() ||
      (config.mode != selection::SearchMode::kMaximal &&
       config.mode != selection::SearchMode::kExhaustive))
    return;
  // Ground truth: the fitting combinations the mode scores, enumerated
  // again from outside.
  const auto& candidates = w.selector->candidates();
  const auto scored = static_cast<double>(
      config.mode == selection::SearchMode::kMaximal
          ? selection::enumerate_maximal_combinations(
                *w.catalog, candidates, config.buffer_width,
                config.max_combinations)
                .size()
          : selection::enumerate_combinations(*w.catalog, candidates,
                                              config.buffer_width,
                                              config.max_combinations)
                .size());
  truth.expect("selection.combinations", scored, sel.combinations_counted);
  // Each scored combination takes at least one gain evaluation (the final
  // observable set adds a few more).
  if (sel.gain_evals_counted < scored)
    truth.expect("selection.gain.evals (at least one per combination)",
                 scored, sel.gain_evals_counted);
}

bool time_coverage(const tracesel::Workload& w,
                   const selection::SelectionResult& result) {
  const std::vector<flow::MessageId> observable = result.observable();
  double coverage = 0;
  {
    OBS_SPAN("bench.selection.coverage");
    coverage = selection::flow_spec_coverage(*w.u, observable);
  }
  return coverage == result.coverage;
}

DebugCase debug_case(int case_id, std::uint64_t trial_seed) {
  DebugCase c;
  for (const soc::CaseStudy& cs : soc::standard_case_studies())
    if (cs.id == case_id) c.study = cs;
  if (c.study.id != case_id)
    throw std::out_of_range("no case study " + std::to_string(case_id));
  c.trial_seed = trial_seed;
  c.key = "case" + std::to_string(case_id) + "-t" + std::to_string(trial_seed);
  return c;
}

namespace {

std::string case_digest(const flow::MessageCatalog& catalog,
                        const DebugCase& c,
                        const selection::SelectionResult& selection,
                        const soc::SimResult& buggy,
                        const debug::DebugReport& report,
                        const std::vector<debug::ScoredCause>& ranked,
                        const selection::LocalizationResult& localization) {
  using tracesel::util::Json;
  Json out = Json::object();
  out.set("case", Json::number(static_cast<std::int64_t>(c.study.id)));
  out.set("trial_seed", Json::number(c.trial_seed));
  out.set("selection", selection::to_json(catalog, selection));
  out.set("failed", Json::boolean(buggy.failed));
  out.set("fail_session",
          Json::number(static_cast<std::uint64_t>(buggy.fail_session)));
  Json causes = Json::array();
  for (const debug::RootCause& rc : report.final_causes)
    causes.push_back(Json::number(static_cast<std::int64_t>(rc.id)));
  out.set("surviving_causes", std::move(causes));
  Json weighted = Json::array();
  for (const debug::ScoredCause& sc : ranked)
    weighted.push_back(Json::number(static_cast<std::int64_t>(sc.cause.id)));
  out.set("weighted_causes", std::move(weighted));
  out.set("steps", Json::number(static_cast<std::uint64_t>(report.steps.size())));
  out.set("messages_investigated",
          Json::number(static_cast<std::uint64_t>(report.messages_investigated)));
  Json loc = Json::object();
  loc.set("total_paths", Json::number(localization.total_paths));
  loc.set("consistent_paths", Json::number(localization.consistent_paths));
  loc.set("fraction", Json::number(localization.fraction));
  out.set("localization", std::move(loc));
  return out.dump(2);
}

debug::CaseStudyOptions case_options(const DebugCase& c) {
  debug::CaseStudyOptions options;
  options.seed = c.trial_seed;
  options.jobs = 1;
  return options;  // default FaultProfile: a clean capture channel
}

}  // namespace

std::string run_case(const soc::T2Design& design, const DebugCase& c) {
  const debug::CaseStudyResult r =
      debug::run_case_study(design, c.study, case_options(c));
  return case_digest(design.catalog(), c, r.selection, r.buggy, r.report,
                     r.ranked_causes, r.localization);
}

std::string run_case_traced(const soc::T2Design& design, const DebugCase& c,
                            TruthCheck& truth, LayerSizes& sizes) {
  const debug::CaseStudyOptions options = case_options(c);
  const flow::MessageCatalog& catalog = design.catalog();
  const soc::Scenario scenario = soc::scenario_by_id(c.study.scenario_id);
  std::vector<bug::Bug> bugs;
  const auto resolve = [&](int id) {
    try {
      return soc::bug_by_id(design, id);
    } catch (const std::out_of_range&) {
      return soc::extension_bug_by_id(design, id);
    }
  };
  bugs.push_back(resolve(c.study.active_bug_id));
  bugs.back().trigger_session = options.active_trigger_session;
  for (int id : c.study.dormant_bug_ids) {
    bugs.push_back(resolve(id));
    bugs.back().trigger_session = options.sessions + 1000;  // never fires
  }
  const debug::RootCauseCatalog causes =
      debug::RootCauseCatalog::for_scenario(design, c.study.scenario_id);
  const std::vector<const flow::Flow*> flows =
      soc::scenario_flows(design, scenario);

  const double nodes_before = counter("interleave.nodes");
  const double rss_before = rss_mb();
  std::unique_ptr<flow::InterleavedFlow> u;
  {
    OBS_SPAN("bench.flow.interleave");
    u = std::make_unique<flow::InterleavedFlow>(flow::InterleavedFlow::build(
        flow::make_instances(flows, scenario.instances_per_flow)));
  }
  const double rss_interleaved = rss_mb();
  truth.expect("interleave.nodes", static_cast<double>(u->num_nodes()),
               counter("interleave.nodes") - nodes_before);
  std::unique_ptr<selection::MessageSelector> selector;
  {
    OBS_SPAN("bench.selection.gain_engine");
    selector = std::make_unique<selection::MessageSelector>(catalog, *u);
  }
  sizes.merge(static_cast<double>(u->num_nodes()),
              static_cast<double>(u->num_edges()),
              static_cast<double>(u->num_product_states()),
              rss_interleaved - rss_before, rss_mb() - rss_interleaved);
  selection::SelectorConfig config;
  config.buffer_width = options.buffer_width;
  config.packing = options.packing;
  config.jobs = options.jobs;
  selection::SelectionResult selection;
  {
    OBS_SPAN("bench.selection.select");
    selection = selector->select(config);
  }

  soc::TraceBufferConfig buffer_config;
  buffer_config.width = options.buffer_width;
  buffer_config.depth = options.buffer_depth;
  soc::TraceBuffer golden_buffer(buffer_config);
  soc::TraceBuffer buggy_buffer(buffer_config);
  golden_buffer.configure(catalog, selection);
  buggy_buffer.configure(catalog, selection);
  soc::SocSimulator golden_sim(catalog, flows, scenario.instances_per_flow);
  soc::SocSimulator buggy_sim(catalog, flows, scenario.instances_per_flow);
  for (const bug::Bug& b : bugs) buggy_sim.inject(b);
  soc::SimOptions sim_options;
  sim_options.sessions = options.sessions;
  sim_options.seed = options.seed;
  soc::SimResult golden;
  soc::SimResult buggy;
  {
    OBS_SPAN("bench.soc.simulate");
    golden = golden_sim.run(sim_options);
    buggy = buggy_sim.run(sim_options);
  }
  for (const soc::TimedMessage& tm : golden.messages) golden_buffer.record(tm);
  const soc::FaultInjector channel(catalog, options.faults);
  for (const soc::TimedMessage& tm : channel.apply(buggy.messages, 0))
    buggy_buffer.record(tm);
  const std::vector<soc::TraceRecord> golden_records = golden_buffer.records();
  const std::vector<soc::TraceRecord> buggy_records = buggy_buffer.records();
  const std::vector<flow::MessageId> traced = selection.observable();
  const debug::Observation observation =
      debug::observe(catalog, traced, golden_records, buggy_records);

  debug::DebugReport report;
  std::vector<debug::ScoredCause> ranked;
  {
    OBS_SPAN("bench.debug.root_cause");
    const debug::Debugger debugger(catalog, flows, causes);
    report = debugger.debug(observation, buggy_records, options.seed);
    ranked = debug::prune_weighted(causes, observation,
                                   options.cause_score_threshold);
  }

  std::vector<flow::IndexedMessage> observed;
  for (const soc::TraceRecord& r : buggy_records)
    if (r.session == buggy.fail_session) observed.push_back(r.msg);
  {
    // Observation breaks instance symmetry: localization answers on the
    // unreduced product, through compiled kernel programs.
    OBS_SPAN("bench.flow.interleave.concrete");
    (void)u->concrete();
  }
  {
    OBS_SPAN("bench.flow.kernel.compile");
    (void)u->program();
    (void)u->concrete().program();
  }
  selection::LocalizationResult localization;
  {
    OBS_SPAN("bench.selection.localize");
    localization = selection::localize(*u, traced, observed);
  }
  return case_digest(catalog, c, selection, buggy, report, ranked,
                     localization);
}

}  // namespace perfbench
