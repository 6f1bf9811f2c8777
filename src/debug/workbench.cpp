#include "debug/workbench.hpp"

#include <stdexcept>
#include <thread>
#include <utility>

#include "util/backoff.hpp"
#include "util/obs.hpp"

namespace tracesel::debug {

Workbench::Workbench(const flow::MessageCatalog& catalog,
                     std::vector<const flow::Flow*> flows,
                     const RootCauseCatalog& causes)
    : catalog_(&catalog), flows_(std::move(flows)), causes_(&causes) {
  if (flows_.empty()) throw std::invalid_argument("Workbench: no flows");
}

WorkbenchResult Workbench::run(const std::vector<bug::Bug>& bugs,
                               const WorkbenchConfig& config) const {
  OBS_SPAN("debug.workbench");
  WorkbenchResult result;

  // --- Message selection over the interleaving's statistics ---
  const auto instances =
      flow::make_instances(flows_, config.instances_per_flow);
  const selection::MessageSelector selector(
      *catalog_, flow::ProductStats::build(instances));
  selection::SelectorConfig sel_cfg;
  sel_cfg.buffer_width = config.buffer_width;
  sel_cfg.packing = config.packing;
  result.selection = selector.select(sel_cfg);

  // --- Trace buffers ---
  soc::TraceBufferConfig tb_cfg;
  tb_cfg.width = config.buffer_width;
  tb_cfg.depth = config.buffer_depth;
  soc::TraceBuffer golden_buffer(tb_cfg);
  soc::TraceBuffer buggy_buffer(tb_cfg);
  golden_buffer.configure(*catalog_, result.selection);
  buggy_buffer.configure(*catalog_, result.selection);

  // --- Golden and buggy simulations with identical seeds ---
  soc::SocSimulator golden_sim(*catalog_, flows_,
                               config.instances_per_flow);
  soc::SocSimulator buggy_sim(*catalog_, flows_, config.instances_per_flow);
  for (const bug::Bug& b : bugs) buggy_sim.inject(b);
  soc::SimOptions sim_opts;
  sim_opts.sessions = config.sessions;
  sim_opts.seed = config.seed;
  {
    OBS_SPAN("debug.simulate");
    result.golden = golden_sim.run(sim_opts);
    result.buggy = buggy_sim.run(sim_opts);
  }

  for (const soc::TimedMessage& tm : result.golden.messages)
    golden_buffer.record(tm);
  result.golden_records = golden_buffer.records();

  // --- Buggy-side capture through the (possibly faulty) channel ---
  const bool faulty = config.faults.enabled();
  const soc::FaultInjector injector(*catalog_, config.faults);
  const std::vector<flow::MessageId> traced = result.selection.observable();
  ObserveOptions obs_opts;
  obs_opts.unusable_threshold = config.unusable_threshold;

  // Recapture spacing: the shared util::Backoff schedule, stream-salted
  // with the run seed so repeated runs replay identical delays.
  util::Backoff recapture_backoff(config.recapture_backoff, config.seed);

  for (std::uint32_t attempt = 0;; ++attempt) {
    OBS_SPAN("debug.capture");
    result.capture_attempts = attempt + 1;
    OBS_COUNT("debug.capture.attempts", 1);
    if (attempt > 0) OBS_COUNT("debug.capture.retries", 1);
    buggy_buffer.configure(*catalog_, result.selection);  // reset the ring
    const std::vector<soc::TimedMessage> delivered =
        injector.apply(result.buggy.messages, attempt, &result.fault_stats);
    for (const soc::TimedMessage& tm : delivered) buggy_buffer.record(tm);
    result.buggy_records = buggy_buffer.records();

    if (!faulty) {
      // Perfect channel: the original exact decode.
      result.observation = observe(*catalog_, traced, result.golden_records,
                                   result.buggy_records);
      break;
    }
    util::Result<Observation> checked =
        observe_checked(*catalog_, traced, result.golden_records,
                        result.buggy_records, obs_opts);
    if (checked.ok()) {
      result.observation = std::move(checked).value();
      break;
    }
    if (attempt >= config.capture_retries) {
      // Every recapture stayed unusable: degrade to the lenient decode
      // rather than crash — statuses fall to kUnknown where evidence is
      // gone, and every consumer below weighs that accordingly.
      result.observation = observe_lenient(
          *catalog_, traced, result.golden_records, result.buggy_records);
      result.capture_degraded = true;
      OBS_COUNT("debug.capture.degraded", 1);
      break;
    }
    // Unusable: recapture with a fresh fault salt (a re-run on silicon).
    // Re-arming the trigger is not free — back off before the next pass.
    const auto delay = recapture_backoff.next();
    result.recapture_delays_ms.push_back(
        static_cast<std::uint64_t>(delay.count()));
    OBS_HIST("debug.recapture.backoff_ms",
             static_cast<double>(delay.count()));
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }
  OBS_COUNT("debug.faults.injected", result.fault_stats.total_injected());

  // --- Root-cause pruning: exact walk plus the weighted verdict ---
  {
    OBS_SPAN("debug.root_cause");
    const Debugger debugger(*catalog_, flows_, *causes_);
    result.report =
        debugger.debug(result.observation, result.buggy_records, config.seed);
    result.ranked_causes = prune_weighted(*causes_, result.observation,
                                          config.cause_score_threshold);
  }

  // --- Path localization on the failing session's projection ---
  // Caveat: if the buffer wrapped (overwritten records), the surviving
  // projection is a suffix, not a prefix, and ordered prefix-consistency
  // may count zero paths; size buffer_depth generously (default 64k) or
  // use a TraceTrigger to spend depth on the failing region.
  // Paths are counted on the component flows' state grid (DESIGN.md §14).
  OBS_SPAN("debug.localize");
  const auto grid = flow::ProductGrid::build(instances);
  std::vector<flow::IndexedMessage> observed;
  for (const soc::TraceRecord& r : result.buggy_records) {
    if (r.session == result.buggy.fail_session) observed.push_back(r.msg);
  }
  if (!faulty) {
    result.localization =
        selection::localize(grid, result.selection.observable(), observed);
    result.robust_localization.result = result.localization;
    result.robust_localization.observed_total = observed.size();
    result.robust_localization.observed_screened = observed.size();
    result.robust_localization.observed_used = observed.size();
  } else {
    const auto robust = selection::localize_robust(
        grid, result.selection.observable(), observed);
    if (robust.ok()) {
      result.robust_localization = robust.value();
      result.localization = result.robust_localization.result;
    } else {
      // Structurally impossible localization (e.g. no executions): report
      // zero knowledge rather than throwing mid-pipeline.
      result.robust_localization = selection::RobustLocalizationResult{};
      result.robust_localization.confidence = 0.0;
      result.robust_localization.unusable = true;
      result.localization = result.robust_localization.result;
    }
  }
  return result;
}

}  // namespace tracesel::debug
