#include "debug/workbench.hpp"

#include <thread>
#include <utility>

#include "util/backoff.hpp"
#include "util/obs.hpp"

namespace tracesel::debug {

Workbench::Workbench(const soc::ScenarioModel& model,
                     const RootCauseCatalog& causes)
    : model_(&model), causes_(&causes) {}

WorkbenchResult Workbench::run(const std::vector<bug::Bug>& bugs,
                               const WorkbenchConfig& config) const {
  OBS_SPAN("debug.workbench");
  WorkbenchResult result;
  const flow::MessageCatalog& catalog = model_->catalog();
  const std::vector<const flow::Flow*>& flows = model_->flows();

  // --- Message selection over the interleaving's statistics ---
  {
    OBS_SPAN("debug.select");
    result.selection = model_->select(config.buffer_width, config.packing);
  }

  // --- Golden and buggy simulations with identical seeds ---
  soc::SocSimulator golden_sim(catalog, flows, model_->instances_per_flow());
  soc::SocSimulator buggy_sim(catalog, flows, model_->instances_per_flow());
  for (const bug::Bug& b : bugs) buggy_sim.inject(b);
  soc::SimOptions sim_opts;
  sim_opts.sessions = config.sessions;
  sim_opts.seed = config.seed;
  {
    OBS_SPAN("debug.simulate");
    result.golden = golden_sim.run(sim_opts);
    result.buggy = buggy_sim.run(sim_opts);
  }

  // --- Trace buffers: the golden run is captured whole ---
  soc::TraceBufferConfig tb_cfg;
  tb_cfg.width = config.buffer_width;
  tb_cfg.depth = config.buffer_depth;
  soc::TraceBuffer buggy_buffer(tb_cfg);
  {
    OBS_SPAN("debug.trace_buffer");
    soc::TraceBuffer golden_buffer(tb_cfg);
    golden_buffer.configure(catalog, result.selection);
    for (const soc::TimedMessage& tm : result.golden.messages)
      golden_buffer.record(tm);
    result.golden_records = golden_buffer.records();
  }

  // --- Buggy-side capture through the (possibly faulty) channel ---
  const bool faulty = config.faults.enabled();
  const soc::FaultInjector injector(catalog, config.faults);
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
    buggy_buffer.configure(catalog, result.selection);  // reset the ring
    // A perfect channel delivers the run itself: record it without a copy.
    std::vector<soc::TimedMessage> faulted;
    if (faulty) {
      faulted =
          injector.apply(result.buggy.messages, attempt, &result.fault_stats);
    } else {
      const std::size_t n = result.buggy.messages.size();
      result.fault_stats = {.input_messages = n, .delivered_messages = n};
    }
    const std::vector<soc::TimedMessage>& delivered =
        faulty ? faulted : result.buggy.messages;
    for (const soc::TimedMessage& tm : delivered) buggy_buffer.record(tm);
    result.buggy_records = buggy_buffer.records();

    if (!faulty) {
      // Perfect channel: the original exact decode.
      result.observation = observe(catalog, traced, result.golden_records,
                                   result.buggy_records);
      break;
    }
    util::Result<Observation> checked =
        observe_checked(catalog, traced, result.golden_records,
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
          catalog, traced, result.golden_records, result.buggy_records);
      result.capture_degraded = true;
      OBS_COUNT("debug.capture.degraded", 1);
      break;
    }
    // Unusable: recapture with a fresh fault salt (a re-run on silicon).
    // Re-arming the trigger is not free — back off before the next pass.
    const auto delay = recapture_backoff.next();
    result.recapture_delays_ms.push_back(
        static_cast<std::uint64_t>(delay.count()));
    OBS_COUNT("debug.recapture.backoff_ms", delay.count());
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }
  OBS_COUNT("debug.faults.injected", result.fault_stats.total_injected());

  // --- Root-cause pruning: exact walk plus the weighted verdict ---
  {
    OBS_SPAN("debug.root_cause");
    const Debugger debugger(catalog, flows, *causes_);
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
  const flow::ProductGrid& grid = model_->grid();
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
