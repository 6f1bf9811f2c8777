#include "debug/case_study.hpp"

#include "util/obs.hpp"

namespace tracesel::debug {

CaseStudyResult run_case_study(const soc::T2Design& design,
                               const soc::CaseStudy& case_study,
                               const CaseStudyOptions& options) {
  OBS_SPAN("debug.case_study");
  CaseStudyResult result;
  result.case_study = case_study;
  result.scenario = soc::scenario_by_id(case_study.scenario_id);

  // Assemble the injected-bug set: the active bug armed at the configured
  // session, dormant bugs armed beyond the run horizon.
  std::vector<bug::Bug> bugs;
  {
    // Bug ids resolve against the paper's 14-bug set first, then the DMA
    // extension bugs (ids 41+).
    const auto resolve = [&](int id) {
      try {
        return soc::bug_by_id(design, id);
      } catch (const std::out_of_range&) {
        return soc::extension_bug_by_id(design, id);
      }
    };
    bug::Bug active = resolve(case_study.active_bug_id);
    active.trigger_session = options.active_trigger_session;
    bugs.push_back(std::move(active));
    for (int id : case_study.dormant_bug_ids) {
      bug::Bug dormant = resolve(id);
      dormant.trigger_session = options.sessions + 1000;  // never fires
      bugs.push_back(std::move(dormant));
    }
  }

  const RootCauseCatalog catalog =
      RootCauseCatalog::for_scenario(design, case_study.scenario_id);
  const Workbench workbench(design.catalog(),
                            soc::scenario_flows(design, result.scenario),
                            catalog);
  WorkbenchConfig config;
  config.buffer_width = options.buffer_width;
  config.packing = options.packing;
  config.instances_per_flow = result.scenario.instances_per_flow;
  config.sessions = options.sessions;
  config.seed = options.seed;
  config.buffer_depth = options.buffer_depth;
  config.faults = options.faults;
  config.capture_retries = options.capture_retries;
  config.unusable_threshold = options.unusable_threshold;
  config.cause_score_threshold = options.cause_score_threshold;
  static_cast<WorkbenchResult&>(result) = workbench.run(bugs, config);
  return result;
}

}  // namespace tracesel::debug
