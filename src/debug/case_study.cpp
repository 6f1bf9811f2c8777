#include "debug/case_study.hpp"

#include <algorithm>

#include "util/obs.hpp"

namespace tracesel::debug {

namespace {

/// What a case study's workbench runs on.
struct CaseSetup {
  std::vector<bug::Bug> bugs;
  RootCauseCatalog causes;
  const soc::ScenarioModel* model;
};

CaseSetup set_up(const soc::T2Design& design, const soc::CaseStudy& case_study,
                 const CaseStudyOptions& options) {
  OBS_SPAN("debug.setup");
  // The injected-bug set: the active bug armed at the configured session,
  // dormant bugs armed beyond the run horizon. Bug ids resolve against the
  // paper's 14-bug set first, then the DMA extension bugs (ids 41+).
  const std::vector<bug::Bug> standard = soc::standard_bugs(design);
  const auto resolve = [&](int id) {
    const auto it = std::find_if(standard.begin(), standard.end(),
                                 [&](const bug::Bug& b) { return b.id == id; });
    return it != standard.end() ? *it : soc::extension_bug_by_id(design, id);
  };
  std::vector<bug::Bug> bugs;
  bug::Bug active = resolve(case_study.active_bug_id);
  active.trigger_session = options.active_trigger_session;
  bugs.push_back(std::move(active));
  for (int id : case_study.dormant_bug_ids) {
    bug::Bug dormant = resolve(id);
    dormant.trigger_session = options.sessions + 1000;  // never fires
    bugs.push_back(std::move(dormant));
  }
  return CaseSetup{
      std::move(bugs),
      RootCauseCatalog::for_scenario(design, case_study.scenario_id),
      &design.scenario_model(case_study.scenario_id)};
}

}  // namespace

CaseStudyResult run_case_study(const soc::T2Design& design,
                               const soc::CaseStudy& case_study,
                               const CaseStudyOptions& options) {
  OBS_SPAN("debug.case_study");
  CaseStudyResult result;
  result.case_study = case_study;
  result.scenario = soc::scenario_by_id(case_study.scenario_id);

  const CaseSetup setup = set_up(design, case_study, options);
  const Workbench workbench(*setup.model, setup.causes);
  static_cast<WorkbenchResult&>(result) = workbench.run(setup.bugs, options);
  return result;
}

}  // namespace tracesel::debug
