#pragma once
// End-to-end case-study driver: selection -> simulation (golden + buggy)
// -> trace capture -> observation -> localization -> root-cause pruning.
// Benches for Tables 3, 6, 7 and Figs. 6, 7 run through this driver.

#include <cstdint>

#include "debug/workbench.hpp"
#include "soc/fault_injector.hpp"
#include "soc/scenario.hpp"
#include "soc/t2_bugs.hpp"

namespace tracesel::debug {

/// The workbench knobs of a case study.
struct CaseStudyOptions : WorkbenchConfig {
  /// Ignored: the case study's selection step is serial. Kept only so
  /// callers that still set it (the benchmark) compile.
  std::size_t jobs = 1;
  /// Session at which the active bug arms; > 0 models the long symptom
  /// latencies of Table 2 (golden-looking behaviour first).
  std::uint32_t active_trigger_session = 1;
};

/// The workbench outcome plus the case study and scenario it ran.
struct CaseStudyResult : WorkbenchResult {
  soc::CaseStudy case_study;
  soc::Scenario scenario;
};

/// Runs one full case study on the design's model of its scenario
/// (T2Design::scenario_model), which the first run of a scenario builds
/// and later runs share. Deterministic given the options.
CaseStudyResult run_case_study(const soc::T2Design& design,
                               const soc::CaseStudy& case_study,
                               const CaseStudyOptions& options = {});

}  // namespace tracesel::debug
