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

struct CaseStudyOptions {
  std::uint32_t buffer_width = 32;  ///< Table 3 assumes 32 bits
  bool packing = true;
  /// Ignored: the case study's selection step is serial. Kept only so
  /// callers that still set it (the benchmark) compile.
  std::size_t jobs = 1;
  std::uint32_t sessions = 4;   ///< test repetitions per run
  std::uint64_t seed = 2018;
  std::size_t buffer_depth = 1u << 16;
  /// Session at which the active bug arms; > 0 models the long symptom
  /// latencies of Table 2 (golden-looking behaviour first).
  std::uint32_t active_trigger_session = 1;

  /// Capture-channel fault model (disabled by default = perfect channel).
  soc::FaultProfile faults;
  /// Recapture attempts with fresh fault seeds on an unusable capture.
  std::uint32_t capture_retries = 2;
  /// Invalid-record fraction beyond which a capture counts as unusable.
  double unusable_threshold = 0.5;
  /// Minimum agreement score for the confidence-weighted cause verdict.
  double cause_score_threshold = 0.65;
};

/// The workbench outcome plus the case study and scenario it ran.
struct CaseStudyResult : WorkbenchResult {
  soc::CaseStudy case_study;
  soc::Scenario scenario;
};

/// Runs one full case study. Deterministic given the options.
CaseStudyResult run_case_study(const soc::T2Design& design,
                               const soc::CaseStudy& case_study,
                               const CaseStudyOptions& options = {});

}  // namespace tracesel::debug
