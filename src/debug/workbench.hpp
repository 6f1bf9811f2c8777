#pragma once
// The debug workbench: the full selection -> simulation -> capture ->
// observation -> localization -> root-cause-pruning pipeline for *any*
// design expressed as a scenario model (a message catalog and a flow set,
// with their statistics, state grid and selections; soc/scenario_model.hpp)
// and a root-cause catalog. The T2 case studies (case_study.hpp) are thin
// wrappers over this; downstream users run their own SoCs (e.g. flows
// parsed from a .flow spec) through the same machinery.
//
// The capture channel may be faulty (WorkbenchConfig::faults): the buggy
// silicon's message stream then passes through a FaultInjector before the
// trace buffer, and the downstream stages degrade gracefully — hardened
// decode with per-message evidence, recapture retries with fresh fault
// seeds when a capture is unusable, confidence-weighted localization and
// root-cause ranking — instead of crashing or silently asserting a unique
// answer. The golden (pre-silicon reference) run is never faulted.

#include <cstdint>
#include <vector>

#include "debug/debugger.hpp"
#include "debug/observation.hpp"
#include "debug/root_cause.hpp"
#include "selection/localization.hpp"
#include "selection/selector.hpp"
#include "soc/fault_injector.hpp"
#include "soc/scenario_model.hpp"
#include "soc/simulator.hpp"
#include "soc/trace_buffer.hpp"
#include "util/backoff.hpp"

namespace tracesel::debug {

struct WorkbenchConfig {
  std::uint32_t buffer_width = 32;
  bool packing = true;
  std::uint32_t sessions = 4;
  std::uint64_t seed = 2018;
  std::size_t buffer_depth = 1u << 16;

  /// Capture-channel fault model; disabled (rate 0) reproduces the exact
  /// perfect-channel pipeline.
  soc::FaultProfile faults;
  /// Recapture attempts (fresh fault salt each time) when the decode
  /// reports an unusable capture.
  std::uint32_t capture_retries = 2;
  /// Delay schedule between recaptures (a re-run on silicon is not free:
  /// back off before re-arming the trigger). Exponential with seeded
  /// jitter; the stream is salted with WorkbenchConfig::seed so the same
  /// run replays the same delays. Defaults are sized for tests — real
  /// silicon would raise initial/cap by orders of magnitude.
  util::BackoffPolicy recapture_backoff{/*initial_ms=*/1, /*multiplier=*/2.0,
                                        /*cap_ms=*/50, /*jitter=*/0.25,
                                        /*seed=*/2018};
  /// Invalid-record fraction beyond which a capture is unusable.
  double unusable_threshold = 0.5;
  /// Minimum confidence-weighted agreement score for prune_weighted.
  double cause_score_threshold = 0.65;
};

struct WorkbenchResult {
  selection::SelectionResult selection;
  soc::SimResult golden;
  soc::SimResult buggy;
  std::vector<soc::TraceRecord> golden_records;
  std::vector<soc::TraceRecord> buggy_records;
  Observation observation;
  DebugReport report;
  selection::LocalizationResult localization;

  /// Capture-channel degradation telemetry (defaults = clean channel).
  soc::FaultStats fault_stats;
  std::size_t capture_attempts = 1;
  /// The backoff delay actually waited before each recapture, in order
  /// (empty when the first capture was usable). Deterministic per seed.
  std::vector<std::uint64_t> recapture_delays_ms;
  /// True when even the last recapture stayed unusable and the pipeline
  /// fell back to best-effort lenient decode.
  bool capture_degraded = false;
  /// Confidence-weighted verdict (always populated; on a clean channel the
  /// score-1.0 entries coincide with report.final_causes).
  std::vector<ScoredCause> ranked_causes;
  /// Localization with confidence weighting (clean channel: confidence 1).
  selection::RobustLocalizationResult robust_localization;
};

class Workbench {
 public:
  /// The model and the cause catalog must outlive the workbench.
  Workbench(const soc::ScenarioModel& model, const RootCauseCatalog& causes);

  /// Runs the full pipeline with the given bugs injected into the buggy
  /// simulation (the golden run is bug-free, same seed). Deterministic.
  /// Reads the selection and the state grid from the model, which builds
  /// each once; the model's instances_per_flow sets the simulations'.
  WorkbenchResult run(const std::vector<bug::Bug>& bugs,
                      const WorkbenchConfig& config = {}) const;

 private:
  const soc::ScenarioModel* model_;
  const RootCauseCatalog* causes_;
};

}  // namespace tracesel::debug
