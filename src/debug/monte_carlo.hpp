#pragma once
// Monte-Carlo evaluation of the debugging pipeline: repeats a case study
// across seeds (different schedulings, latencies, investigation orders)
// and reports the distribution of the headline metrics. The paper gives
// single-run numbers; this harness shows how stable they are.

#include <cstddef>

#include "debug/case_study.hpp"
#include "util/cancel.hpp"

namespace tracesel::debug {

struct MetricStats {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct MonteCarloResult {
  std::size_t runs = 0;            ///< trials that actually completed
  std::size_t requested_runs = 0;  ///< trials asked for
  /// True when cancellation stopped the evaluation early: the statistics
  /// aggregate only the completed trials.
  bool partial = false;
  std::size_t failures_detected = 0;  ///< runs whose symptom manifested
  MetricStats pruned_fraction;
  MetricStats localization_fraction;
  MetricStats messages_investigated;
  MetricStats pairs_investigated;
};

/// Runs the case study `runs` times with seeds base.seed, base.seed+1, ...
/// and aggregates. Each trial derives its RNG stream purely from its trial
/// index, so the result is deterministic. A non-null `cancel` makes the
/// evaluation cooperative: remaining trials are skipped once it fires and
/// the result aggregates the completed trials only (partial = true).
MonteCarloResult evaluate_case_study(const soc::T2Design& design,
                                     const soc::CaseStudy& case_study,
                                     const CaseStudyOptions& base,
                                     std::size_t runs,
                                     const util::CancelToken* cancel = nullptr);

}  // namespace tracesel::debug
