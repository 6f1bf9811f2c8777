#include "debug/monte_carlo.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/obs.hpp"
#include "util/stats.hpp"

namespace tracesel::debug {

namespace {

MetricStats stats_of(const std::vector<double>& xs) {
  MetricStats s;
  if (xs.empty()) return s;
  s.mean = util::mean(xs);
  s.stddev = util::stddev(xs);
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  return s;
}

}  // namespace

MonteCarloResult evaluate_case_study(const soc::T2Design& design,
                                     const soc::CaseStudy& case_study,
                                     const CaseStudyOptions& base,
                                     std::size_t runs,
                                     const util::CancelToken* cancel) {
  if (runs == 0)
    throw std::invalid_argument("evaluate_case_study: zero runs");

  OBS_SPAN("debug.monte_carlo");
  MonteCarloResult result;
  result.requested_runs = runs;
  // Each trial derives its seed from its index. Under cancellation the
  // remaining trials are skipped and the aggregation covers the completed
  // ones (a partial sample, never a torn one).
  std::vector<double> pruned, localization, messages, pairs;
  for (std::size_t i = 0; i < runs; ++i) {
    if (cancel != nullptr && cancel->cancelled()) break;
    OBS_COUNT("debug.monte_carlo.trials", 1);
    CaseStudyOptions opt = base;
    opt.seed = base.seed + i;
    const auto r = run_case_study(design, case_study, opt);
    ++result.runs;
    if (r.buggy.failed) ++result.failures_detected;
    pruned.push_back(r.report.pruned_fraction());
    localization.push_back(r.localization.fraction);
    messages.push_back(static_cast<double>(r.report.messages_investigated));
    pairs.push_back(static_cast<double>(r.report.pairs_investigated));
  }
  result.partial = result.runs < runs;
  if (result.partial) OBS_COUNT("resilience.cancelled_monte_carlo", 1);
  result.pruned_fraction = stats_of(pruned);
  result.localization_fraction = stats_of(localization);
  result.messages_investigated = stats_of(messages);
  result.pairs_investigated = stats_of(pairs);
  return result;
}

}  // namespace tracesel::debug
