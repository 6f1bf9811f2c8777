#include "selection/multi_scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "selection/coverage.hpp"
#include "selection/info_gain.hpp"
#include "selection/knapsack.hpp"

namespace tracesel::selection {

MultiScenarioSelector::MultiScenarioSelector(
    const flow::MessageCatalog& catalog,
    std::vector<WeightedScenario> scenarios)
    : catalog_(&catalog), scenarios_(std::move(scenarios)) {
  if (scenarios_.empty())
    throw std::invalid_argument("MultiScenarioSelector: no scenarios");
  for (const WeightedScenario& s : scenarios_) {
    if (s.stats == nullptr)
      throw std::invalid_argument("MultiScenarioSelector: null statistics");
    if (s.weight <= 0.0)
      throw std::invalid_argument(
          "MultiScenarioSelector: weights must be positive");
    for (const flow::IndexedMessage& im : s.stats->indexed_messages()) {
      if (std::find(candidates_.begin(), candidates_.end(), im.message) ==
          candidates_.end())
        candidates_.push_back(im.message);
    }
  }
  std::sort(candidates_.begin(), candidates_.end());

  if (!candidates_.empty()) contributions_.assign(candidates_.back() + 1, 0.0);
  for (const WeightedScenario& s : scenarios_) {
    const InfoGainEngine engine(*s.stats);
    for (const flow::MessageId m : candidates_)
      contributions_[m] += s.weight * engine.message_contribution(m);
  }
}

double MultiScenarioSelector::contribution(flow::MessageId m) const {
  return m < contributions_.size() ? contributions_[m] : 0.0;
}

MultiScenarioResult MultiScenarioSelector::select(
    const SelectorConfig& config) const {
  MultiScenarioResult result;
  result.buffer_width = config.buffer_width;

  result.combination = knapsack_combination(*catalog_, candidates_,
                                            contributions_,
                                            config.buffer_width);
  if (result.combination.messages.empty())
    throw std::runtime_error(
        "MultiScenarioSelector: no message fits the trace buffer");
  result.used_width = result.combination.width;

  if (config.packing) {
    PackingResult packing =
        pack_leftover(*catalog_, contributions_, result.combination,
                      config.buffer_width, candidates_);
    result.packed = std::move(packing.packed);
    result.used_width += packing.width_added;
    result.weighted_gain = packing.gain_after;
  } else {
    for (const flow::MessageId m : result.combination.messages)
      result.weighted_gain += contribution(m);
  }

  const std::vector<flow::MessageId> observable = result.observable();
  for (const WeightedScenario& s : scenarios_)
    result.per_scenario_coverage.push_back(
        flow_spec_coverage(*s.stats, observable));
  return result;
}

}  // namespace tracesel::selection
