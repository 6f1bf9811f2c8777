#include "selection/multi_scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "selection/coverage.hpp"

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

  for (const WeightedScenario& s : scenarios_)
    engines_.push_back(std::make_unique<InfoGainEngine>(*s.stats));
}

double MultiScenarioSelector::contribution(flow::MessageId m) const {
  double total = 0.0;
  for (std::size_t i = 0; i < engines_.size(); ++i)
    total += scenarios_[i].weight * engines_[i]->message_contribution(m);
  return total;
}

MultiScenarioResult MultiScenarioSelector::select(
    const SelectorConfig& config) const {
  const std::uint32_t buffer_width = config.buffer_width;
  const bool packing = config.packing;
  MultiScenarioResult result;
  result.buffer_width = buffer_width;

  // ---- exact knapsack over the weighted aggregate gain ----
  const std::size_t n = candidates_.size();
  struct Cell {
    double gain = 0.0;
    std::uint32_t used = 0;
  };
  std::vector<std::vector<Cell>> dp(
      n + 1, std::vector<Cell>(buffer_width + 1, Cell{}));
  for (std::size_t i = 1; i <= n; ++i) {
    const std::uint32_t w = catalog_->get(candidates_[i - 1]).trace_width();
    const double v = contribution(candidates_[i - 1]);
    for (std::uint32_t cap = 0; cap <= buffer_width; ++cap) {
      dp[i][cap] = dp[i - 1][cap];
      if (w <= cap) {
        const Cell with{dp[i - 1][cap - w].gain + v,
                        dp[i - 1][cap - w].used + w};
        if (with.gain > dp[i][cap].gain ||
            (with.gain == dp[i][cap].gain && with.used < dp[i][cap].used))
          dp[i][cap] = with;
      }
    }
  }
  std::uint32_t cap = buffer_width;
  for (std::size_t i = n; i > 0; --i) {
    const Cell& cur = dp[i][cap];
    const Cell& without = dp[i - 1][cap];
    if (cur.gain == without.gain && cur.used == without.used) continue;
    const std::uint32_t w = catalog_->get(candidates_[i - 1]).trace_width();
    result.combination.messages.push_back(candidates_[i - 1]);
    result.combination.width += w;
    cap -= w;
  }
  if (result.combination.messages.empty())
    throw std::runtime_error(
        "MultiScenarioSelector: no message fits the trace buffer");
  std::sort(result.combination.messages.begin(),
            result.combination.messages.end());
  result.used_width = result.combination.width;

  // ---- greedy subgroup packing with the aggregate objective ----
  std::vector<flow::MessageId> observable = result.combination.messages;
  if (packing) {
    std::uint32_t leftover = buffer_width - result.combination.width;
    for (;;) {
      flow::MessageId best_parent = flow::kInvalidMessage;
      const flow::Subgroup* best_sg = nullptr;
      double best_gain = 0.0;
      for (const flow::MessageId m : candidates_) {
        if (std::find(observable.begin(), observable.end(), m) !=
            observable.end())
          continue;
        const double g = contribution(m);
        if (g <= 0.0) continue;
        for (const flow::Subgroup& sg : catalog_->get(m).subgroups) {
          if (sg.width > leftover) continue;
          if (g > best_gain ||
              (g == best_gain && best_sg != nullptr &&
               sg.width < best_sg->width)) {
            best_parent = m;
            best_sg = &sg;
            best_gain = g;
          }
        }
      }
      if (best_sg == nullptr) break;
      result.packed.push_back(
          PackedGroup{best_parent, best_sg->name, best_sg->width});
      result.used_width += best_sg->width;
      leftover -= best_sg->width;
      observable.push_back(best_parent);
    }
  }

  // ---- metrics ----
  for (const flow::MessageId m : observable)
    result.weighted_gain += contribution(m);
  for (const WeightedScenario& s : scenarios_)
    result.per_scenario_coverage.push_back(
        flow_spec_coverage(*s.stats, observable));
  return result;
}

}  // namespace tracesel::selection
