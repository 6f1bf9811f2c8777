#pragma once
// Multi-scenario message selection — an extension beyond the paper.
//
// The paper selects a message combination *per usage scenario* ("we select
// messages per usage scenario", Sec. 5.3); silicon, however, has one trace
// buffer, and reconfiguring it between scenarios costs lab time. This
// selector picks a single combination maximizing the *weighted sum* of
// information gains across several scenario interleavings (weights model
// how often each scenario runs in the lab). Because the paper's estimator
// is additive per message within each scenario, the weighted objective is
// additive too: Steps 2 and 3 are MessageSelector's own
// knapsack_combination and pack_leftover over a weighted contribution
// vector.

#include <cstdint>
#include <vector>

#include "selection/combination.hpp"
#include "selection/packing.hpp"
#include "selection/selector.hpp"

namespace tracesel::selection {

/// One scenario: its interleaving's statistics and its lab-time weight.
struct WeightedScenario {
  const flow::ProductStats* stats = nullptr;
  double weight = 1.0;
};

struct MultiScenarioResult {
  Combination combination;          ///< one configuration for all scenarios
  std::vector<PackedGroup> packed;  ///< Step 3 over the shared leftover
  double weighted_gain = 0.0;
  /// Def. 7 coverage the shared selection achieves on each scenario, in
  /// input order.
  std::vector<double> per_scenario_coverage;
  std::uint32_t used_width = 0;
  std::uint32_t buffer_width = 0;

  double utilization() const {
    return buffer_width ? static_cast<double>(used_width) / buffer_width
                        : 0.0;
  }
  std::vector<flow::MessageId> observable() const {
    return observable_messages(combination, packed);
  }
};

class MultiScenarioSelector {
 public:
  /// Scenarios must be non-empty with positive weights.
  MultiScenarioSelector(const flow::MessageCatalog& catalog,
                        std::vector<WeightedScenario> scenarios);

  /// Exact knapsack over the weighted aggregate gain, then greedy subgroup
  /// packing with the same objective. Ties go as in MessageSelector: the
  /// highest gain, then the narrower set, then the lexicographically
  /// smallest. Honours config.buffer_width and config.packing; throws
  /// std::runtime_error when no message fits.
  MultiScenarioResult select(const SelectorConfig& config) const;

  /// Weighted aggregate contribution of one message: the weight times the
  /// message's contribution, summed over the scenarios in input order.
  double contribution(flow::MessageId m) const;

  const std::vector<flow::MessageId>& candidates() const {
    return candidates_;
  }

 private:
  const flow::MessageCatalog* catalog_;
  std::vector<WeightedScenario> scenarios_;
  std::vector<flow::MessageId> candidates_;  ///< union of alphabets
  std::vector<double> contributions_;        ///< contribution(), by id
};

}  // namespace tracesel::selection
