#pragma once
// The top-level message selection facade tying Steps 1-3 together
// (Sec. 3): enumerate fitting combinations, pick the one with maximal
// mutual information gain, then pack subgroups into the leftover buffer.

#include <cstdint>
#include <vector>

#include "selection/combination.hpp"
#include "selection/coverage.hpp"
#include "selection/info_gain.hpp"
#include "selection/packing.hpp"
#include "util/cancel.hpp"

namespace tracesel::selection {

/// How Step 1/2 search the combination space.
enum class SearchMode {
  /// Score every fitting combination (paper Sec. 3.1-3.2). Exponential;
  /// the reference the knapsack DP is tested against.
  kExhaustive,
  /// Score only maximal fitting combinations. Finds the optimal gain (the
  /// estimator is monotone under adding messages) but, when a message adds
  /// nothing, not the narrower tie exhaustive picks. Exponential.
  kMaximal,
  /// Greedy marginal-gain ascent; near-linear, for very large message sets
  /// (the scalability objective of Sec. 1).
  kGreedy,
  /// Exact 0/1-knapsack dynamic program over (width, gain). Because the
  /// paper's gain estimator decomposes additively per message, this finds
  /// the true Step 2 optimum in O(messages x buffer_width): the same
  /// combination, width and gain bits as kExhaustive. Default.
  kKnapsack,
};

/// The single options struct for the whole selection pipeline. Every entry
/// point (MessageSelector, MultiScenarioSelector, tracesel::QueryCore, the
/// CLI and the benches) takes its knobs from here.
struct SelectorConfig {
  std::uint32_t buffer_width = 32;  ///< bits, Table 3 uses 32
  bool packing = true;              ///< run Step 3
  SearchMode mode = SearchMode::kKnapsack;
  std::size_t max_combinations = 1u << 22;
  /// Ignored: selection is serial. Kept only so callers that still set it
  /// (the benchmark) compile.
  std::size_t jobs = 1;
  /// Cooperative cancellation / deadline (docs/resilience.md). The default
  /// token is inert. When it fires, select() returns the best-so-far with
  /// SelectionResult::partial = true instead of throwing or hanging.
  util::CancelToken cancel;
};

/// The full outcome of a selection run, carrying both the packed and
/// unpacked views so benches can report the paper's WP/WoP columns.
struct SelectionResult {
  Combination combination;          ///< Step 2 winner
  std::vector<PackedGroup> packed;  ///< Step 3 additions (empty if disabled)
  double gain = 0.0;                ///< I(X;Y) of the final observable set
  double gain_unpacked = 0.0;       ///< I(X;Y) of the Step 2 winner alone
  double coverage = 0.0;            ///< Def. 7 of the final observable set
  double coverage_unpacked = 0.0;
  std::uint32_t used_width = 0;     ///< combination width + packed widths
  std::uint32_t buffer_width = 0;

  /// True when the run was interrupted (cancel/deadline): the result is
  /// the best combination of the explored region, not of the full space.
  /// A partial result may be empty (nothing was scored).
  bool partial = false;
  /// 1.0 for complete runs; an interrupted run reports 0.0 (the serial
  /// searches do not measure their progress).
  double explored_fraction = 1.0;
  double utilization() const {
    return buffer_width ? static_cast<double>(used_width) / buffer_width : 0.0;
  }
  double utilization_unpacked() const {
    return buffer_width
               ? static_cast<double>(combination.width) / buffer_width
               : 0.0;
  }

  /// Message ids observable in the trace (Step 2 set plus packed parents).
  std::vector<flow::MessageId> observable() const {
    return observable_messages(combination, packed);
  }
};

class MessageSelector {
 public:
  /// The candidate message pool is the union of messages labeling the
  /// product's edges (i.e. the participating flows' alphabets).
  MessageSelector(const flow::MessageCatalog& catalog,
                  flow::ProductStats stats);
  /// The selector over flow::ProductStats::build(u.instances()); reads no
  /// product state. Kept for callers (the benchmark) that still hold the
  /// materialized product.
  MessageSelector(const flow::MessageCatalog& catalog,
                  const flow::InterleavedFlow& u);

  SelectionResult select(const SelectorConfig& config = {}) const;

  /// select() plus a coverage constraint: every participating flow must
  /// contribute at least one observable message. The paper's pure-gain
  /// objective can leave a whole flow dark under tight budgets (nothing in
  /// Step 2 values *which* flow a bit watches); a validation plan usually
  /// cannot accept that. Repairs by evicting the lowest-contribution
  /// messages of over-represented flows. Throws std::runtime_error when a
  /// flow's narrowest message cannot fit the buffer at all.
  SelectionResult select_with_flow_constraint(
      const SelectorConfig& config = {}) const;

  const InfoGainEngine& engine() const { return engine_; }
  const flow::MessageCatalog& catalog() const { return *catalog_; }
  const flow::ProductStats& stats() const { return stats_; }
  const std::vector<flow::MessageId>& candidates() const {
    return candidates_;
  }

 private:
  /// Shared Step 2 epilogue: metrics + Step 3 packing over a winner.
  SelectionResult finalize(Combination combination,
                           const SelectorConfig& config) const;

  Combination search_exhaustive(const SelectorConfig& config,
                                bool maximal_only) const;
  Combination search_greedy(const SelectorConfig& config) const;
  Combination search_knapsack(const SelectorConfig& config) const;

  const flow::MessageCatalog* catalog_;
  flow::ProductStats stats_;
  InfoGainEngine engine_;
  std::vector<flow::MessageId> candidates_;
};

}  // namespace tracesel::selection
