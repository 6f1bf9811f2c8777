#pragma once
// Step 2 of the selection method (Sec. 3.2): mutual information gain of a
// message combination over the interleaved flow.
//
// Random variables, exactly as the paper defines them:
//   X  — the product state of the interleaved flow; uniform, p(x) = 1/|S|.
//   Yi — the indexed messages corresponding to a candidate combination Y'i.
// Marginal: p(y) = occurrences(y) / occurrences(all indexed messages), i.e.
// the denominator counts *every* edge of the interleaved flow, not just the
// candidate's — so the candidate's marginals need not sum to 1. That is the
// paper's estimator; it makes I monotone under adding messages to the
// combination, which Step 2 exploits.
// Conditional: p(x|y) = (# occurrences of y leading to x) / occurrences(y).
// Joint: p(x,y) = p(x|y) p(y).
//
//   I(X;Y) = sum_{x,y} p(x,y) ln( p(x,y) / (p(x) p(y)) )
//
// Natural logarithm — this reproduces the paper's worked example
// (I(X;Y1) = 1.073 for Y'1 = {ReqE, GntE} on the two-instance cache
// coherence interleaving of Fig. 2).

#include <span>
#include <unordered_map>
#include <vector>

#include "flow/product_stats.hpp"

namespace tracesel::selection {

/// Precomputes per-indexed-message edge statistics of one interleaved flow
/// and answers information-gain queries for arbitrary message combinations.
class InfoGainEngine {
 public:
  /// Reads only the product statistics; nothing refers back to `stats`.
  explicit InfoGainEngine(const flow::ProductStats& stats);

  /// I(X;Y) for the combination given as a set of message ids: the
  /// per-message contributions summed in argument order. All indexed
  /// instances of each id contribute to Y. Messages that label no edge of
  /// the interleaved flow contribute +0.0, which is exact (contributions
  /// are nonnegative, so no partial sum is ever -0.0).
  double info_gain(std::span<const flow::MessageId> combination) const;

  /// The contribution of a single indexed message to I(X;Y) — the inner sum
  /// over x for this y. Nonnegative; exposed for tests and diagnostics.
  double contribution(const flow::IndexedMessage& im) const;

  /// Aggregate contribution of a (unindexed) message: the sum over its
  /// indexed instances. Because the paper's estimator is additive per
  /// message, info_gain(C) == sum of message_contribution over C — the
  /// property the exact knapsack search mode exploits.
  double message_contribution(flow::MessageId m) const;

  /// Upper bound on the gain any combination can reach on this flow
  /// (the gain of tracing every message).
  double max_gain() const { return total_gain_; }

 private:
  // contribution of each indexed message, precomputed once.
  std::unordered_map<flow::IndexedMessage, double> contrib_;
  // contributions aggregated per (unindexed) message id, MessageId-indexed.
  std::vector<double> dense_;
  double total_gain_ = 0.0;
};

}  // namespace tracesel::selection
