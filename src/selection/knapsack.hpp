#pragma once
// The exact Step 2 solver (Sec. 3.2). The paper's gain estimator is a sum
// of per-message contributions, so the combination with maximal I(X;Y) is
// the optimum of a 0/1 knapsack over (trace width, contribution), solvable
// in O(messages x buffer width) instead of by walking every fitting subset;
// picking exhaustive's tie among optima costs O(messages^2 x width).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "selection/combination.hpp"
#include "util/cancel.hpp"

namespace tracesel::selection {

/// Indices (ascending) of the best nonempty item set whose widths sum to at
/// most `capacity`, under the order MessageSelector's exhaustive search
/// uses: highest gain, then the narrower width, then the lexicographically
/// smallest index vector. A set's gain is its `gains` added in ascending
/// index order starting from 0.0 — the summation InfoGainEngine::info_gain
/// runs — so the winner's gain has the same bits as that sum, rounding
/// ties included. Widths must be >= 1. Any capacity is safe: the tables are
/// sized by min(capacity, sum of widths).
///
/// Returns an empty vector when no item fits or when `cancel` fires (the
/// caller tells the two apart by asking the token).
std::vector<std::size_t> knapsack_optimum(
    std::span<const std::uint32_t> widths, std::span<const double> gains,
    std::uint32_t capacity, const util::CancelToken& cancel = {});

/// The Step 2 winner of every selector: knapsack_optimum over `candidates`
/// (ascending ids), each weighing its trace width and gaining its entry of
/// `contributions` (indexed by MessageId, 0.0 past the end), so the
/// winner's gain adds up in InfoGainEngine::info_gain's order. Empty when
/// no candidate fits or `cancel` fires.
Combination knapsack_combination(const flow::MessageCatalog& catalog,
                                 std::span<const flow::MessageId> candidates,
                                 std::span<const double> contributions,
                                 std::uint32_t capacity,
                                 const util::CancelToken& cancel = {});

}  // namespace tracesel::selection
