#pragma once
// Step 1 of the selection method (Sec. 3.1): enumerate message combinations
// whose total bit width fits the available trace buffer.
//
// A message combination is an unordered set of messages; its width is the
// sum of member widths (Def. 6 — indexing does not multiply width, because
// all instances of a message share the same physical interface signals).

#include <cstdint>
#include <span>
#include <vector>

#include "flow/message.hpp"
#include "util/cancel.hpp"

namespace tracesel::selection {

/// One candidate combination with its precomputed total width.
struct Combination {
  std::vector<flow::MessageId> messages;  ///< sorted, unique
  std::uint32_t width = 0;

  friend bool operator==(const Combination&, const Combination&) = default;
};

/// The exponential walks poll their cancel token once per this many
/// visited nodes (or scored combinations), keeping the clock read of a
/// deadline token off the per-node path.
inline constexpr std::size_t kCancelPollStride = 1024;

/// Enumerates every nonempty subset of `candidates` with total width
/// <= `budget` (Sec. 3.1). Exhaustive — exponential in candidates.size();
/// throws std::length_error if more than `max_results` combinations qualify,
/// directing callers to the knapsack search for large message sets. When
/// `cancel` fires the walk stops and returns what it found so far.
std::vector<Combination> enumerate_combinations(
    const flow::MessageCatalog& catalog,
    std::span<const flow::MessageId> candidates, std::uint32_t budget,
    std::size_t max_results = 1u << 22, const util::CancelToken& cancel = {});

/// Enumerates only *maximal* fitting combinations: those to which no further
/// candidate can be added without exceeding the budget. Because mutual
/// information gain is monotone under adding messages (each indexed message
/// contributes a nonnegative relative-entropy term), the Step 2 optimum is
/// always maximal, so searching these is lossless and much cheaper.
/// Cancellation as for enumerate_combinations.
std::vector<Combination> enumerate_maximal_combinations(
    const flow::MessageCatalog& catalog,
    std::span<const flow::MessageId> candidates, std::uint32_t budget,
    std::size_t max_results = 1u << 22, const util::CancelToken& cancel = {});

/// Sum of widths helper used by both enumerators.
std::uint32_t combination_width(const flow::MessageCatalog& catalog,
                                std::span<const flow::MessageId> messages);

}  // namespace tracesel::selection
