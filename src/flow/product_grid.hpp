#pragma once
// The debug leg's localization DPs over the mixed-radix grid of the
// component flows' state tuples, without materializing the product
// (DESIGN.md §14). Slot sum_i rank_i(s_i) * stride_i numbers each flow's
// states in topological order, so every product edge raises the slot
// index and a descending sweep is a reverse topological order. Per slot
// the DPs add in the product's CSR order, so every count equals the
// memoized oracle's over the product bit for bit.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "flow/interleaved_flow.hpp"

namespace tracesel::flow {

class ProductGrid {
 public:
  /// Throws std::invalid_argument on input require_valid_instances
  /// rejects, std::length_error if the grid's slot count prod_i |S_i|
  /// exceeds options.max_nodes, and util::CancelledError when
  /// options.cancel fires mid-build. Computes count_paths().
  static ProductGrid build(const std::vector<IndexedFlow>& instances,
                           const InterleaveOptions& options = {});

  /// prod_i |S_i|: every tuple of component states, reachable or not.
  std::size_t num_slots() const { return num_slots_; }
  /// The slot of the tuple whose component i sits in `states[i]`.
  std::size_t slot(std::span<const StateId> states) const;

  /// Executions: initial-to-stop paths of the reachable product.
  double count_paths() const { return total_paths_; }

  /// Executions whose projection onto `selected` (message ids; every
  /// index of them is visible) starts with `observed` in order — the core
  /// of path localization (Sec. 5.2). Throws std::invalid_argument if
  /// `observed` holds a message outside `selected`.
  double count_consistent_paths(
      const std::vector<MessageId>& selected,
      const std::vector<IndexedMessage>& observed) const;

 private:
  /// One component step from a slot: successor = slot + delta.
  struct Move {
    std::size_t delta = 0;
    std::uint32_t label = 0;  ///< index into the sorted label table
  };
  /// One component flow, its states in rank order.
  struct Component {
    std::size_t stride = 1;
    std::vector<std::uint32_t> rank;  ///< by StateId
    std::vector<std::uint8_t> atomic;
    std::vector<std::uint8_t> stop;
    std::vector<std::uint32_t> first_move;  ///< CSR over ranks, size |S|+1
    std::vector<Move> moves;                ///< in the flow's order
  };
  class Odometer;

  ProductGrid() = default;

  std::vector<Component> comps_;
  std::vector<IndexedMessage> labels_;  ///< sorted distinct <m, index>
  std::size_t num_slots_ = 0;
  std::size_t initial_ = 0;  ///< the initial tuple's slot
  double total_paths_ = 0.0;
};

}  // namespace tracesel::flow
