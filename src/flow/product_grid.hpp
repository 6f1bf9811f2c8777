#pragma once
// The debug leg's localization DPs over the mixed-radix grid of the
// component flows' state tuples, without materializing the product
// (DESIGN.md §14). Slot sum_i rank_i(s_i) * stride_i numbers each flow's
// states in topological order, so every product edge raises one rank and
// with it the tuple's level, its rank sum. count_paths is a closed form
// over the component flows; the consistent-path DP visits, level by level,
// only the slots a consistent path reaches, found through a flat
// open-addressing index, so its memory grows with the reached slots, not
// the grid. Per slot the DPs add in the product's CSR order, so every
// count equals the memoized oracle's over the product bit for bit.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "flow/indexed_flow.hpp"
#include "flow/types.hpp"
#include "util/cancel.hpp"

namespace tracesel::flow {

class ProductGrid {
 public:
  /// Throws std::invalid_argument on input require_valid_instances
  /// rejects, std::length_error if the grid's slot count prod_i |S_i|
  /// exceeds options.max_nodes, and util::CancelledError when
  /// options.cancel has fired before or, when count_paths falls back to a
  /// sweep, during the build. Computes count_paths().
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
  /// One component step from a slot: successor = slot + delta, and the
  /// component's rank rises by step >= 1.
  struct Move {
    std::size_t delta = 0;  ///< step * the component's stride
    std::uint32_t label = 0;  ///< index into the sorted label table
    std::uint32_t step = 0;
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

  ProductGrid() = default;

  /// Initial-to-stop paths of the product, in closed form over the
  /// components; false if a count reaches 2^53 (the caller sweeps).
  bool closed_form_paths();

  /// Decodes slot n into `digits` (one rank per component), calls
  /// fn(move) on every product edge out of n in the product's CSR order
  /// and returns whether n is a stop tuple.
  template <typename Fn>
  bool expand(std::size_t n, std::vector<std::uint32_t>& digits,
              Fn&& fn) const;

  /// f(initial, 0) of count_consistent_paths for per-label codes
  /// (-2 invisible, -1 visible but never observed, else the observed kind
  /// id) and the observation's kind ids; polls `cancel` every 1024 slots.
  /// Throws std::length_error past 2^32 reached slots or kept moves.
  double sweep(const std::vector<std::int32_t>& label_code,
               const std::vector<std::int32_t>& obs_kind,
               const util::CancelToken& cancel) const;

  std::vector<Component> comps_;
  std::vector<IndexedMessage> labels_;  ///< sorted distinct <m, index>
  std::size_t num_slots_ = 0;
  std::size_t initial_ = 0;  ///< the initial tuple's slot
  double total_paths_ = 0.0;
};

}  // namespace tracesel::flow
