#pragma once
// Closed-form statistics of the interleaved flow U = F1 ||| ... ||| Fk.
//
// Step 2 (Sec. 3.2) and Def. 7 coverage read only counts over U: |S|, |E|,
// the occurrences of each indexed message, the in-edge class histograms and
// the number of states a message set makes visible. Under the Def. 5 rules
// (a component moves only while every other component is non-atomic) the
// reachable product is exactly the set of tuples with at most one atomic
// component, provided every component starts in a non-atomic state. Every
// such count then factors over the component flows (DESIGN.md §9):
//
//   N_j, A_j   non-atomic / atomic states of flow j
//   |S|        = prod N_j + sum_a A_a * prod_{j!=a} N_j
//   occ(m,idx) = sum_{i: idx_i = idx} #m-transitions(F_i) * prod_{j!=i} N_j
//
// When one instance a starts in an atomic state, its prefix Q (the states
// no non-atomic state of a reaches) runs alone before anything else moves:
// the reachable product is the closed form's tuple set over a without Q,
// plus one tuple (q, initial states of the others) per q in Q, and the
// statistics add that prefix term. ProductStats computes every count from
// the instance list in microseconds without materializing U.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flow/indexed_flow.hpp"
#include "flow/types.hpp"
#include "util/cancel.hpp"

namespace tracesel::flow {

class InterleavedFlow;

/// Per-label class histogram of in-edge counts over the product:
/// classes[j] = (c, k) means k product states have exactly c in-edges
/// labeled `label`. The Step 2 info-gain engine is computed from this
/// shape.
struct LabelClassHistogram {
  IndexedMessage label;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> classes;
};

class ProductStats {
 public:
  /// Statistics of the interleaving of `instances`, in closed form.
  /// Rejects the input require_valid_instances rejects
  /// (std::invalid_argument), throws std::overflow_error when a count
  /// exceeds 64 bits and util::CancelledError when `cancel` has fired.
  static ProductStats build(std::vector<IndexedFlow> instances,
                            const util::CancelToken& cancel = {});

  /// Statistics counted on the product's nodes and edges — the oracle the
  /// closed form is tested against.
  static ProductStats count(const InterleavedFlow& u);

  const std::vector<IndexedFlow>& instances() const { return instances_; }
  /// Whether these statistics came from the closed form (false: counted on
  /// the product).
  bool closed_form() const { return closed_form_; }

  /// |S| and |E| of the product.
  std::uint64_t num_product_states() const { return states_; }
  std::uint64_t num_product_edges() const { return edges_; }

  /// Indexed messages labelling at least one product edge, ascending.
  const std::vector<IndexedMessage>& indexed_messages() const {
    return indexed_messages_;
  }
  /// Number of product edges labelled `im`.
  std::uint64_t occurrences(const IndexedMessage& im) const;

  /// Per-label in-edge class histograms: labels ascending, classes
  /// ascending by in-edge count — identical to
  /// InterleavedFlow::label_target_histograms() on the product.
  const std::vector<LabelClassHistogram>& label_target_histograms() const {
    return histograms_;
  }

  /// The Def. 7 numerator: product states entered by an edge labelled
  /// with any message of `selected` (any index).
  std::uint64_t covered_states(std::span<const MessageId> selected) const;

 private:
  ProductStats() = default;

  void closed_form_counts();
  /// Whether state v of instance i lies in the atomic-start prefix Q.
  bool in_prefix(std::size_t i, StateId v) const {
    return i == prefix_owner_ && prefix_[v] != 0;
  }

  std::vector<IndexedFlow> instances_;
  bool closed_form_ = false;
  std::uint64_t states_ = 0;
  std::uint64_t edges_ = 0;
  std::vector<IndexedMessage> indexed_messages_;
  std::unordered_map<IndexedMessage, std::uint64_t> occurrences_;
  std::vector<LabelClassHistogram> histograms_;

  // Closed form: per instance, its non-atomic state count N_i and the
  // product of the other instances' N_j.
  std::vector<std::uint64_t> non_atomic_;
  std::vector<std::uint64_t> others_;
  // The instance that starts atomic, if any, and its prefix Q, by
  // StateId.
  std::size_t prefix_owner_ = ~std::size_t{0};
  std::vector<std::uint8_t> prefix_;
  // Counted on the product: states grouped by the sorted set of messages
  // labelling their in-edges (states without in-edges are never visible).
  std::vector<std::pair<std::vector<MessageId>, std::uint64_t>> entered_by_;
};

}  // namespace tracesel::flow
