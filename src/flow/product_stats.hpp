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
// ProductStats computes them from the instance list in microseconds without
// materializing U. The one input the closed form does not cover is a flow
// whose initial state is atomic; for it (and only it) the statistics are
// counted on the unreduced product, so the answers are exact either way.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flow/indexed_flow.hpp"
#include "flow/interleaved_flow.hpp"
#include "flow/types.hpp"

namespace tracesel::flow {

class ProductStats {
 public:
  using LabelClassHistogram = InterleavedFlow::LabelClassHistogram;

  /// Statistics of the interleaving of `instances`. Rejects the same input
  /// InterleavedFlow::build rejects (std::invalid_argument), throws
  /// std::overflow_error when a count exceeds 64 bits and
  /// util::CancelledError when options.cancel has fired. The rest of
  /// `options` applies only when the closed form does not and the product
  /// is built.
  static ProductStats build(std::vector<IndexedFlow> instances,
                            const InterleaveOptions& options = {});

  /// Statistics of an already built product: the closed form over its
  /// instances when it applies, otherwise counted on `u` itself.
  static ProductStats of(const InterleavedFlow& u);

  /// Statistics counted on the product's nodes and edges — the fallback
  /// path and the oracle the closed form is tested against.
  static ProductStats count(const InterleavedFlow& u);

  /// True when every instance starts in a non-atomic state, i.e. the
  /// closed form describes the reachable product exactly.
  static bool closed_form_applies(const std::vector<IndexedFlow>& instances);

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
  // Counted on the product: states grouped by the sorted set of messages
  // labelling their in-edges (states without in-edges are never visible).
  std::vector<std::pair<std::vector<MessageId>, std::uint64_t>> entered_by_;
};

}  // namespace tracesel::flow
