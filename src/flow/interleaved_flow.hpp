#pragma once
// The interleaved flow U = F1 ||| F2 ||| ... ||| Fk (Def. 5).
//
// States of U are tuples of component flow states. The transition rules
// generalize the paper's two-flow rules: component i may take a step labeled
// with (its) indexed message iff every *other* component currently sits in a
// non-atomic state. Consequently a product state never has two components in
// atomic states simultaneously (the Atom mutex of Def. 5), and only the flow
// occupying an atomic state can move until it leaves it.
//
// The product is materialized as an explicit DAG restricted to states
// reachable from the initial tuple, with edge labels carrying the indexed
// message (Def. 3). Production code never builds it: Step 2 and Def. 7
// coverage read flow::ProductStats, which computes the same counts in
// closed form from the component flows (DESIGN.md §9), and localization
// counts paths on flow::ProductGrid's state grid (DESIGN.md §14). The
// product serves random executions, DOT export and the tests' oracle.
//
// Product states are packed into 64-bit words (ceil(log2 |S_i|) bits per
// component) interned in a flat open-addressing table, and outgoing edges
// are a CSR offset array over the edge list — no per-node heap allocations.
// Each edge carries an id into the sorted label table.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "flow/indexed_flow.hpp"
#include "flow/packed_key.hpp"
#include "flow/product_stats.hpp"
#include "flow/types.hpp"

namespace tracesel::flow {

class InterleavedFlow {
 public:
  /// One product transition; `instance` is the component that moved.
  struct Edge {
    NodeId from = kInvalidNode;
    IndexedMessage label;
    NodeId to = kInvalidNode;
    std::uint32_t instance = 0;  ///< index into instances()
  };

  /// Contiguous range of outgoing edge indices (CSR row) of one node.
  class OutgoingRange {
   public:
    class iterator {
     public:
      using value_type = std::uint32_t;
      using difference_type = std::ptrdiff_t;
      explicit iterator(std::uint32_t v) : v_(v) {}
      std::uint32_t operator*() const { return v_; }
      iterator& operator++() {
        ++v_;
        return *this;
      }
      iterator operator++(int) { return iterator(v_++); }
      bool operator==(const iterator& o) const { return v_ == o.v_; }
      bool operator!=(const iterator& o) const { return v_ != o.v_; }

     private:
      std::uint32_t v_;
    };

    OutgoingRange(std::uint32_t first, std::uint32_t last)
        : first_(first), last_(last) {}
    iterator begin() const { return iterator(first_); }
    iterator end() const { return iterator(last_); }
    std::size_t size() const { return last_ - first_; }
    bool empty() const { return first_ == last_; }
    std::uint32_t operator[](std::size_t i) const {
      return first_ + static_cast<std::uint32_t>(i);
    }

   private:
    std::uint32_t first_;
    std::uint32_t last_;
  };

  /// Builds the reachable product of a legally indexed set of instances.
  /// Throws std::invalid_argument on input require_valid_instances rejects,
  /// util::CancelledError when options.cancel fires mid-build, and
  /// std::length_error if the product exceeds options.max_nodes.
  static InterleavedFlow build(std::vector<IndexedFlow> instances,
                               const InterleaveOptions& options = {});

  InterleavedFlow(InterleavedFlow&&) = default;
  InterleavedFlow& operator=(InterleavedFlow&&) = default;

  const std::vector<IndexedFlow>& instances() const { return instances_; }

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return edges_.size(); }
  /// The product's size as 64-bit counts (== num_nodes()/num_edges()).
  std::uint64_t num_product_states() const { return num_nodes_; }
  std::uint64_t num_product_edges() const { return edges_.size(); }

  const std::vector<NodeId>& initial_nodes() const { return initial_; }
  const std::vector<NodeId>& stop_nodes() const { return stop_; }
  bool is_stop(NodeId n) const { return stop_mask_[n] != 0; }

  const std::vector<Edge>& edges() const { return edges_; }
  /// Outgoing edge indices of a node (CSR row).
  OutgoingRange outgoing(NodeId n) const;

  /// The component flow states making up product state n (decoded from the
  /// packed key; returned by value).
  std::vector<StateId> node_key(NodeId n) const;

  /// Human-readable product state, e.g. "(c:1,n:2)".
  std::string node_name(NodeId n) const;

  /// All distinct indexed messages labeling at least one edge, ascending.
  const std::vector<IndexedMessage>& indexed_messages() const {
    return indexed_messages_;
  }

  /// Number of product edges labeled with a given indexed message.
  std::size_t occurrences(const IndexedMessage& im) const;

  /// The in-edge class histograms of every indexed message, labels
  /// ascending, classes ascending by c, counted on the edge list.
  std::vector<LabelClassHistogram> label_target_histograms() const;

  /// The unreduced product, i.e. this engine itself; for callers (the
  /// benchmark) that ask for it explicitly.
  const InterleavedFlow& concrete() const { return *this; }

  /// This engine itself; nothing is compiled. Kept for callers (the
  /// benchmark) that still ask for it explicitly.
  const InterleavedFlow& program() const { return *this; }

 private:
  InterleavedFlow() = default;

  void build_graph(const InterleaveOptions& options);

  std::vector<IndexedFlow> instances_;

  KeyCodec codec_;
  KeyInterner interner_;  ///< owns packed key storage; NodeId-indexed
  std::size_t num_nodes_ = 0;

  std::vector<NodeId> initial_;
  std::vector<NodeId> stop_;
  std::vector<std::uint8_t> stop_mask_;
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> out_offset_;  ///< CSR: size num_nodes_ + 1

  /// Sorted distinct <message, index> labels of the instances' component
  /// transitions; edge_label_[e] indexes it, label_count_[l] counts the
  /// edges labeled l (0 for a transition the product never takes).
  std::vector<IndexedMessage> labels_;
  std::vector<std::uint32_t> edge_label_;
  std::vector<std::size_t> label_count_;
  std::vector<IndexedMessage> indexed_messages_;  ///< nonzero-count labels
};

}  // namespace tracesel::flow
