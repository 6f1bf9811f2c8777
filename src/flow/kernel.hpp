#pragma once
// Compiled per-spec DP kernels for the interleave hot loops (DESIGN.md §14).
//
// A kernel::Program is a flat, spec-specialized form of one InterleavedFlow:
// the CSR adjacency re-laid out as structure-of-arrays tables (targets,
// label ids), a Kahn topological schedule, a packed stop
// bitset and a sorted distinct-label table. Compiling once turns the
// engine's recursive memoized DPs into dense linear sweeps:
//
//   * count_paths() is evaluated at compile time by one reverse-topological
//     pass and cached — repeated queries are O(1).
//   * count_consistent_paths() classifies *labels* (not edges) against the
//     observation — a lookup table of |labels| entries instead of a
//     std::find per edge — and fills the (node x prefix-position) memo with
//     one dense sweep, no recursion stack, no visited sentinels.
//   * label_target_histograms() runs a counting-sort
//     grouping of the edge table instead of nested std::map/unordered_map
//     passes; computed lazily on first use from the Program's own tables.
//
// Every executor reproduces the generic path's floating-point summation
// order exactly (per (node, j): stop bonus first, then outgoing edges in
// ascending CSR order), so results are bit-identical to the fallback — the
// property the differential tests pin. Programs are immutable after
// compile() and safe to share across threads.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "flow/interleaved_flow.hpp"
#include "flow/types.hpp"

namespace tracesel::flow::kernel {

/// Sizes and timings of one compile, exported via obs gauges as well.
struct CompileStats {
  double compile_ms = 0.0;      ///< wall time of Program::compile
  std::size_t table_bytes = 0;  ///< bytes held by the flat tables
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t labels = 0;  ///< distinct edge labels
};

class Program {
 public:
  /// Compiles the flow's graph into flat tables. O(V + E + E log L).
  /// The returned Program is self-contained: it keeps no reference to `u`
  /// and may outlive it.
  static Program compile(const InterleavedFlow& u);

  /// Total executions (root-to-stop paths), precomputed at compile.
  /// Bit-identical to InterleavedFlow::count_paths().
  double count_paths() const { return total_paths_; }

  /// Ordered consistent-path count; semantics, validation and result bits
  /// exactly match InterleavedFlow::count_consistent_paths.
  double count_consistent_paths(
      const std::vector<MessageId>& selected,
      const std::vector<IndexedMessage>& observed) const;

  /// In-edge class histograms, labels ascending — bit-identical to the
  /// generic computation. Lazily built on first call (thread-safe via
  /// std::call_once).
  const std::vector<InterleavedFlow::LabelClassHistogram>&
  label_target_histograms() const;

  const CompileStats& stats() const { return stats_; }

 private:
  Program() = default;

  bool is_stop(NodeId n) const {
    return (stop_bits_[n >> 6] >> (n & 63)) & 1u;
  }
  void build_histograms() const;

  std::size_t num_nodes_ = 0;

  // CSR adjacency as structure-of-arrays: edge i of node n lives at
  // [out_offset_[n], out_offset_[n+1]) in the three parallel edge tables.
  std::vector<std::uint32_t> out_offset_;
  std::vector<std::uint32_t> edge_to_;
  std::vector<std::uint32_t> edge_label_;  ///< index into labels_

  std::vector<IndexedMessage> labels_;  ///< sorted distinct edge labels
  std::vector<std::uint32_t> topo_;     ///< forward topological order
  std::vector<std::uint64_t> stop_bits_;
  std::vector<NodeId> initial_;

  double total_paths_ = 0.0;
  CompileStats stats_;

  // Lazy histogram cache; call_once keeps the Program shareable
  // across threads without external locking. Boxed because std::once_flag
  // is immovable and compile() returns Programs by value.
  struct HistCache {
    std::once_flag once;
    std::vector<InterleavedFlow::LabelClassHistogram> value;
  };
  mutable std::unique_ptr<HistCache> hist_;
};

}  // namespace tracesel::flow::kernel
