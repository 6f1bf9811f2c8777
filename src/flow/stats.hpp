#pragma once
// Structural statistics of flows and interleavings — the numbers a DfD
// architect inspects before committing to a trace plan (and what
// `tracesel inspect` prints).

#include <cstdint>
#include <string>
#include <vector>

#include "flow/interleaved_flow.hpp"

namespace tracesel::flow {

struct FlowStats {
  std::string name;
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::size_t messages = 0;
  std::size_t atomic_states = 0;
  std::size_t stop_states = 0;
  /// Number of distinct executions of the flow alone.
  double executions = 0.0;
  /// Max outgoing transitions of any state (1 = pure chain).
  std::size_t max_branching = 0;
  /// Longest initial->stop path length in transitions.
  std::size_t depth = 0;
};

FlowStats flow_stats(const Flow& flow);

struct InterleavingStats {
  /// Product state/edge counts — the size of U.
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t stop_nodes = 0;
  std::size_t indexed_messages = 0;
  double paths = 0.0;
  /// nodes / product of component state counts: how much the Atom mutex
  /// and reachability prune the full product (1.0 = nothing pruned).
  double density = 0.0;
  /// Average outgoing edges per non-stop node.
  double mean_branching = 0.0;
};

InterleavingStats interleaving_stats(const InterleavedFlow& u);

/// Occurrence counts per (unindexed) message over the interleaving's
/// edges, sorted descending — the raw marginals behind the paper's p(y).
std::vector<std::pair<MessageId, std::size_t>> message_histogram(
    const InterleavedFlow& u);

}  // namespace tracesel::flow
