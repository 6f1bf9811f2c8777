#pragma once
// Indexed flows (Def. 3-4): a flow paired with an instance tag. Concurrent
// executions of the same flow are distinguished by their index, mirroring the
// architectural "tagging" support of real SoCs the paper references.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "flow/flow.hpp"
#include "util/cancel.hpp"

namespace tracesel::flow {

/// A non-owning reference to one concurrently-executing flow instance.
struct IndexedFlow {
  const Flow* flow = nullptr;
  std::uint32_t index = 0;
};

/// Def. 4: a set of indexed flows is legally indexed iff no two instances of
/// the same flow share an index.
inline bool legally_indexed(const std::vector<IndexedFlow>& instances) {
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (std::size_t j = i + 1; j < instances.size(); ++j) {
      if (instances[i].flow == instances[j].flow &&
          instances[i].index == instances[j].index)
        return false;
    }
  }
  return true;
}

/// Knobs for InterleavedFlow::build and ProductGrid::build.
struct InterleaveOptions {
  /// Upper bound on materialized nodes (ProductGrid: on grid slots);
  /// std::length_error beyond it.
  std::size_t max_nodes = 2'000'000;
  /// Cooperative cancellation: build() throws util::CancelledError within
  /// ~1024 expanded nodes of the token reporting cancelled (ProductGrid:
  /// before count_paths, and every 1024 slots its fallback sweep visits).
  /// The default (inert) token never cancels.
  util::CancelToken cancel;
};

/// Convenience: n instances of each listed flow, indexed 1..n per flow.
std::vector<IndexedFlow> make_instances(
    const std::vector<const Flow*>& flows, std::uint32_t instances_per_flow);

/// Throws std::invalid_argument unless `instances` is non-empty, legally
/// indexed, made of non-null flows with exactly one initial state each, and
/// at most one instance starts in an atomic state: the input
/// InterleavedFlow::build and ProductStats::build accept.
void require_valid_instances(const std::vector<IndexedFlow>& instances);

}  // namespace tracesel::flow
