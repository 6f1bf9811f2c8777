#pragma once
// Structural statistics of a flow — the numbers a DfD architect inspects
// before committing to a trace plan (`tracesel inspect` prints them).

#include <cstdint>
#include <string>

#include "flow/flow.hpp"

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

}  // namespace tracesel::flow
