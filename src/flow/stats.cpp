#include "flow/stats.hpp"

#include <algorithm>

namespace tracesel::flow {

FlowStats flow_stats(const Flow& flow) {
  FlowStats s;
  s.name = flow.name();
  s.states = flow.num_states();
  s.transitions = flow.transitions().size();
  s.messages = flow.messages().size();
  s.atomic_states = flow.atomic_states().size();
  s.stop_states = flow.stop_states().size();

  for (StateId st = 0; st < flow.num_states(); ++st)
    s.max_branching = std::max(s.max_branching, flow.outgoing(st).size());

  // Executions and depth via DAG DP (states are few; recursion-free).
  // Topological order by repeated relaxation is overkill; use memoized
  // post-order over the validated DAG.
  std::vector<double> paths(flow.num_states(), -1.0);
  std::vector<std::size_t> depth(flow.num_states(), 0);
  std::vector<std::pair<StateId, bool>> stack;
  for (StateId root : flow.initial_states()) {
    stack.emplace_back(root, false);
    while (!stack.empty()) {
      auto [st, processed] = stack.back();
      stack.pop_back();
      if (paths[st] >= 0.0) continue;
      if (!processed) {
        stack.emplace_back(st, true);
        for (std::uint32_t t : flow.outgoing(st)) {
          const StateId next = flow.transitions()[t].to;
          if (paths[next] < 0.0) stack.emplace_back(next, false);
        }
      } else {
        double p = flow.is_stop(st) ? 1.0 : 0.0;
        std::size_t d = 0;
        for (std::uint32_t t : flow.outgoing(st)) {
          const StateId next = flow.transitions()[t].to;
          p += paths[next];
          d = std::max(d, depth[next] + 1);
        }
        paths[st] = p;
        depth[st] = d;
      }
    }
    s.executions += paths[root];
    s.depth = std::max(s.depth, depth[root]);
  }
  return s;
}

}  // namespace tracesel::flow
