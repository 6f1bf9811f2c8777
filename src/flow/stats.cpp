#include "flow/stats.hpp"

#include <algorithm>
#include <map>

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

InterleavingStats interleaving_stats(const InterleavedFlow& u) {
  InterleavingStats s;
  s.nodes = u.num_product_states();
  s.edges = u.num_product_edges();
  s.indexed_messages = u.indexed_messages().size();
  s.paths = u.count_paths();
  s.stop_nodes = u.stop_nodes().size();

  double product = 1.0;
  for (const IndexedFlow& inst : u.instances())
    product *= static_cast<double>(inst.flow->num_states());
  s.density = product > 0.0 ? static_cast<double>(s.nodes) / product : 0.0;

  std::uint64_t non_stop = 0;
  std::uint64_t out_edges = 0;
  for (NodeId n = 0; n < u.num_nodes(); ++n) {
    if (u.is_stop(n)) continue;
    ++non_stop;
    out_edges += u.outgoing(n).size();
  }
  s.mean_branching = non_stop ? static_cast<double>(out_edges) /
                                    static_cast<double>(non_stop)
                              : 0.0;
  return s;
}

std::vector<std::pair<MessageId, std::size_t>> message_histogram(
    const InterleavedFlow& u) {
  // Sum the occurrence counts over the indexed instances of each message.
  std::map<MessageId, std::size_t> counts;
  for (const IndexedMessage& im : u.indexed_messages())
    counts[im.message] += u.occurrences(im);
  std::vector<std::pair<MessageId, std::size_t>> out(counts.begin(),
                                                     counts.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace tracesel::flow
