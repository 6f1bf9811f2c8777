#include "flow/execution.hpp"

#include <algorithm>

namespace tracesel::flow {

std::vector<IndexedMessage> project(const std::vector<IndexedMessage>& trace,
                                    const std::vector<MessageId>& selected) {
  std::vector<IndexedMessage> out;
  out.reserve(trace.size());
  for (const IndexedMessage& im : trace) {
    if (std::find(selected.begin(), selected.end(), im.message) !=
        selected.end())
      out.push_back(im);
  }
  return out;
}

Execution random_execution(const InterleavedFlow& u, util::Rng& rng) {
  Execution e;
  NodeId n = u.initial_nodes().front();
  std::uint64_t cycle = 0;
  for (;;) {
    if (u.is_stop(n)) {
      e.completed = true;
      return e;
    }
    const auto& out = u.outgoing(n);
    if (out.empty()) return e;  // dead end that is not a stop tuple
    const auto& edge = u.edges()[out[rng.index(out.size())]];
    // Message latencies vary; model 1-8 cycles between successive messages.
    cycle += rng.between(1, 8);
    e.steps.push_back(Step{edge.from, edge.label, edge.to, cycle});
    n = edge.to;
  }
}

bool is_valid_execution(const InterleavedFlow& u, const Execution& e) {
  if (e.steps.empty()) return true;
  const auto& init = u.initial_nodes();
  if (std::find(init.begin(), init.end(), e.steps.front().from) == init.end())
    return false;
  for (std::size_t i = 0; i < e.steps.size(); ++i) {
    const Step& s = e.steps[i];
    if (i > 0 && s.from != e.steps[i - 1].to) return false;
    bool found = false;
    for (std::uint32_t ei : u.outgoing(s.from)) {
      const auto& edge = u.edges()[ei];
      if (edge.to == s.to && edge.label == s.label) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  if (e.completed && !u.is_stop(e.steps.back().to)) return false;
  return true;
}

}  // namespace tracesel::flow
