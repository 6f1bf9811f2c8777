#include "selection/coverage.hpp"

#include <algorithm>

#include "util/obs.hpp"

namespace tracesel::selection {

std::vector<flow::NodeId> visible_states(
    const flow::InterleavedFlow& u,
    std::span<const flow::MessageId> selected) {
  std::vector<bool> visible(u.num_nodes(), false);
  for (const auto& e : u.edges()) {
    if (std::find(selected.begin(), selected.end(), e.label.message) !=
        selected.end())
      visible[e.to] = true;
  }
  std::vector<flow::NodeId> out;
  for (flow::NodeId n = 0; n < u.num_nodes(); ++n)
    if (visible[n]) out.push_back(n);
  return out;
}

double flow_spec_coverage(const flow::InterleavedFlow& u,
                          std::span<const flow::MessageId> selected) {
  if (u.num_nodes() == 0) return 0.0;
  return static_cast<double>(visible_states(u, selected).size()) /
         static_cast<double>(u.num_product_states());
}

double flow_spec_coverage(const flow::ProductStats& stats,
                          std::span<const flow::MessageId> selected) {
  OBS_SPAN("selection.coverage");
  if (stats.num_product_states() == 0) return 0.0;
  return static_cast<double>(stats.covered_states(selected)) /
         static_cast<double>(stats.num_product_states());
}

}  // namespace tracesel::selection
