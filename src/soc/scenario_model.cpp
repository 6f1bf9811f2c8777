#include "soc/scenario_model.hpp"

#include "flow/indexed_flow.hpp"
#include "flow/product_stats.hpp"
#include "util/obs.hpp"

namespace tracesel::soc {

ScenarioModel::ScenarioModel(const flow::MessageCatalog& catalog,
                             std::vector<const flow::Flow*> flows,
                             std::uint32_t instances_per_flow)
    : flows_(std::move(flows)),
      instances_per_flow_(instances_per_flow),
      selector_(catalog, flow::ProductStats::build(flow::make_instances(
                             flows_, instances_per_flow_))),
      grid_(flow::ProductGrid::build(selector_.stats().instances())) {
  OBS_COUNT("debug.scenario.builds", 1);
}

selection::SelectionResult ScenarioModel::select(std::uint32_t buffer_width,
                                                 bool packing) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::pair<std::uint32_t, bool> key{buffer_width, packing};
  if (const auto it = selections_.find(key); it != selections_.end())
    return it->second;
  selection::SelectorConfig config;
  config.buffer_width = buffer_width;
  config.packing = packing;
  selection::SelectionResult result = selector_.select(config);
  if (selections_.size() < kMaxSelections) selections_.emplace(key, result);
  return result;
}

}  // namespace tracesel::soc
