#include "soc/scenario.hpp"

#include <stdexcept>

namespace tracesel::soc {

Scenario scenario1() {
  return Scenario{1,
                  "Scenario 1",
                  {"PIOR", "PIOW", "Mon"},
                  {Ip::kNcu, Ip::kDmu, Ip::kSiu},
                  /*num_root_causes=*/9,
                  /*instances_per_flow=*/2};
}

Scenario scenario2() {
  return Scenario{2,
                  "Scenario 2",
                  {"NCUU", "NCUD", "Mon"},
                  {Ip::kNcu, Ip::kMcu, Ip::kCcx},
                  /*num_root_causes=*/8,
                  /*instances_per_flow=*/2};
}

Scenario scenario3() {
  return Scenario{3,
                  "Scenario 3",
                  {"PIOR", "PIOW", "NCUU", "NCUD"},
                  {Ip::kNcu, Ip::kMcu, Ip::kDmu, Ip::kSiu},
                  /*num_root_causes=*/9,
                  /*instances_per_flow=*/2};
}

Scenario scenario4_dma() {
  return Scenario{4,
                  "Scenario 4 (DMA extension)",
                  {"DMAR", "DMAW", "Mon"},
                  {Ip::kNcu, Ip::kDmu, Ip::kSiu, Ip::kMcu},
                  /*num_root_causes=*/8,
                  /*instances_per_flow=*/2};
}

std::vector<Scenario> all_scenarios() {
  return {scenario1(), scenario2(), scenario3()};
}

Scenario scenario_by_id(int id) {
  switch (id) {
    case 1: return scenario1();
    case 2: return scenario2();
    case 3: return scenario3();
    case 4: return scenario4_dma();
  }
  throw std::out_of_range("scenario_by_id: id must be 1..4");
}

std::vector<const flow::Flow*> scenario_flows(const T2Design& design,
                                              const Scenario& scenario) {
  std::vector<const flow::Flow*> flows;
  flows.reserve(scenario.flow_names.size());
  for (const std::string& name : scenario.flow_names)
    flows.push_back(&design.flow_by_name(name));
  return flows;
}

std::vector<flow::IndexedFlow> scenario_instances(const T2Design& design,
                                                  const Scenario& scenario) {
  return flow::make_instances(scenario_flows(design, scenario),
                              scenario.instances_per_flow);
}

flow::InterleavedFlow build_interleaving(const T2Design& design,
                                         const Scenario& scenario,
                                         const flow::InterleaveOptions& options) {
  return flow::InterleavedFlow::build(scenario_instances(design, scenario),
                                      options);
}

}  // namespace tracesel::soc
