#pragma once
// Usage scenarios (Table 1): which flows a validation scenario exercises,
// which IPs participate, and how many potential architectural root causes
// its failure analysis must consider.

#include <cstdint>
#include <string>
#include <vector>

#include "flow/interleaved_flow.hpp"
#include "soc/ip.hpp"
#include "soc/t2_design.hpp"

namespace tracesel::soc {

struct Scenario {
  int id = 0;                            ///< 1..3
  std::string name;
  std::vector<std::string> flow_names;   ///< Table 1 short names
  std::vector<Ip> ips;                   ///< participating IPs (col 7)
  std::size_t num_root_causes = 0;       ///< potential root causes (col 8)
  std::uint32_t instances_per_flow = 2;  ///< concurrent indexed instances
};

/// The three usage scenarios of Table 1.
Scenario scenario1();
Scenario scenario2();
Scenario scenario3();

/// Extension scenario (not in Table 1): DMA read/write traffic plus the
/// Mondo interrupt flow — the interplay Sec. 5.7's root-cause narrative
/// relies on ("an interrupt is generated only when DMU has credit and all
/// previous DMA reads are done").
Scenario scenario4_dma();

/// The paper's three scenarios (excludes the DMA extension).
std::vector<Scenario> all_scenarios();
Scenario scenario_by_id(int id);

/// Resolves a scenario's flow list against a design.
std::vector<const flow::Flow*> scenario_flows(const T2Design& design,
                                              const Scenario& scenario);

/// The scenario's indexed instances: instances_per_flow legally indexed
/// instances of each participating flow.
std::vector<flow::IndexedFlow> scenario_instances(const T2Design& design,
                                                  const Scenario& scenario);

/// Builds the interleaved flow of the scenario: instances_per_flow legally
/// indexed instances of each participating flow. `options` sets the node
/// cap and cancellation.
flow::InterleavedFlow build_interleaving(
    const T2Design& design, const Scenario& scenario,
    const flow::InterleaveOptions& options = {});

}  // namespace tracesel::soc
