// Ablation: concurrency depth. The paper fixes two concurrently executing
// instances per flow (tagging makes them distinguishable); this bench
// sweeps 1..3 instances per flow and reports how the interleaved product,
// the selected combination, and its quality metrics respond — checking
// that the selection is stable under deeper concurrency (it should be:
// the per-message structure, not the instance count, drives the choice).

#include <iostream>

#include "bench_util.hpp"
#include "selection/selector.hpp"
#include "soc/scenario.hpp"

int main() {
  using namespace tracesel;
  bench::banner("Ablation: instances per flow",
                "interleaving depth 1..3 for every scenario");

  soc::T2Design design;
  util::Table table({"Scenario", "Instances", "States", "Occurrences",
                     "Selected messages", "Gain", "Coverage", "Util"});
  for (const soc::Scenario& base : soc::all_scenarios()) {
    std::string last_selection;
    for (std::uint32_t instances = 1; instances <= 3; ++instances) {
      soc::Scenario s = base;
      s.instances_per_flow = instances;
      const selection::MessageSelector selector(
          design.catalog(),
          flow::ProductStats::build(soc::scenario_instances(design, s)));
      const auto r = selector.select({});
      std::string names;
      for (const auto m : r.combination.messages) {
        if (!names.empty()) names += ' ';
        names += design.catalog().get(m).name;
      }
      table.add_row({s.name, std::to_string(instances),
                     std::to_string(selector.stats().num_product_states()),
                     std::to_string(selector.stats().num_product_edges()),
                     names, util::fixed(r.gain, 3), util::pct(r.coverage),
                     util::pct(r.utilization())});
      if (!last_selection.empty() && last_selection != names)
        std::cout << "  [selection changed between depths for " << s.name
                  << "]\n";
      last_selection = names;
    }
  }
  std::cout << table << '\n';
  bench::note("product size grows multiplicatively with instance count "
              "while the selected set stays (nearly) unchanged - the "
              "application-level abstraction is what keeps the method "
              "scalable");
  return 0;
}
