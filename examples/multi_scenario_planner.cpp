// Validation-plan budgeting: a lab runs scenario 1 60% of the time,
// scenario 2 30%, scenario 3 10%. Should the one trace buffer be
// reconfigured per scenario, or carry a single shared configuration?
// This example weighs the options with the multi-scenario selector and
// emits a machine-readable plan.

#include <iostream>

#include "debug/serialize.hpp"
#include "selection/multi_scenario.hpp"
#include "selection/selector.hpp"
#include "soc/scenario.hpp"

int main() {
  using namespace tracesel;
  soc::T2Design design;

  const auto s1 = flow::ProductStats::build(
      soc::scenario_instances(design, soc::scenario1()));
  const auto s2 = flow::ProductStats::build(
      soc::scenario_instances(design, soc::scenario2()));
  const auto s3 = flow::ProductStats::build(
      soc::scenario_instances(design, soc::scenario3()));

  // Lab-time weights from the validation plan.
  const double w1 = 0.6, w2 = 0.3, w3 = 0.1;
  const selection::MultiScenarioSelector planner(
      design.catalog(), {{&s1, w1}, {&s2, w2}, {&s3, w3}});
  selection::SelectorConfig config;
  config.buffer_width = 32;
  const auto shared = planner.select(config);

  std::cout << "Shared 32-bit configuration (weights 60/30/10):\n  ";
  for (const auto m : shared.combination.messages)
    std::cout << design.catalog().get(m).name << ' ';
  for (const auto& pg : shared.packed)
    std::cout << design.catalog().get(pg.parent).name << '.'
              << pg.subgroup_name << ' ';
  std::cout << "\n\n";

  std::cout << "Per-scenario flow-spec coverage of the shared config vs a "
               "dedicated reconfiguration:\n";
  const flow::ProductStats* us[3] = {&s1, &s2, &s3};
  const double weights[3] = {w1, w2, w3};
  double shared_expected = 0.0, dedicated_expected = 0.0;
  for (int i = 0; i < 3; ++i) {
    const selection::MessageSelector dedicated(design.catalog(), *us[i]);
    const auto r = dedicated.select({});
    std::cout << "  scenario " << i + 1 << ": shared "
              << shared.per_scenario_coverage[i] * 100 << "%  dedicated "
              << r.coverage * 100 << "%\n";
    shared_expected += weights[i] * shared.per_scenario_coverage[i];
    dedicated_expected += weights[i] * r.coverage;
  }
  std::cout << "\nLab-time-weighted expected coverage: shared "
            << shared_expected * 100 << "% vs dedicated "
            << dedicated_expected * 100
            << "% (the gap is the price of never reconfiguring)\n\n";

  std::cout << "Machine-readable plan:\n"
            << selection::to_json(design.catalog(), shared).dump(2) << '\n';
  return 0;
}
