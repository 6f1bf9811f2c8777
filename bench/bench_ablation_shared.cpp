// Ablation: dedicated per-scenario selection (the paper's setup) vs one
// shared trace-buffer configuration serving all three usage scenarios
// (library extension). Quantifies the coverage cost of not reconfiguring
// the buffer between scenarios.

#include <iostream>

#include "bench_util.hpp"
#include "selection/multi_scenario.hpp"
#include "selection/selector.hpp"
#include "soc/scenario.hpp"

int main() {
  using namespace tracesel;
  bench::banner("Ablation: shared vs dedicated selection",
                "one 32-bit configuration for all scenarios vs one per "
                "scenario");

  soc::T2Design design;
  const auto s1 = flow::ProductStats::build(
      soc::scenario_instances(design, soc::scenario1()));
  const auto s2 = flow::ProductStats::build(
      soc::scenario_instances(design, soc::scenario2()));
  const auto s3 = flow::ProductStats::build(
      soc::scenario_instances(design, soc::scenario3()));
  const std::vector<const flow::ProductStats*> us{&s1, &s2, &s3};

  const selection::MultiScenarioSelector multi(
      design.catalog(), {{&s1, 1.0}, {&s2, 1.0}, {&s3, 1.0}});
  selection::SelectorConfig config;
  config.buffer_width = 32;
  const auto shared = multi.select(config);

  std::cout << "Shared configuration (" << shared.used_width
            << "/32 bits): ";
  for (const auto m : shared.combination.messages)
    std::cout << design.catalog().get(m).name << ' ';
  for (const auto& pg : shared.packed)
    std::cout << design.catalog().get(pg.parent).name << '.'
              << pg.subgroup_name << ' ';
  std::cout << "\n\n";

  util::Table table({"Scenario", "Dedicated coverage", "Shared coverage",
                     "Coverage cost", "Dedicated gain", "Shared gain on "
                     "this scenario"});
  for (std::size_t i = 0; i < us.size(); ++i) {
    const selection::MessageSelector dedicated(design.catalog(), *us[i]);
    const auto r = dedicated.select({});
    const selection::InfoGainEngine engine(*us[i]);
    const double shared_gain = engine.info_gain(shared.observable());
    table.add_row({"Scenario " + std::to_string(i + 1),
                   util::pct(r.coverage),
                   util::pct(shared.per_scenario_coverage[i]),
                   util::pct(r.coverage - shared.per_scenario_coverage[i]),
                   util::fixed(r.gain, 3), util::fixed(shared_gain, 3)});
  }
  std::cout << table << '\n';
  bench::note("the shared configuration trades a few points of coverage "
              "per scenario for zero reconfiguration between lab runs; "
              "weights let a validation plan bias the trade toward its "
              "dominant scenario");
  return 0;
}
