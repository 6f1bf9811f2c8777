// Ablation: the value of Step 3 packing across trace-buffer widths.
// For every scenario and width, compares utilization / coverage / gain
// with and without packing — quantifying when subgroup packing pays
// (Sec. 3.3 / Sec. 5.1 claim: packing lifts utilization to ~100% and
// raises coverage whenever leftover bits fit a subgroup).

#include <iostream>

#include "bench_util.hpp"
#include "selection/selector.hpp"
#include "soc/scenario.hpp"

int main() {
  using namespace tracesel;
  bench::banner("Ablation: packing",
                "Step 3 on/off across buffer widths and scenarios");

  soc::T2Design design;
  for (const soc::Scenario& s : soc::all_scenarios()) {
    const selection::MessageSelector selector(
        design.catalog(),
        flow::ProductStats::build(soc::scenario_instances(design, s)));

    std::cout << s.name << ":\n";
    util::Table table({"Buffer", "Util WoP", "Util WP", "Cov WoP", "Cov WP",
                       "Gain WoP", "Gain WP", "Packed subgroups"});
    for (const std::uint32_t width : {16u, 20u, 24u, 28u, 32u, 40u, 48u,
                                      64u}) {
      selection::SelectorConfig wop, wp;
      wop.buffer_width = wp.buffer_width = width;
      wop.packing = false;
      wp.packing = true;
      const auto a = selector.select(wop);
      const auto b = selector.select(wp);
      std::string packed;
      for (const auto& pg : b.packed) {
        if (!packed.empty()) packed += ' ';
        packed += design.catalog().get(pg.parent).name + '.' +
                  pg.subgroup_name;
      }
      table.add_row({std::to_string(width), util::pct(a.utilization()),
                     util::pct(b.utilization()), util::pct(a.coverage),
                     util::pct(b.coverage), util::fixed(a.gain, 3),
                     util::fixed(b.gain, 3),
                     packed.empty() ? "-" : packed});
    }
    std::cout << table << '\n';
  }
  bench::note("packing never hurts (gain/coverage weakly increase) and "
              "fills the buffer whenever a subgroup fits the leftover; at "
              "very wide buffers everything already fits and packing "
              "becomes a no-op");
  return 0;
}
