// Ablation: pure-gain selection vs flow-representation-constrained
// selection under tight buffers. The paper's Step 2 objective is blind to
// *which* flow a bit watches; at small widths it concentrates the buffer
// on the information-dense flow and leaves others completely dark. The
// constrained selector gives up a little gain to keep every flow visible.

#include <iostream>

#include "bench_util.hpp"
#include "selection/selector.hpp"
#include "soc/scenario.hpp"

int main() {
  using namespace tracesel;
  bench::banner("Ablation: flow-representation constraint",
                "pure gain vs every-flow-visible under tight buffers");

  soc::T2Design design;
  for (const soc::Scenario& s : soc::all_scenarios()) {
    const selection::MessageSelector selector(
        design.catalog(),
        flow::ProductStats::build(soc::scenario_instances(design, s)));
    const auto flows = soc::scenario_flows(design, s);

    auto dark_flows = [&](const selection::SelectionResult& r) {
      std::string dark;
      for (const auto* f : flows) {
        bool seen = false;
        for (const flow::MessageId m : r.observable()) {
          if (f->uses_message(m)) seen = true;
        }
        if (!seen) {
          if (!dark.empty()) dark += ' ';
          dark += f->name();
        }
      }
      return dark.empty() ? std::string("-") : dark;
    };

    std::cout << s.name << ":\n";
    util::Table table({"Buffer", "Gain (pure)", "Dark flows (pure)",
                       "Gain (constrained)", "Dark flows (constrained)",
                       "Coverage (constrained)"});
    for (const std::uint32_t width : {12u, 16u, 20u, 24u, 32u}) {
      selection::SelectorConfig cfg;
      cfg.buffer_width = width;
      const auto pure = selector.select(cfg);
      std::string gain_c = "-", dark_c = "-", cov_c = "-";
      try {
        const auto constrained = selector.select_with_flow_constraint(cfg);
        gain_c = util::fixed(constrained.gain, 3);
        dark_c = dark_flows(constrained);
        cov_c = util::pct(constrained.coverage);
      } catch (const std::runtime_error&) {
        gain_c = "infeasible";
      }
      table.add_row({std::to_string(width), util::fixed(pure.gain, 3),
                     dark_flows(pure), gain_c, dark_c, cov_c});
    }
    std::cout << table << '\n';
  }
  bench::note("the constraint costs gain only when the pure optimum left "
              "a flow dark; the constrained column must never list a dark "
              "flow unless the buffer cannot physically hold one of its "
              "messages");
  return 0;
}
