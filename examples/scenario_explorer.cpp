// Scenario explorer: sweeps trace-buffer widths and search modes over the
// three T2 usage scenarios and prints how the selection, its gain,
// coverage, and utilization evolve — a what-if tool for a DfD architect
// sizing the trace buffer before tape-out.

#include <iostream>

#include "selection/selector.hpp"
#include "soc/scenario.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace tracesel;
  soc::T2Design design;

  // Optional argument: scenario id (1..3); default sweeps all.
  int only = 0;
  if (argc > 1) only = std::atoi(argv[1]);

  for (const soc::Scenario& s : soc::all_scenarios()) {
    if (only != 0 && s.id != only) continue;
    const selection::MessageSelector selector(
        design.catalog(),
        flow::ProductStats::build(soc::scenario_instances(design, s)));
    const flow::ProductStats& stats = selector.stats();

    std::cout << s.name << " (" << stats.num_product_states()
              << " interleaved states, " << stats.num_product_edges()
              << " message occurrences)\n";
    util::Table table({"Buffer", "Mode", "Selected messages", "Packed",
                       "Gain", "Coverage", "Utilization"});
    for (const std::uint32_t width : {8u, 16u, 24u, 32u, 48u, 64u}) {
      for (const auto mode :
           {selection::SearchMode::kMaximal, selection::SearchMode::kGreedy}) {
        selection::SelectorConfig cfg;
        cfg.buffer_width = width;
        cfg.mode = mode;
        const auto r = selector.select(cfg);
        std::string names;
        for (const auto m : r.combination.messages) {
          if (!names.empty()) names += ' ';
          names += design.catalog().get(m).name;
        }
        std::string packed;
        for (const auto& pg : r.packed) {
          if (!packed.empty()) packed += ' ';
          packed += design.catalog().get(pg.parent).name + '.' +
                    pg.subgroup_name;
        }
        table.add_row(
            {std::to_string(width),
             mode == selection::SearchMode::kMaximal ? "maximal" : "greedy",
             names, packed.empty() ? "-" : packed, util::fixed(r.gain, 3),
             util::pct(r.coverage), util::pct(r.utilization())});
      }
    }
    std::cout << table << '\n';
  }

  std::cout << "Reading the table: gain and coverage grow with buffer "
               "width; packing tops up the leftover bits with subgroups "
               "of wide messages (dmusiidata.cputhreadid being the "
               "paper's example).\n";
  return 0;
}
