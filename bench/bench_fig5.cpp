// Regenerates Fig. 5: correlation between mutual information gain and flow
// specification coverage across message combinations, for each of the three
// usage scenarios. The paper's claim: coverage increases monotonically with
// information gain, validating the selection metric.

#include <iostream>

#include "bench_util.hpp"
#include "selection/combination.hpp"
#include "selection/coverage.hpp"
#include "selection/info_gain.hpp"
#include "soc/scenario.hpp"
#include "util/stats.hpp"

int main() {
  using namespace tracesel;
  bench::banner("Fig. 5", "mutual information gain vs flow specification "
                          "coverage per usage scenario");

  soc::T2Design design;
  for (const soc::Scenario& s : soc::all_scenarios()) {
    const auto stats =
        flow::ProductStats::build(soc::scenario_instances(design, s));
    const selection::InfoGainEngine engine(stats);

    // All message combinations fitting the 32-bit buffer.
    std::vector<flow::MessageId> candidates;
    for (const auto* f : soc::scenario_flows(design, s)) {
      for (flow::MessageId m : f->messages()) {
        if (std::find(candidates.begin(), candidates.end(), m) ==
            candidates.end())
          candidates.push_back(m);
      }
    }
    const auto combos =
        selection::enumerate_combinations(design.catalog(), candidates, 32);

    std::vector<double> gains, coverages;
    gains.reserve(combos.size());
    for (const auto& c : combos) {
      gains.push_back(engine.info_gain(c.messages));
      coverages.push_back(selection::flow_spec_coverage(stats, c.messages));
    }

    std::cout << s.name << ": " << combos.size()
              << " fitting combinations\n";
    // The printed series: mean coverage per gain decile — the Fig. 5
    // curve (scatter summarized into ten buckets along the gain axis).
    std::vector<std::size_t> order(combos.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return gains[a] < gains[b];
    });
    util::Table curve(
        {"Gain decile", "Mean info gain", "Mean FSP coverage"});
    const std::size_t bucket = std::max<std::size_t>(1, order.size() / 10);
    for (std::size_t start = 0; start < order.size(); start += bucket) {
      const std::size_t end = std::min(order.size(), start + bucket);
      double g = 0.0, c = 0.0;
      for (std::size_t i = start; i < end; ++i) {
        g += gains[order[i]];
        c += coverages[order[i]];
      }
      const double n_items = static_cast<double>(end - start);
      curve.add_row({std::to_string(start / bucket + 1),
                     util::fixed(g / n_items, 4),
                     util::pct(c / n_items)});
    }
    std::cout << curve;
    std::cout << "  Spearman(gain, coverage) = "
              << util::fixed(util::spearman(gains, coverages), 4)
              << ", Pearson = "
              << util::fixed(util::pearson(gains, coverages), 4)
              << ", monotone fraction = "
              << util::fixed(util::monotone_fraction(gains, coverages), 4)
              << "\n\n";
  }
  bench::note("paper claim: coverage increases monotonically with mutual "
              "information gain; reproduced when the rank correlation is "
              "strongly positive");
  return 0;
}
