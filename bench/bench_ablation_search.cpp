// Ablation: Step 2 search strategies. Exhaustive enumeration is the
// paper's formulation; maximal-only enumeration is lossless (gain is
// monotone); the knapsack DP is exact because the paper's estimator is
// additive; greedy is the scalable fallback. This bench verifies the
// equalities empirically and measures the cost of each.

#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "selection/selector.hpp"
#include "soc/scenario.hpp"

namespace {

template <typename F>
std::pair<double, double> timed(F&& fn) {
  const auto start = std::chrono::steady_clock::now();
  const double gain = fn();
  const auto stop = std::chrono::steady_clock::now();
  return {gain,
          std::chrono::duration<double, std::milli>(stop - start).count()};
}

}  // namespace

int main() {
  using namespace tracesel;
  bench::banner("Ablation: search mode",
                "exhaustive vs maximal vs knapsack vs greedy (32-bit "
                "buffer, no packing)");

  soc::T2Design design;
  util::Table table({"Scenario", "Mode", "Gain", "Time (ms)",
                     "Optimal?"});
  for (const soc::Scenario& s : soc::all_scenarios()) {
    const selection::MessageSelector selector(
        design.catalog(),
        flow::ProductStats::build(soc::scenario_instances(design, s)));

    double reference = -1.0;
    for (const auto [mode, name] :
         {std::pair{selection::SearchMode::kExhaustive, "exhaustive"},
          std::pair{selection::SearchMode::kMaximal, "maximal"},
          std::pair{selection::SearchMode::kKnapsack, "knapsack"},
          std::pair{selection::SearchMode::kGreedy, "greedy"}}) {
      selection::SelectorConfig cfg;
      cfg.mode = mode;
      cfg.packing = false;
      const auto [gain, ms] =
          timed([&] { return selector.select(cfg).gain; });
      if (reference < 0.0) reference = gain;
      table.add_row({s.name, name, util::fixed(gain, 4),
                     util::fixed(ms, 3),
                     gain >= reference - 1e-9 ? "yes" : "NO"});
    }
  }
  std::cout << table << '\n';
  bench::note("maximal and knapsack must match exhaustive exactly; greedy "
              "may fall short on non-modular instances but rarely does on "
              "these flows");
  return 0;
}
