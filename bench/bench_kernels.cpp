// The debug leg's localization DPs (DESIGN.md §14): timing and an oracle
// gate.
//
// Path localization (Sec. 5.2) counts the executions of a scenario's
// flows consistent with an observed trace, on the state grid of the
// component flows (flow::ProductGrid). For T2 scenarios 1-3 at 2 instances
// per flow this bench reports, best of kRepeats:
//
//   grid      ProductGrid::build, which computes count_paths in closed
//             form over the component flows (no slot is visited);
//   sweep     count_consistent_paths() on the projection of a random
//             execution onto the scenario's 32-bit selection;
//   visited   the slots that sweep visits (interleave.grid.visited), the
//             ones a consistent path reaches, averaged like its time;
//   product   InterleavedFlow::build, the materialized product the oracle
//             walks, for scale;
//   oracle    the same count through the memoized test oracle
//             (tests/product_oracle.hpp) on that product, for scale.
//
// The bench is a gate, not just a report: it exits nonzero unless the
// grid's count_paths and every consistent-path count, and the product's
// every histogram class, equal the oracle's bit for bit.

#include <bit>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "flow/execution.hpp"
#include "product_oracle.hpp"
#include "soc/scenario.hpp"
#include "tracesel/tracesel.hpp"
#include "util/json.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace tracesel;

constexpr int kRepeats = 5;
constexpr int kObservations = 4;

double best_of_us(int repeats, const auto& fn) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return best;
}

/// The interleave.grid.visited count of one fn() call, with the obs layer
/// on only for that call (so the timed runs stay uninstrumented).
std::uint64_t visited_slots(const auto& fn) {
  obs::set_enabled(true);
  obs::reset();
  fn();
  const std::uint64_t visited =
      obs::registry().counter_value("interleave.grid.visited");
  obs::set_enabled(false);
  obs::reset();
  return visited;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// True when u's histograms equal the oracle's, class for class.
bool histograms_match(const flow::InterleavedFlow& u) {
  const auto want = test::oracle::histograms(u);
  const auto got = u.label_target_histograms();
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i].label != want[i].label || got[i].classes != want[i].classes)
      return false;
  return true;
}

}  // namespace

int main() {
  bench::banner("Localization",
                "the state grid's DPs vs the memoized oracle");
  std::cout << '\n';

  const soc::T2Design design;
  util::Table table({"Workload", "Slots", "Nodes", "Edges", "Grid us",
                     "Sweep us", "Visited", "Product us", "Oracle us",
                     "Identical"});
  util::Json rows = util::Json::array();
  int failures = 0;
  for (int id = 1; id <= 3; ++id) {
    const soc::Scenario scenario = soc::scenario_by_id(id);
    const std::string name = "t2 scenario " + std::to_string(id) + " x" +
                             std::to_string(scenario.instances_per_flow);

    const auto instances = soc::scenario_instances(design, scenario);
    const double grid_us = best_of_us(
        kRepeats, [&] { (void)flow::ProductGrid::build(instances); });
    const flow::ProductGrid grid = flow::ProductGrid::build(instances);
    const double product_us = best_of_us(kRepeats, [&] {
      (void)soc::build_interleaving(design, scenario);
    });
    const flow::InterleavedFlow u = soc::build_interleaving(design, scenario);

    // The observable set a 32-bit buffer traces on this scenario.
    selection::SelectorConfig cfg;
    cfg.buffer_width = 32;
    const std::vector<flow::MessageId> selected =
        selection::MessageSelector(design.catalog(),
                                   flow::ProductStats::build(instances))
            .select(cfg)
            .observable();

    bool identical =
        same_bits(grid.count_paths(), test::oracle::count_paths(u)) &&
        histograms_match(u);
    double sweep_us = 0.0;
    double oracle_us = 0.0;
    std::uint64_t visited = 0;
    util::Rng rng(2018 + static_cast<std::uint64_t>(id));
    for (int t = 0; t < kObservations; ++t) {
      const auto observed =
          flow::project(flow::random_execution(u, rng).trace(), selected);
      double got = 0.0;
      double want = 0.0;
      sweep_us += best_of_us(kRepeats, [&] {
        got = grid.count_consistent_paths(selected, observed);
      });
      visited += visited_slots(
          [&] { (void)grid.count_consistent_paths(selected, observed); });
      oracle_us += best_of_us(1, [&] {
        want = test::oracle::count_consistent_paths(u, selected, observed);
      });
      identical = identical && same_bits(got, want) && got > 0.0;
    }
    sweep_us /= kObservations;
    oracle_us /= kObservations;
    visited /= kObservations;
    if (!identical) {
      ++failures;
      std::cerr << "MISMATCH against the oracle on " << name << '\n';
    }

    table.add_row({name, std::to_string(grid.num_slots()),
                   std::to_string(u.num_nodes()),
                   std::to_string(u.num_edges()), util::fixed(grid_us, 0),
                   util::fixed(sweep_us, 0), std::to_string(visited),
                   util::fixed(product_us, 0),
                   util::fixed(oracle_us, 0), identical ? "yes" : "NO"});
    util::Json row = util::Json::object();
    row.set("workload", util::Json::string(name));
    row.set("slots", util::Json::number(std::uint64_t{grid.num_slots()}));
    row.set("nodes", util::Json::number(std::uint64_t{u.num_nodes()}));
    row.set("edges", util::Json::number(std::uint64_t{u.num_edges()}));
    row.set("grid_build_us", util::Json::number(grid_us));
    row.set("sweep_us", util::Json::number(sweep_us));
    row.set("visited_slots", util::Json::number(visited));
    row.set("product_build_us", util::Json::number(product_us));
    row.set("oracle_sweep_us", util::Json::number(oracle_us));
    row.set("identical", util::Json::boolean(identical));
    rows.push_back(std::move(row));
  }
  std::cout << table << '\n';

  util::Json out = util::Json::object();
  out.set("rows", std::move(rows));
  out.set("gate_passed", util::Json::boolean(failures == 0));
  bench::write_json("BENCH_kernels.json", std::move(out));

  if (failures) return 1;
  std::cout << "Gate passed: every count and histogram equals the oracle's, "
               "bit for bit.\n";
  return 0;
}
