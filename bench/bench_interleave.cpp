// Symmetry-reduced interleaving engine: scaling sweep + exactness gates.
//
// Sweeps instances-per-flow over the PIOR ||| PIOW sub-spec of data/t2.flow
// and builds the product with both engines, reporting materialized nodes /
// edges, concrete product sizes, build wall-clock and process peak RSS per
// row; results land in BENCH_interleave.json for CI trend tracking.
//
// Beyond the numbers the bench is a check: it
// exits nonzero unless
//   * at >= 3 instances/flow the reduced engine materializes >= 4x fewer
//     nodes and builds >= 2x faster than the unreduced product, and
//   * Step 2 selection and every per-message info-gain contribution are
//     bit-identical across engines, and
//   * count_paths() agrees exactly (counts well below 2^53 here).
// The unreduced 5-instance product would need ~6^5*3^5 states, so the
// sweep compares engines up to 4 and then lets the reduced engine continue
// alone — the rows that exist only because the reduction exists.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "flow/parser.hpp"
#include "selection/info_gain.hpp"
#include "selection/selector.hpp"
#include "util/json.hpp"
#include "util/obs.hpp"
#include "util/table.hpp"

namespace {

using namespace tracesel;

double best_of_ms(int repeats, const auto& fn) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct Row {
  std::uint32_t instances = 0;
  bool reduced = false;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::uint64_t product_states = 0;
  std::uint64_t product_edges = 0;
  double build_ms = 0.0;
  long rss_kb = 0;
};

Row measure(const std::vector<flow::IndexedFlow>& instances,
            std::uint32_t n, bool reduced) {
  flow::InterleaveOptions opt;
  opt.symmetry_reduction = reduced;
  opt.max_nodes = 20'000'000;
  Row row;
  row.instances = n;
  row.reduced = reduced;
  row.build_ms = best_of_ms(3, [&] {
    const auto u = flow::InterleavedFlow::build(instances, opt);
    row.nodes = u.num_nodes();
    row.edges = u.num_edges();
    row.product_states = u.num_product_states();
    row.product_edges = u.num_product_edges();
  });
  row.rss_kb = obs::peak_rss_kb();
  return row;
}

/// Step 2 equality across engines: info-gain contributions, totals and the
/// final selections must match bit-for-bit. Returns the failure count.
int check_bit_identity(const flow::MessageCatalog& catalog,
                       const std::vector<flow::IndexedFlow>& instances) {
  int failures = 0;
  flow::InterleaveOptions full_opt;
  full_opt.symmetry_reduction = false;
  const auto red = flow::InterleavedFlow::build(instances);
  const auto full = flow::InterleavedFlow::build(instances, full_opt);

  if (red.num_product_states() != full.num_product_states() ||
      red.num_product_edges() != full.num_product_edges()) {
    std::cerr << "product size mismatch\n";
    ++failures;
  }
  if (red.count_paths() != full.count_paths()) {
    std::cerr << "count_paths mismatch: " << red.count_paths() << " vs "
              << full.count_paths() << "\n";
    ++failures;
  }

  const selection::InfoGainEngine er(red);
  const selection::InfoGainEngine ef(full);
  if (er.max_gain() != ef.max_gain()) {
    std::cerr << "max_gain mismatch\n";
    ++failures;
  }
  for (const auto& im : full.indexed_messages()) {
    if (er.contribution(im) != ef.contribution(im)) {
      std::cerr << "contribution mismatch for " << im.index << ":"
                << catalog.get(im.message).name << "\n";
      ++failures;
    }
  }

  const selection::MessageSelector sr(catalog, red);
  const selection::MessageSelector sf(catalog, full);
  for (const std::uint32_t budget : {16u, 32u}) {
    selection::SelectorConfig cfg;
    cfg.buffer_width = budget;
    const auto a = sr.select(cfg);
    const auto b = sf.select(cfg);
    const bool ok = a.combination.messages == b.combination.messages &&
                    a.gain == b.gain && a.coverage == b.coverage &&
                    a.used_width == b.used_width && a.packed == b.packed;
    if (!ok) {
      std::cerr << "selection mismatch at budget " << budget << "\n";
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int main() {
  const auto spec =
      flow::parse_flow_spec_file(TRACESEL_DATA_DIR "/t2.flow");
  const flow::Flow& pior = spec.flow("PIOR");
  const flow::Flow& piow = spec.flow("PIOW");
  const std::vector<const flow::Flow*> flows{&pior, &piow};

  std::cout << "Interleaving engines on the t2.flow PIOR ||| PIOW sub-spec "
               "(n instances of each):\n";
  util::Table table({"n", "Engine", "Nodes", "Edges", "Product states",
                     "Product edges", "Build ms", "Peak RSS MB"});
  std::vector<Row> rows;

  constexpr std::uint32_t kMaxBoth = 4;     // unreduced beyond this: huge
  constexpr std::uint32_t kMaxReduced = 6;  // reduced-only continuation
  for (std::uint32_t n = 1; n <= kMaxReduced; ++n) {
    const auto instances = flow::make_instances(flows, n);
    // Reduced first so its RSS reading is not inflated by a previous,
    // strictly larger unreduced build at the same n.
    rows.push_back(measure(instances, n, /*reduced=*/true));
    if (n <= kMaxBoth) rows.push_back(measure(instances, n, false));
  }
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.instances),
                   r.reduced ? "reduced" : "unreduced",
                   std::to_string(r.nodes), std::to_string(r.edges),
                   std::to_string(r.product_states),
                   std::to_string(r.product_edges),
                   util::fixed(r.build_ms, 3),
                   util::fixed(static_cast<double>(r.rss_kb) / 1024.0, 1)});
  }
  std::cout << table << '\n';

  int failures = 0;
  auto find_row = [&](std::uint32_t n, bool reduced) -> const Row& {
    for (const Row& r : rows)
      if (r.instances == n && r.reduced == reduced) return r;
    throw std::logic_error("missing row");
  };
  // Scaling gates at n >= 3 (acceptance: >= 4x fewer nodes, >= 2x faster).
  for (std::uint32_t n = 3; n <= kMaxBoth; ++n) {
    const Row& red = find_row(n, true);
    const Row& full = find_row(n, false);
    const double node_ratio = static_cast<double>(full.nodes) /
                              static_cast<double>(red.nodes);
    const double speedup = full.build_ms / red.build_ms;
    std::cout << "n=" << n << ": " << util::fixed(node_ratio, 2)
              << "x fewer materialized nodes, " << util::fixed(speedup, 2)
              << "x faster build\n";
    if (node_ratio < 4.0) {
      std::cerr << "GATE FAILED: node reduction < 4x at n=" << n << "\n";
      ++failures;
    }
    if (speedup < 2.0) {
      std::cerr << "GATE FAILED: build speedup < 2x at n=" << n << "\n";
      ++failures;
    }
  }

  std::cout << "\nBit-identity of Step 2 across engines (n=3)... ";
  const int id_failures =
      check_bit_identity(spec.catalog, flow::make_instances(flows, 3));
  failures += id_failures;
  if (id_failures == 0) std::cout << "identical.\n";

  util::Json out = util::Json::object();
  out.set("spec", util::Json::string("t2.flow:PIOR|||PIOW"));
  util::Json jrows = util::Json::array();
  for (const Row& r : rows) {
    util::Json jr = util::Json::object();
    jr.set("instances_per_flow",
           util::Json::number(std::uint64_t{r.instances}));
    jr.set("engine", util::Json::string(r.reduced ? "reduced" : "unreduced"));
    jr.set("nodes", util::Json::number(std::uint64_t{r.nodes}));
    jr.set("edges", util::Json::number(std::uint64_t{r.edges}));
    jr.set("product_states", util::Json::number(r.product_states));
    jr.set("product_edges", util::Json::number(r.product_edges));
    jr.set("build_ms", util::Json::number(r.build_ms));
    jr.set("peak_rss_kb",
           util::Json::number(static_cast<std::int64_t>(r.rss_kb)));
    jrows.push_back(std::move(jr));
  }
  out.set("rows", std::move(jrows));
  out.set("bit_identical", util::Json::boolean(id_failures == 0));
  out.set("gates_passed", util::Json::boolean(failures == 0));
  bench::write_json("BENCH_interleave.json", std::move(out));

  if (failures) {
    std::cerr << failures << " gate/identity failure(s)\n";
    return 1;
  }
  return 0;
}
