// Closed-form interleaving statistics: exactness gate + scaling sweep.
//
// Sweeps instances-per-flow over the PIOR ||| PIOW sub-spec of data/t2.flow.
// At every row it computes flow::ProductStats (|S|, |E|, the occurrences,
// the in-edge class histograms Step 2 reads) and reports its wall time in
// microseconds. Up to 4 instances per flow it also builds the product and
// exits nonzero unless every quantity matches it bit for bit:
//   * |S|, |E| and every occurrence count,
//   * every in-edge class histogram and every InfoGainEngine contribution,
//   * Def. 7 coverage of 200 random message subsets,
//   * Step 2 selection at 16 and 32 bits.
// Beyond 4 instances only the closed form runs, up to 20; rows whose counts
// pass 2^64 report the typed overflow error instead of a size. Results land
// in BENCH_interleave.json.

#include <bit>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "flow/parser.hpp"
#include "flow/product_stats.hpp"
#include "selection/coverage.hpp"
#include "selection/info_gain.hpp"
#include "selection/selector.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace tracesel;

constexpr std::uint32_t kMaxProduct = 4;  // product oracle up to here
constexpr std::uint32_t kMaxClosed = 20;

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

struct Row {
  std::uint32_t instances = 0;
  double closed_form_us = 0.0;
  std::optional<flow::ProductStats> stats;  ///< empty: counts overflow
  std::size_t product_nodes = 0;            ///< 0: no product built
  double product_build_ms = 0.0;
  int mismatches = 0;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Compares the closed form with the product at one row; returns the
/// number of mismatching quantities (each reported on stderr).
int compare_with_product(const flow::MessageCatalog& catalog,
                         const flow::ProductStats& stats,
                         const flow::InterleavedFlow& u) {
  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::cerr << "MISMATCH at n=" << u.instances().size() / 2 << ": " << what
              << '\n';
    ++failures;
  };
  if (stats.num_product_states() != u.num_product_states())
    fail("product state count");
  if (stats.num_product_edges() != u.num_product_edges())
    fail("product edge count");
  if (stats.indexed_messages() != u.indexed_messages())
    fail("indexed message set");
  for (const auto& im : u.indexed_messages())
    if (stats.occurrences(im) != u.occurrences(im))
      fail("occurrences of " + catalog.get(im.message).name);

  const auto want = u.label_target_histograms();
  const auto& got = stats.label_target_histograms();
  if (got.size() != want.size()) fail("histogram label set");
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
    if (got[i].label != want[i].label || got[i].classes != want[i].classes)
      fail("in-edge histogram of " + catalog.get(want[i].label.message).name);

  const selection::InfoGainEngine closed(stats);
  const selection::InfoGainEngine counted(flow::ProductStats::count(u));
  for (const auto& im : u.indexed_messages())
    if (bits(closed.contribution(im)) != bits(counted.contribution(im)))
      fail("contribution of " + catalog.get(im.message).name);

  util::Rng rng(u.instances().size());
  std::vector<flow::MessageId> subset;
  for (int t = 0; t < 200; ++t) {
    subset.clear();
    for (flow::MessageId m = 0; m < catalog.size(); ++m)
      if (rng.chance(0.5)) subset.push_back(m);
    if (bits(selection::flow_spec_coverage(stats, subset)) !=
        bits(selection::flow_spec_coverage(u, subset)))
      fail("coverage of subset " + std::to_string(t));
  }

  const selection::MessageSelector a(catalog, stats);
  const selection::MessageSelector b(catalog, flow::ProductStats::count(u));
  for (const std::uint32_t budget : {16u, 32u}) {
    selection::SelectorConfig cfg;
    cfg.buffer_width = budget;
    const auto x = a.select(cfg);
    const auto y = b.select(cfg);
    if (x.combination.messages != y.combination.messages ||
        bits(x.gain) != bits(y.gain) || bits(x.coverage) != bits(y.coverage) ||
        x.used_width != y.used_width || x.packed != y.packed)
      fail("selection at " + std::to_string(budget) + " bits");
  }
  return failures;
}

}  // namespace

int main() {
  const auto spec = flow::parse_flow_spec_file(TRACESEL_DATA_DIR "/t2.flow");
  const std::vector<const flow::Flow*> flows{&spec.flow("PIOR"),
                                             &spec.flow("PIOW")};

  std::vector<Row> rows;
  int failures = 0;
  for (std::uint32_t n = 1; n <= kMaxClosed; ++n) {
    const auto instances = flow::make_instances(flows, n);
    Row row;
    row.instances = n;
    try {
      row.closed_form_us = best_of_us(5, [&] {
        row.stats.emplace(flow::ProductStats::build(instances));
      });
    } catch (const std::overflow_error&) {
      row.stats.reset();
    }
    if (n <= kMaxProduct) {
      flow::InterleaveOptions opt;
      opt.max_nodes = 20'000'000;
      const auto t0 = std::chrono::steady_clock::now();
      const auto u = flow::InterleavedFlow::build(instances, opt);
      row.product_build_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      row.product_nodes = u.num_nodes();
      row.mismatches = row.stats ? compare_with_product(spec.catalog,
                                                        *row.stats, u)
                                 : 1;
      failures += row.mismatches;
    }
    rows.push_back(std::move(row));
  }

  std::cout << "Closed-form statistics on the t2.flow PIOR ||| PIOW sub-spec "
               "(n instances of each):\n";
  util::Table table({"n", "Product states", "Product edges", "Labels",
                     "Closed form us", "Product nodes", "Product build ms",
                     "Identical"});
  util::Json jrows = util::Json::array();
  for (const Row& r : rows) {
    const bool oracle = r.instances <= kMaxProduct;
    table.add_row(
        {std::to_string(r.instances),
         r.stats ? std::to_string(r.stats->num_product_states()) : "overflow",
         r.stats ? std::to_string(r.stats->num_product_edges()) : "overflow",
         r.stats ? std::to_string(r.stats->indexed_messages().size()) : "-",
         r.stats ? util::fixed(r.closed_form_us, 1) : "-",
         oracle ? std::to_string(r.product_nodes) : "-",
         oracle ? util::fixed(r.product_build_ms, 1) : "-",
         oracle ? (r.mismatches == 0 ? "yes" : "NO") : "-"});
    util::Json jr = util::Json::object();
    jr.set("instances_per_flow",
           util::Json::number(std::uint64_t{r.instances}));
    jr.set("overflow", util::Json::boolean(!r.stats));
    if (r.stats) {
      jr.set("product_states",
             util::Json::number(r.stats->num_product_states()));
      jr.set("product_edges",
             util::Json::number(r.stats->num_product_edges()));
      jr.set("closed_form_us", util::Json::number(r.closed_form_us));
    }
    if (oracle) {
      jr.set("product_nodes",
             util::Json::number(std::uint64_t{r.product_nodes}));
      jr.set("product_build_ms", util::Json::number(r.product_build_ms));
      jr.set("bit_identical", util::Json::boolean(r.mismatches == 0));
    }
    jrows.push_back(std::move(jr));
  }
  std::cout << table << '\n';

  util::Json out = util::Json::object();
  out.set("spec", util::Json::string("t2.flow:PIOR|||PIOW"));
  out.set("rows", std::move(jrows));
  out.set("gates_passed", util::Json::boolean(failures == 0));
  bench::write_json("BENCH_interleave.json", std::move(out));

  if (failures) {
    std::cerr << failures << " closed-form/product mismatch(es)\n";
    return 1;
  }
  std::cout << "Closed form bit-identical to the product at 1-" << kMaxProduct
            << " instances.\n";
  return 0;
}
