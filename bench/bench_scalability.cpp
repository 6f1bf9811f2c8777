// Scalability study (google-benchmark): the paper's Sec. 1/5.4 claim is
// that SRR-based gate-level selection cannot scale to SoC-sized designs
// while application-level message selection operates on small flow
// abstractions. This bench measures both sides:
//  - message selection cost vs scenario size and search mode;
//  - restoration (SRR evaluation) and SigSeT selection cost vs netlist
//    size, which grows steeply with flop count.

#include <benchmark/benchmark.h>

#include "baseline/prnet.hpp"
#include "baseline/sigset.hpp"
#include "flow/product_grid.hpp"
#include "netlist/usb_design.hpp"
#include "selection/selector.hpp"
#include "soc/scenario.hpp"

namespace {

using namespace tracesel;

void BM_InterleavingBuild(benchmark::State& state) {
  soc::T2Design design;
  const auto scenario = soc::scenario_by_id(static_cast<int>(state.range(0)));
  std::size_t nodes = 0, edges = 0;
  for (auto _ : state) {
    auto u = soc::build_interleaving(design, scenario);
    nodes = u.num_nodes();
    edges = u.num_edges();
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_InterleavingBuild)->Arg(1)->Arg(2)->Arg(3);

void BM_ProductStatsBuild(benchmark::State& state) {
  soc::T2Design design;
  const auto instances = soc::scenario_instances(
      design, soc::scenario_by_id(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto stats = flow::ProductStats::build(instances);
    benchmark::DoNotOptimize(stats.num_product_states());
  }
}
BENCHMARK(BM_ProductStatsBuild)->Arg(1)->Arg(2)->Arg(3);

void BM_InfoGainEngineBuild(benchmark::State& state) {
  soc::T2Design design;
  const auto scenario = soc::scenario_by_id(static_cast<int>(state.range(0)));
  const auto stats =
      flow::ProductStats::build(soc::scenario_instances(design, scenario));
  for (auto _ : state) {
    selection::InfoGainEngine engine(stats);
    benchmark::DoNotOptimize(engine.max_gain());
  }
}
BENCHMARK(BM_InfoGainEngineBuild)->Arg(1)->Arg(2)->Arg(3);

void BM_SelectionSearch(benchmark::State& state) {
  soc::T2Design design;
  const auto scenario = soc::scenario_by_id(static_cast<int>(state.range(0)));
  const selection::MessageSelector selector(
      design.catalog(),
      flow::ProductStats::build(soc::scenario_instances(design, scenario)));
  selection::SelectorConfig cfg;
  cfg.mode = state.range(1) == 0 ? selection::SearchMode::kMaximal
                                 : selection::SearchMode::kGreedy;
  for (auto _ : state) {
    auto r = selector.select(cfg);
    benchmark::DoNotOptimize(r.gain);
  }
}
BENCHMARK(BM_SelectionSearch)
    ->ArgsProduct({{1, 2, 3}, {0, 1}})
    ->ArgNames({"scenario", "greedy"});

void BM_PathCounting(benchmark::State& state) {
  soc::T2Design design;
  const auto scenario = soc::scenario_by_id(static_cast<int>(state.range(0)));
  const auto instances = soc::scenario_instances(design, scenario);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::ProductGrid::build(instances).count_paths());
  }
}
BENCHMARK(BM_PathCounting)->Arg(1)->Arg(3);

/// Synthetic netlist: `n` shift/feedback chains of 8 flops each, lightly
/// cross-coupled — SRR evaluation cost grows superlinearly in flop count.
netlist::Netlist make_chained_netlist(int chains) {
  netlist::Netlist nl;
  const auto in = nl.add_input("in");
  netlist::NetId prev_chain_tail = in;
  for (int c = 0; c < chains; ++c) {
    netlist::NetId prev = prev_chain_tail;
    netlist::NetId tail = netlist::kInvalidNet;
    for (int i = 0; i < 8; ++i) {
      const auto f =
          nl.add_flop("c" + std::to_string(c) + "_f" + std::to_string(i));
      nl.set_flop_input(f, i % 3 == 2 ? nl.add_xor(prev, in)
                                      : nl.add_gate(netlist::GateType::kBuf,
                                                    {prev}));
      prev = f;
      tail = f;
    }
    prev_chain_tail = tail;
  }
  return nl;
}

void BM_RestorationSweep(benchmark::State& state) {
  const auto nl = make_chained_netlist(static_cast<int>(state.range(0)));
  const auto trace = baseline::golden_flop_trace(nl, 24, 7);
  const netlist::RestorationEngine engine(nl);
  const std::vector<netlist::NetId> traced{nl.flops().front()};
  for (auto _ : state) {
    auto r = engine.restore(traced, trace);
    benchmark::DoNotOptimize(r.restored_flop_cycles);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RestorationSweep)->RangeMultiplier(2)->Range(2, 32)->Complexity();

void BM_SigSeTSelection(benchmark::State& state) {
  const auto nl = make_chained_netlist(static_cast<int>(state.range(0)));
  baseline::SigSeTOptions opt;
  opt.budget_bits = 8;
  opt.sim_cycles = 16;
  for (auto _ : state) {
    auto r = baseline::select_sigset(nl, opt);
    benchmark::DoNotOptimize(r.srr);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SigSeTSelection)->RangeMultiplier(2)->Range(2, 16)->Complexity();

void BM_PrNetSelection(benchmark::State& state) {
  const auto nl = make_chained_netlist(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = baseline::select_prnet(nl);
    benchmark::DoNotOptimize(r.selected.size());
  }
}
BENCHMARK(BM_PrNetSelection)->Arg(4)->Arg(16);

void BM_UsbSigSeT(benchmark::State& state) {
  netlist::UsbDesign usb;
  baseline::SigSeTOptions opt;
  opt.budget_bits = static_cast<std::size_t>(state.range(0));
  opt.sim_cycles = 16;
  for (auto _ : state) {
    auto r = baseline::select_sigset(usb.netlist(), opt);
    benchmark::DoNotOptimize(r.srr);
  }
}
BENCHMARK(BM_UsbSigSeT)->Arg(8)->Arg(16);

void BM_UsbInfoGain(benchmark::State& state) {
  netlist::UsbDesign usb;
  const selection::MessageSelector selector(
      usb.catalog(), flow::ProductStats::build(flow::make_instances(
                         {&usb.rx_flow(), &usb.tx_flow()}, 2)));
  for (auto _ : state) {
    auto r = selector.select({});
    benchmark::DoNotOptimize(r.gain);
  }
}
BENCHMARK(BM_UsbInfoGain);

}  // namespace

BENCHMARK_MAIN();
