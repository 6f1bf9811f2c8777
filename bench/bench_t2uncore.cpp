// Gate-level baselines at T2-uncore structure: the Sec. 5.4 comparison
// repeated on a netlist shaped like the T2's NCU/DMU/SIU/CCX/MCU blocks
// (the paper could only run the baselines on the small USB design; this
// model lets us show the same blind spot on T2-like structure, and how
// the cost explodes with size).

#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "baseline/prnet.hpp"
#include "baseline/sigset.hpp"
#include "netlist/restoration.hpp"
#include "netlist/t2_uncore.hpp"
#include "selection/selector.hpp"
#include "soc/scenario.hpp"

namespace {

std::string mark(tracesel::netlist::SignalCoverage c) {
  switch (c) {
    case tracesel::netlist::SignalCoverage::kFull: return "yes";
    case tracesel::netlist::SignalCoverage::kPartial: return "P";
    case tracesel::netlist::SignalCoverage::kNone: return "X";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace tracesel;
  bench::banner("T2-uncore baseline study",
                "SigSeT / PRNet on a T2-shaped gate-level netlist vs "
                "flow-level InfoGain (32-bit budget)");

  netlist::T2Uncore uncore;
  std::cout << "T2-uncore netlist: " << uncore.netlist().num_nets()
            << " nets, " << uncore.netlist().flops().size()
            << " flip-flops\n\n";

  baseline::SigSeTOptions ss_opt;
  ss_opt.sim_cycles = 16;
  const auto t0 = std::chrono::steady_clock::now();
  const auto sigset = baseline::select_sigset(uncore.netlist(), ss_opt);
  const auto t1 = std::chrono::steady_clock::now();
  const auto prnet = baseline::select_prnet(uncore.netlist());
  const auto t2 = std::chrono::steady_clock::now();

  util::Table table({"Interface register", "Block", "SigSeT", "PRNet"});
  std::size_t ss_full = 0, pr_full = 0;
  for (const auto& sg : uncore.interface_signals()) {
    const auto ss = netlist::coverage_of(sg, sigset.selected);
    const auto pr = netlist::coverage_of(sg, prnet.selected);
    if (ss == netlist::SignalCoverage::kFull) ++ss_full;
    if (pr == netlist::SignalCoverage::kFull) ++pr_full;
    table.add_row({sg.name, sg.module, mark(ss), mark(pr)});
  }
  std::cout << table << '\n';

  std::cout << "SigSeT fully captures " << ss_full << '/'
            << uncore.interface_signals().size()
            << " interface registers (SRR " << util::fixed(sigset.srr, 2)
            << ", "
            << std::chrono::duration<double>(t1 - t0).count()
            << " s); PRNet " << pr_full << '/'
            << uncore.interface_signals().size() << " ("
            << std::chrono::duration<double>(t2 - t1).count() << " s)\n";

  // Flow-level selection, for contrast, runs on the Table 1 flows in
  // milliseconds and captures the messages those registers carry.
  soc::T2Design design;
  const selection::MessageSelector selector(
      design.catalog(), flow::ProductStats::build(soc::scenario_instances(
                            design, soc::scenario1())));
  const auto t3 = std::chrono::steady_clock::now();
  const auto r = selector.select({});
  const auto t4 = std::chrono::steady_clock::now();
  std::cout << "InfoGain on scenario 1 flows: "
            << r.combination.messages.size() << " messages + "
            << r.packed.size() << " packed subgroup(s), coverage "
            << util::pct(r.coverage) << ", in "
            << std::chrono::duration<double, std::milli>(t4 - t3).count()
            << " ms\n";

  // Restoration cost growth with uncore size (the scalability wall).
  util::Table growth({"cores", "data width", "flops", "restore time (ms)"});
  for (const auto& [cores, width] :
       {std::pair{4u, 8u}, std::pair{8u, 16u}, std::pair{16u, 32u},
        std::pair{32u, 32u}}) {
    netlist::T2UncoreConfig cfg;
    cfg.cores = cores;
    cfg.data_width = width;
    const netlist::T2Uncore scaled(cfg);
    const auto trace =
        baseline::golden_flop_trace(scaled.netlist(), 16, 7);
    const netlist::RestorationEngine engine(scaled.netlist());
    const auto start = std::chrono::steady_clock::now();
    const auto res =
        engine.restore({scaled.netlist().flops().front()}, trace);
    const auto stop = std::chrono::steady_clock::now();
    (void)res;
    growth.add_row(
        {std::to_string(cores), std::to_string(width),
         std::to_string(scaled.netlist().flops().size()),
         util::fixed(
             std::chrono::duration<double, std::milli>(stop - start).count(),
             2)});
  }
  std::cout << '\n' << growth;
  bench::note("a greedy SRR selection multiplies one restore() evaluation "
              "by (flops x budget); at real T2 size (hundreds of thousands "
              "of flops) that is computationally out of reach - the "
              "paper's scalability argument");
  return 0;
}
