// Ablation: hybrid trace configuration (messages first, SRR flops in the
// leftover bits). Quantifies what the leftover buys: message coverage is
// untouched by construction, and the extra flops add gate-level state
// restoration the pure message configuration leaves at zero.

#include <iostream>

#include "bench_util.hpp"
#include "baseline/hybrid.hpp"
#include "baseline/sigset.hpp"
#include "netlist/restoration.hpp"
#include "netlist/usb_design.hpp"

int main() {
  using namespace tracesel;
  bench::banner("Ablation: hybrid message+SRR configuration",
                "USB design; leftover buffer bits handed to greedy SRR");

  netlist::UsbDesign usb;
  const auto stats = flow::ProductStats::build(
      flow::make_instances({&usb.rx_flow(), &usb.tx_flow()}, 2));
  const auto trace = baseline::golden_flop_trace(usb.netlist(), 16, 7);
  const netlist::RestorationEngine engine(usb.netlist());

  util::Table table({"Buffer", "Message bits", "Flop bits", "Msg coverage",
                     "SRR of extra flops", "Flop-state known"});
  for (const std::uint32_t width : {26u, 28u, 32u, 40u, 48u}) {
    baseline::HybridOptions opt;
    opt.buffer_width = width;
    opt.sim_cycles = 16;
    const auto r =
        baseline::select_hybrid(usb.catalog(), stats, usb.netlist(), opt);
    double known = 0.0;
    if (!r.extra_flops.empty()) {
      const auto res = engine.restore(r.extra_flops, trace);
      known = res.state_coverage();
    }
    table.add_row({std::to_string(width),
                   std::to_string(r.messages.used_width),
                   std::to_string(r.extra_flops.size()),
                   util::pct(r.messages.coverage),
                   r.extra_flops.empty() ? "-" : util::fixed(r.srr, 2),
                   util::pct(known)});
  }
  std::cout << table << '\n';
  bench::note("message coverage is identical to the message-only selection "
              "at every width (messages keep priority); every leftover bit "
              "converts into gate-level observability the paper's "
              "comparison shows messages alone do not provide");
  return 0;
}
