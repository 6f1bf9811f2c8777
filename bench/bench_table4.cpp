// Regenerates Table 4: comparison of signals selected by SigSeT (SRR-based),
// PRNet (PageRank-based) and our information-gain method on the USB design,
// plus the flow-specification coverage each selection achieves.

#include <iostream>

#include "bench_util.hpp"
#include "baseline/prnet.hpp"
#include "baseline/sigset.hpp"
#include "netlist/usb_design.hpp"
#include "selection/coverage.hpp"
#include "selection/selector.hpp"

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
  bench::banner("Table 4",
                "signals selected by SigSeT / PRNet / InfoGain on the USB "
                "design (32-bit budget); P = partial");

  netlist::UsbDesign usb;

  // Gate-level baselines select 32 flip-flops each.
  const auto sigset = baseline::select_sigset(usb.netlist());
  const auto prnet = baseline::select_prnet(usb.netlist());

  // Our method selects messages on the two USB flows.
  const selection::MessageSelector selector(
      usb.catalog(), flow::ProductStats::build(flow::make_instances(
                         {&usb.rx_flow(), &usb.tx_flow()}, 2)));
  selection::SelectorConfig cfg;
  cfg.buffer_width = 32;
  const auto infogain = selector.select(cfg);

  util::Table table(
      {"Signal Name", "USB Module", "SigSeT", "PRNet", "InfoGain"});
  std::vector<flow::MessageId> ss_obs, pr_obs;
  for (const auto& sg : usb.interface_signals()) {
    const auto ss = netlist::coverage_of(sg, sigset.selected);
    const auto pr = netlist::coverage_of(sg, prnet.selected);
    const auto id = usb.message_of(sg.name);
    const bool ig =
        std::find(infogain.combination.messages.begin(),
                  infogain.combination.messages.end(),
                  id) != infogain.combination.messages.end();
    table.add_row({sg.name, sg.module, mark(ss), mark(pr),
                   ig ? "yes" : "X"});
    if (ss == netlist::SignalCoverage::kFull) ss_obs.push_back(id);
    if (pr == netlist::SignalCoverage::kFull) pr_obs.push_back(id);
  }
  std::cout << table << "\n";

  util::Table cov({"Method", "Interface signals fully selected",
                   "Flow spec coverage", "Paper"});
  const flow::ProductStats& stats = selector.stats();
  cov.add_row({"SigSeT", std::to_string(ss_obs.size()),
               util::pct(selection::flow_spec_coverage(stats, ss_obs)), "9%"});
  cov.add_row({"PRNet", std::to_string(pr_obs.size()),
               util::pct(selection::flow_spec_coverage(stats, pr_obs)),
               "23.80%"});
  cov.add_row({"InfoGain",
               std::to_string(infogain.combination.messages.size()),
               util::pct(infogain.coverage), "93.65%"});
  std::cout << cov << "\n";

  bench::note("reproduced claim: the application-level method selects all "
              "ten interface messages while the gate-level baselines trace "
              "mostly internal CRC/counter/FSM flops and miss most of the "
              "interface; coverage gap InfoGain >> SigSeT/PRNet holds");
  return 0;
}
