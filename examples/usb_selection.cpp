// Signal selection on the USB 2.0 controller, three ways (Sec. 5.4):
// gate-level SRR greedy (SigSeT), gate-level PageRank (PRNet), and
// application-level information gain. Shows why restoration-optimal
// flip-flops are not the messages a use-case debugger needs.

#include <iostream>

#include "baseline/prnet.hpp"
#include "baseline/sigset.hpp"
#include "netlist/usb_design.hpp"
#include "tracesel/tracesel.hpp"

int main() {
  using namespace tracesel;
  // One request for the builtin USB design: two instances of each flow
  // at the paper's default 32-bit buffer. The workload owns the design:
  // the gate-level baselines read its netlist, the application-level
  // selection its flows.
  JobRequest request;
  request.spec = "usb";
  request.instances = 2;
  const auto run = QueryCore::run(request, nullptr, {});
  if (!run.ok()) {
    std::cerr << "error: " << run.error().to_string() << '\n';
    return 2;
  }
  const Workload& workload = *run.value().workload;
  const netlist::UsbDesign& usb = *workload.usb;
  std::cout << "USB design: " << usb.netlist().num_nets() << " nets, "
            << usb.netlist().flops().size() << " flip-flops, "
            << usb.interface_signals().size() << " interface signals\n\n";

  // --- Gate-level baselines, 32 traced bits each ---
  const auto sigset = baseline::select_sigset(usb.netlist());
  std::cout << "SigSeT (greedy SRR, final SRR = " << sigset.srr << "):\n  ";
  for (const auto f : sigset.selected)
    std::cout << usb.netlist().gate(f).name << ' ';
  std::cout << "\n\n";

  const auto prnet = baseline::select_prnet(usb.netlist());
  std::cout << "PRNet (PageRank on the flop dependency graph):\n  ";
  for (const auto f : prnet.selected)
    std::cout << usb.netlist().gate(f).name << ' ';
  std::cout << "\n\n";

  // --- Application-level selection on the rx/tx flows ---
  const flow::ProductStats& stats = workload.selector->stats();
  const selection::SelectionResult& infogain = *run.value().result;
  std::cout << "InfoGain (message selection on UsbRx ||| UsbTx):\n  ";
  for (const auto m : infogain.combination.messages)
    std::cout << usb.catalog().get(m).name << ' ';
  std::cout << "\n\n";

  // --- What does each buy a use-case debugger? ---
  auto coverage_of_selection =
      [&](const std::vector<netlist::NetId>& flops) {
        std::vector<flow::MessageId> observable;
        for (const auto& sg : usb.interface_signals()) {
          if (netlist::coverage_of(sg, flops) ==
              netlist::SignalCoverage::kFull)
            observable.push_back(usb.message_of(sg.name));
        }
        return selection::flow_spec_coverage(stats, observable);
      };
  std::cout << "Flow specification coverage (Def. 7) of each selection:\n"
            << "  SigSeT   : " << coverage_of_selection(sigset.selected) * 100
            << "%\n"
            << "  PRNet    : " << coverage_of_selection(prnet.selected) * 100
            << "%\n"
            << "  InfoGain : " << infogain.coverage * 100 << "%\n";
  return 0;
}
