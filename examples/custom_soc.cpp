// Bring-your-own-SoC: the full workflow on a design that is NOT the
// built-in T2 model — a little camera pipeline described inline in the
// .flow text format. Shows what a downstream team does with the library:
//   1. write flow collateral for their own IPs,
//   2. pick trace messages for their buffer width,
//   3. simulate a buggy silicon run at transaction level,
//   4. capture the trace and dump a waveform.

#include <fstream>
#include <iostream>

#include "flow/parser.hpp"
#include "selection/selector.hpp"
#include "soc/simulator.hpp"
#include "soc/trace_buffer.hpp"
#include "soc/vcd.hpp"

namespace {

constexpr const char* kCameraSoc = R"(
# Camera pipeline: ISP fetches frames over a sensor link; the encoder
# compresses them; the DMA engine writes to DRAM; all under a power manager
# that can veto activity.

message sensreq   6  ISP -> SENS          # frame request
message sensdata 18  SENS -> ISP beats 2  # pixel burst (2-beat)
subgroup sensdata frameid 5
message isprdy    2  ISP -> ENC
message encblk   14  ENC -> DMA
subgroup encblk blktag 4
message dmawr     8  DMA -> DRAM
message dmadone   2  DRAM -> DMA
message pwrgnt    3  PMU -> ISP

flow FrameCapture {
  state Idle initial
  state Asked
  state Bursting atomic
  state Ready
  state Done stop
  Idle -> Asked on sensreq
  Asked -> Bursting on sensdata
  Bursting -> Ready on isprdy
  Ready -> Done on encblk
}

flow DmaWrite {
  state Idle initial
  state Writing
  state Done stop
  Idle -> Writing on dmawr
  Writing -> Done on dmadone
}

flow PowerGrant {
  state Idle initial
  state Done stop
  Idle -> Done on pwrgnt
}
)";

}  // namespace

int main() {
  using namespace tracesel;

  // 1. Parse the collateral.
  const auto spec = flow::parse_flow_spec(kCameraSoc);
  std::cout << "Camera SoC: " << spec.flows.size() << " flows, "
            << spec.catalog.size() << " messages\n";

  // 2. Select messages for a 16-bit trace buffer.
  std::vector<const flow::Flow*> flows;
  for (const flow::Flow& f : spec.flows) flows.push_back(&f);
  const selection::MessageSelector selector(
      spec.catalog, flow::ProductStats::build(flow::make_instances(flows, 2)));
  selection::SelectorConfig cfg;
  cfg.buffer_width = 16;
  const auto sel = selector.select(cfg);
  std::cout << "Selected for 16 bits:";
  for (const auto m : sel.combination.messages)
    std::cout << ' ' << spec.catalog.get(m).name;
  for (const auto& pg : sel.packed)
    std::cout << ' ' << spec.catalog.get(pg.parent).name << '.'
              << pg.subgroup_name;
  std::cout << "  (gain " << sel.gain << ", coverage "
            << sel.coverage * 100 << "%, utilization "
            << sel.utilization() * 100 << "%)\n";

  // 3. Simulate a buggy run: the encoder drops blocks intermittently.
  soc::SocSimulator sim(spec.catalog, flows, 2);
  bug::Bug enc_drop;
  enc_drop.id = 1;
  enc_drop.effect = bug::BugEffect::kDropMessage;
  enc_drop.target = spec.catalog.require("encblk");
  enc_drop.trigger_session = 2;
  enc_drop.symptom = "HANG: encoder starved DMA";
  sim.inject(enc_drop);
  soc::SimOptions opt;
  opt.sessions = 4;
  const auto run = sim.run(opt);
  std::cout << "Simulation: " << run.messages.size() << " messages, "
            << (run.failed ? run.failure : std::string("clean")) << '\n';

  // 4. Capture through the configured buffer and dump a VCD.
  soc::TraceBuffer buffer(soc::TraceBufferConfig{16, 256});
  buffer.configure(spec.catalog, sel);
  for (const auto& tm : run.messages) buffer.record(tm);
  std::cout << "Trace buffer captured " << buffer.size() << " records ("
            << buffer.overwritten() << " overwritten)\n";

  const std::string vcd =
      soc::trace_to_vcd(spec.catalog, buffer.records(), "camera");
  std::ofstream("camera_trace.vcd") << vcd;
  std::cout << "Waveform written to camera_trace.vcd ("
            << vcd.size() << " bytes)\n";
  return 0;
}
