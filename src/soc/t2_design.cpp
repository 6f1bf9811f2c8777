#include "soc/t2_design.hpp"

#include <stdexcept>
#include <string>

#include "flow/flow_builder.hpp"
#include "soc/scenario.hpp"
#include "soc/scenario_model.hpp"

namespace tracesel::soc {

using flow::FlowBuilder;
using flow::Message;
using flow::Subgroup;

flow::MessageCatalog T2Design::build_catalog(T2Design& d) {
  flow::MessageCatalog cat;

  // PIO read (NCU -> DMU -> SIU and back). Request and data-return carry
  // full command/payload content and are wide; credits are narrow.
  d.ncupior = cat.add("ncupior", 10, "NCU", "DMU");
  d.dmurd = cat.add("dmurd", 6, "DMU", "SIU");
  d.siurtn = cat.add("siurtn", 9, "SIU", "DMU");
  d.dmuncud = cat.add(Message{"dmuncud", 16, "DMU", "NCU",
                              {Subgroup{"piorstat", 7}}});
  d.piordcrd = cat.add("piordcrd", 4, "DMU", "NCU");

  // PIO write (NCU -> DMU, credit back).
  d.ncupiow = cat.add("ncupiow", 14, "NCU", "DMU");
  d.piowcrd = cat.add("piowcrd", 4, "DMU", "NCU");

  // NCU upstream (NCU -> CCX toward the cores).
  d.ncuupreq = cat.add("ncuupreq", 16, "NCU", "CCX");
  d.ccxgnt = cat.add("ccxgnt", 5, "CCX", "NCU");
  d.ncuupd = cat.add(Message{"ncuupd", 16, "NCU", "CCX",
                             {Subgroup{"upd_tid", 6}}});

  // NCU downstream (CCX -> NCU from the cores / MCU side).
  d.ccxdreq = cat.add(Message{"ccxdreq", 17, "CCX", "NCU",
                              {Subgroup{"dreq_tid", 5}}});
  d.ncudack = cat.add("ncudack", 4, "NCU", "CCX");

  // Mondo interrupt (DMU -> SIU -> NCU, ack back to DMU). dmusiidata is
  // the paper's 20-bit example with the 6-bit cputhreadid subgroup
  // (Sec. 3.3 / Sec. 5.7).
  d.reqtot = cat.add("reqtot", 3, "DMU", "SIU");
  d.grant = cat.add("grant", 3, "SIU", "DMU");
  d.dmusiidata = cat.add(Message{"dmusiidata", 20, "DMU", "SIU",
                                 {Subgroup{"cputhreadid", 6},
                                  Subgroup{"mondopayld", 8}}});
  d.siincu = cat.add("siincu", 4, "SIU", "NCU");
  d.mondoacknack = cat.add("mondoacknack", 2, "NCU", "DMU");

  // DMA read (DMU -> SIU -> MCU and back). Sec. 5.7's root-cause analysis
  // checks for "prior DMA read messages" before an interrupt may fire.
  d.dmardreq = cat.add("dmardreq", 12, "DMU", "SIU");
  d.siumcurd = cat.add("siumcurd", 10, "SIU", "MCU");
  d.mcurdata = cat.add(Message{"mcurdata", 16, "MCU", "SIU",
                               {Subgroup{"rdtag", 5}}});
  d.dmardone = cat.add("dmardone", 3, "SIU", "DMU");

  // DMA write.
  d.dmawrreq = cat.add("dmawrreq", 12, "DMU", "SIU");
  d.siumcuwr = cat.add("siumcuwr", 14, "SIU", "MCU");
  d.dmawrack = cat.add("dmawrack", 3, "MCU", "DMU");

  return cat;
}

flow::Flow T2Design::build_pior(const T2Design& d) {
  FlowBuilder b("PIOR");
  b.state("Idle", FlowBuilder::kInitial)
      .state("Issued")
      .state("Fetch")
      .state("Return", FlowBuilder::kAtomic)
      .state("DataRdy")
      .state("Done", FlowBuilder::kStop)
      .transition("Idle", d.ncupior, "Issued")
      .transition("Issued", d.dmurd, "Fetch")
      .transition("Fetch", d.siurtn, "Return")
      .transition("Return", d.dmuncud, "DataRdy")
      .transition("DataRdy", d.piordcrd, "Done");
  return b.build(d.catalog_);
}

flow::Flow T2Design::build_piow(const T2Design& d) {
  FlowBuilder b("PIOW");
  b.state("Idle", FlowBuilder::kInitial)
      .state("Issued")
      .state("Done", FlowBuilder::kStop)
      .transition("Idle", d.ncupiow, "Issued")
      .transition("Issued", d.piowcrd, "Done");
  return b.build(d.catalog_);
}

flow::Flow T2Design::build_ncuu(const T2Design& d) {
  FlowBuilder b("NCUU");
  b.state("Idle", FlowBuilder::kInitial)
      .state("Req")
      .state("Gnt", FlowBuilder::kAtomic)
      .state("Done", FlowBuilder::kStop)
      .transition("Idle", d.ncuupreq, "Req")
      .transition("Req", d.ccxgnt, "Gnt")
      .transition("Gnt", d.ncuupd, "Done");
  return b.build(d.catalog_);
}

flow::Flow T2Design::build_ncud(const T2Design& d) {
  FlowBuilder b("NCUD");
  b.state("Idle", FlowBuilder::kInitial)
      .state("Req")
      .state("Done", FlowBuilder::kStop)
      .transition("Idle", d.ccxdreq, "Req")
      .transition("Req", d.ncudack, "Done");
  return b.build(d.catalog_);
}

flow::Flow T2Design::build_mondo(const T2Design& d) {
  FlowBuilder b("Mon");
  b.state("Idle", FlowBuilder::kInitial)
      .state("Req")
      .state("Granted")
      .state("Xfer", FlowBuilder::kAtomic)
      .state("Delivered")
      .state("Done", FlowBuilder::kStop)
      .transition("Idle", d.reqtot, "Req")
      .transition("Req", d.grant, "Granted")
      .transition("Granted", d.dmusiidata, "Xfer")
      .transition("Xfer", d.siincu, "Delivered")
      .transition("Delivered", d.mondoacknack, "Done");
  return b.build(d.catalog_);
}

flow::Flow T2Design::build_dmar(const T2Design& d) {
  FlowBuilder b("DMAR");
  b.state("Idle", FlowBuilder::kInitial)
      .state("Req")
      .state("Fwd")
      .state("Data", FlowBuilder::kAtomic)
      .state("Done", FlowBuilder::kStop)
      .transition("Idle", d.dmardreq, "Req")
      .transition("Req", d.siumcurd, "Fwd")
      .transition("Fwd", d.mcurdata, "Data")
      .transition("Data", d.dmardone, "Done");
  return b.build(d.catalog_);
}

flow::Flow T2Design::build_dmaw(const T2Design& d) {
  FlowBuilder b("DMAW");
  b.state("Idle", FlowBuilder::kInitial)
      .state("Req")
      .state("Fwd", FlowBuilder::kAtomic)
      .state("Done", FlowBuilder::kStop)
      .transition("Idle", d.dmawrreq, "Req")
      .transition("Req", d.siumcuwr, "Fwd")
      .transition("Fwd", d.dmawrack, "Done");
  return b.build(d.catalog_);
}

T2Design::T2Design()
    : catalog_(build_catalog(*this)),
      pior_(build_pior(*this)),
      piow_(build_piow(*this)),
      ncuu_(build_ncuu(*this)),
      ncud_(build_ncud(*this)),
      mondo_(build_mondo(*this)),
      dmar_(build_dmar(*this)),
      dmaw_(build_dmaw(*this)) {}

T2Design::~T2Design() = default;

const flow::Flow& T2Design::flow_by_name(std::string_view name) const {
  if (name == "PIOR") return pior_;
  if (name == "PIOW") return piow_;
  if (name == "NCUU") return ncuu_;
  if (name == "NCUD") return ncud_;
  if (name == "Mon") return mondo_;
  if (name == "DMAR") return dmar_;
  if (name == "DMAW") return dmaw_;
  throw std::out_of_range("T2Design: unknown flow '" + std::string(name) +
                          "'");
}

const ScenarioModel& T2Design::scenario_model(int scenario_id) const {
  if (scenario_id < 1 || scenario_id > static_cast<int>(models_.size()))
    throw std::out_of_range("T2Design: no scenario " +
                            std::to_string(scenario_id));
  ModelSlot& slot = models_[static_cast<std::size_t>(scenario_id - 1)];
  std::call_once(slot.built, [&] {
    const Scenario scenario = scenario_by_id(scenario_id);
    slot.model = std::make_unique<ScenarioModel>(
        catalog_, scenario_flows(*this, scenario),
        scenario.instances_per_flow);
  });
  return *slot.model;
}

}  // namespace tracesel::soc
