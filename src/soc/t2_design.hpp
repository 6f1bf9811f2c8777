#pragma once
// Transaction-level model of the OpenSPARC T2 flows used in the paper's
// case studies (Table 1):
//
//   PIOR (6 states, 5 messages) — programmed-IO read    NCU/DMU/SIU
//   PIOW (3 states, 2 messages) — programmed-IO write   NCU/DMU
//   NCUU (4 states, 3 messages) — NCU upstream          NCU/CCX/MCU
//   NCUD (3 states, 2 messages) — NCU downstream        CCX/NCU
//   Mon  (6 states, 5 messages) — Mondo interrupt       DMU/SIU/NCU
//
// Message names follow the paper where it names them (dmusiidata with its
// cputhreadid subgroup, siincu, piowcrd, reqtot, grant, mondoacknack —
// Table 7 / Sec. 3.3); the remaining names and all bit widths are modeled
// on the T2 microarchitecture spec at a plausible granularity. The
// selection algorithm consumes only the DAGs and the widths, so these
// stand in faithfully for the RTL signals the authors monitored.

#include <array>
#include <memory>
#include <mutex>

#include "flow/flow.hpp"
#include "flow/message.hpp"
#include "soc/ip.hpp"

namespace tracesel::soc {

class ScenarioModel;

/// Immutable bundle of the T2 message catalog and the five flows, plus one
/// lazily built ScenarioModel per usage scenario. Neither copyable nor
/// movable: the models point into the design's flows.
class T2Design {
 public:
  T2Design();
  ~T2Design();
  T2Design(const T2Design&) = delete;
  T2Design& operator=(const T2Design&) = delete;

  const flow::MessageCatalog& catalog() const { return catalog_; }

  const flow::Flow& pior() const { return pior_; }
  const flow::Flow& piow() const { return piow_; }
  const flow::Flow& ncuu() const { return ncuu_; }
  const flow::Flow& ncud() const { return ncud_; }
  const flow::Flow& mondo() const { return mondo_; }

  // Extension flows (Sec. 5.7 references DMA reads gating interrupt
  // generation; the paper's collateral contains DMA flows even though
  // Table 1's three scenarios do not exercise them).
  const flow::Flow& dmar() const { return dmar_; }
  const flow::Flow& dmaw() const { return dmaw_; }

  /// Flow lookup by Table 1 short name ("PIOR", "PIOW", "NCUU", "NCUD",
  /// "Mon"); throws std::out_of_range otherwise.
  const flow::Flow& flow_by_name(std::string_view name) const;

  /// The model of usage scenario `scenario_id` (scenario_by_id's 1..4):
  /// built on the first call, from whichever thread makes it, and shared
  /// by every later call for the design's lifetime. Throws
  /// std::out_of_range for other ids.
  const ScenarioModel& scenario_model(int scenario_id) const;

  // --- message ids, grouped by flow ---
  // PIO read
  flow::MessageId ncupior, dmurd, siurtn, dmuncud, piordcrd;
  // PIO write
  flow::MessageId ncupiow, piowcrd;
  // NCU upstream
  flow::MessageId ncuupreq, ccxgnt, ncuupd;
  // NCU downstream
  flow::MessageId ccxdreq, ncudack;
  // Mondo interrupt
  flow::MessageId reqtot, grant, dmusiidata, siincu, mondoacknack;
  // DMA read / write (extension flows)
  flow::MessageId dmardreq, siumcurd, mcurdata, dmardone;
  flow::MessageId dmawrreq, siumcuwr, dmawrack;

 private:
  // Construction helpers; build_catalog also assigns the id members (which
  // are declared before catalog_, so they are assignable by then).
  static flow::MessageCatalog build_catalog(T2Design& d);
  static flow::Flow build_pior(const T2Design& d);
  static flow::Flow build_piow(const T2Design& d);
  static flow::Flow build_ncuu(const T2Design& d);
  static flow::Flow build_ncud(const T2Design& d);
  static flow::Flow build_mondo(const T2Design& d);
  static flow::Flow build_dmar(const T2Design& d);
  static flow::Flow build_dmaw(const T2Design& d);

  flow::MessageCatalog catalog_;
  flow::Flow pior_, piow_, ncuu_, ncud_, mondo_, dmar_, dmaw_;

  struct ModelSlot {
    std::once_flag built;
    std::unique_ptr<ScenarioModel> model;
  };
  mutable std::array<ModelSlot, 4> models_;  ///< by scenario id - 1
};

}  // namespace tracesel::soc
