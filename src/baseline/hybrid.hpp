#pragma once
// Hybrid trace configuration — a future-work direction the paper's
// contrast implies: spend the trace buffer primarily on application-level
// messages (for use-case debug), then give whatever bits remain to
// SRR-greedy flip-flop selection on the gate-level netlist (for low-level
// waveform reconstruction around the message events). Message-first order
// matters: flow coverage is the paper's demonstrated priority; the SRR
// bits are a bonus, not a competitor.

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "selection/selector.hpp"

namespace tracesel::baseline {

struct HybridOptions {
  std::uint32_t buffer_width = 32;
  bool packing = true;                ///< Step 3 before handing bits to SRR
  std::size_t sim_cycles = 16;        ///< golden window for SRR evaluation
  std::uint64_t seed = 7;
};

struct HybridResult {
  selection::SelectionResult messages;    ///< application-level selection
  std::vector<netlist::NetId> extra_flops;///< SRR-chosen flops in leftover
  double srr = 0.0;                       ///< SRR of the extra flops
  std::uint32_t used_width = 0;           ///< messages + flop bits

  double utilization(std::uint32_t buffer_width) const {
    return buffer_width
               ? static_cast<double>(used_width) / buffer_width
               : 0.0;
  }
};

/// Runs message selection on the interleaving's statistics, then fills
/// the leftover bits with greedy-SRR flops from `netlist` (1 bit per flop).
HybridResult select_hybrid(const flow::MessageCatalog& catalog,
                           const flow::ProductStats& stats,
                           const netlist::Netlist& netlist,
                           const HybridOptions& options = {});

}  // namespace tracesel::baseline
