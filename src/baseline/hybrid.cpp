#include "baseline/hybrid.hpp"

#include "baseline/sigset.hpp"

namespace tracesel::baseline {

HybridResult select_hybrid(const flow::MessageCatalog& catalog,
                           const flow::ProductStats& stats,
                           const netlist::Netlist& netlist,
                           const HybridOptions& options) {
  HybridResult result;

  // Phase 1: application-level messages first.
  const selection::MessageSelector selector(catalog, stats);
  selection::SelectorConfig cfg;
  cfg.buffer_width = options.buffer_width;
  cfg.packing = options.packing;
  result.messages = selector.select(cfg);
  result.used_width = result.messages.used_width;

  // Phase 2: leftover bits go to SRR-greedy flop selection.
  const std::uint32_t leftover =
      options.buffer_width - result.messages.used_width;
  if (leftover > 0) {
    SigSeTOptions srr_opt;
    srr_opt.budget_bits = leftover;
    srr_opt.sim_cycles = options.sim_cycles;
    srr_opt.seed = options.seed;
    const auto srr = select_sigset(netlist, srr_opt);
    result.extra_flops = srr.selected;
    result.srr = srr.srr;
    result.used_width +=
        static_cast<std::uint32_t>(result.extra_flops.size());
  }
  return result;
}

}  // namespace tracesel::baseline
