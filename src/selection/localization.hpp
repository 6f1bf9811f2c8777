#pragma once
// Path localization (Sec. 5.2): given an observed trace-buffer content (the
// projection of a buggy execution onto the traced messages), how small a
// fraction of the interleaved flow's executions remains consistent with it?
// Fewer consistent paths = tighter localization = less debug work.
//
// localize() assumes a perfect capture; localize_robust() is the hardened
// variant for lossy channels: it screens the observed projection against
// the selected set, falls back to the longest consistent prefix when
// channel faults (drops, reordering, corruption) make the full projection
// path-inconsistent, and reports a confidence weight instead of asserting
// a unique answer.

#include <span>
#include <vector>

#include "flow/interleaved_flow.hpp"
#include "flow/product_grid.hpp"
#include "util/result.hpp"

namespace tracesel::selection {

struct LocalizationResult {
  double total_paths = 0.0;
  double consistent_paths = 0.0;
  /// consistent/total, in [0,1]; the paper reports this as a percentage
  /// ("we needed to explore no more than 6.11% of interleaved flow paths").
  double fraction = 0.0;
};

/// Counts executions of `grid` whose projection onto `selected` starts
/// with `observed`. `observed` must only mention selected messages.
LocalizationResult localize(const flow::ProductGrid& grid,
                            std::span<const flow::MessageId> selected,
                            const std::vector<flow::IndexedMessage>& observed);
/// The same count on u's instances' grid. Kept for callers (the
/// benchmark) that still hold the materialized product.
LocalizationResult localize(const flow::InterleavedFlow& u,
                            std::span<const flow::MessageId> selected,
                            const std::vector<flow::IndexedMessage>& observed);

/// Localization under a degraded capture. The candidate-path set is sized
/// from whatever prefix of the (screened) observation is still consistent
/// with at least one execution; confidence reflects how much of the
/// observation actually supported the answer.
struct RobustLocalizationResult {
  LocalizationResult result;
  /// observed_used / observed_total, scaled to [0,1]; 1.0 = the entire
  /// observed projection was consistent (clean-capture behaviour), 0.0 = no
  /// ordering evidence survived.
  double confidence = 1.0;
  std::size_t observed_total = 0;    ///< records offered by the caller
  std::size_t observed_screened = 0; ///< after dropping non-selected ids
  std::size_t observed_used = 0;     ///< longest consistent prefix length
  /// True when any screening or prefix back-off was needed.
  bool degraded = false;
  /// True when the observation carried no usable ordering evidence at all
  /// (the localization then degenerates to "all paths possible").
  bool unusable = false;
};

/// Never throws on damaged observations; errs only on structural misuse
/// (an interleaving with no paths).
util::Result<RobustLocalizationResult> localize_robust(
    const flow::ProductGrid& grid,
    std::span<const flow::MessageId> selected,
    const std::vector<flow::IndexedMessage>& observed);

}  // namespace tracesel::selection
