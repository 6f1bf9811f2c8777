#pragma once
// Flow specification coverage (Def. 7): the visible states of a message are
// the product states reached by transitions labeled with it; the coverage of
// a message combination is |union of visible states| / |S|.

#include <span>
#include <vector>

#include "flow/interleaved_flow.hpp"
#include "flow/product_stats.hpp"

namespace tracesel::selection {

/// Product states reached by edges labeled with any selected message
/// (any index).
std::vector<flow::NodeId> visible_states(
    const flow::InterleavedFlow& u,
    std::span<const flow::MessageId> selected);

/// Def. 7 coverage in [0,1], counted on the product (the oracle).
double flow_spec_coverage(const flow::InterleavedFlow& u,
                          std::span<const flow::MessageId> selected);

/// Def. 7 coverage in [0,1] from the closed-form statistics; bit-identical
/// to the product count.
double flow_spec_coverage(const flow::ProductStats& stats,
                          std::span<const flow::MessageId> selected);

}  // namespace tracesel::selection
