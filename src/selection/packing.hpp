#pragma once
// Step 3 of the selection method (Sec. 3.3): packing the leftover trace
// buffer with message *subgroups*.
//
// The Step 2 winner may leave unused buffer bits. Wide messages that could
// not fit often contain narrow sub-fields (e.g. cputhreadid[6] inside
// dmusiidata[20] on OpenSPARC T2) that do fit. Observing any sub-field of a
// message reveals that the message occurred — at the flow level of
// abstraction that gives the subgroup the information-gain and coverage
// contribution of its parent message, at a fraction of the width cost.
// We greedily add the subgroup maximizing the information gain of the union
// until nothing fits, exactly the iteration the paper describes.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "selection/combination.hpp"

namespace tracesel::selection {

/// One subgroup admitted by packing.
struct PackedGroup {
  flow::MessageId parent = flow::kInvalidMessage;
  std::string subgroup_name;
  std::uint32_t width = 0;

  friend bool operator==(const PackedGroup&, const PackedGroup&) = default;
};

/// Outcome of Step 3 on top of a Step 2 combination.
struct PackingResult {
  std::vector<PackedGroup> packed;
  std::uint32_t width_added = 0;
  double gain_after = 0.0;  ///< I(X;Y) of base union packed parents
};

/// Packs subgroups of messages not in `base` into the leftover
/// buffer_width - base.width bits. Only subgroups of `candidates` (the
/// participating flows' alphabet — pass MessageSelector::candidates()) are
/// considered, and only while each addition strictly increases the
/// information gain; tracing bits that observe nothing is worse than
/// leaving them free. A set's gain is the sum of its `contributions`
/// (indexed by MessageId, 0.0 past the end) in observation order — base
/// messages first, then packed parents — the summation
/// InfoGainEngine::info_gain runs, so gain_after has the same bits.
/// Ties go to the narrower subgroup, then to the earlier candidate.
/// Throws std::invalid_argument if the base already exceeds the buffer.
PackingResult pack_leftover(const flow::MessageCatalog& catalog,
                            std::span<const double> contributions,
                            const Combination& base,
                            std::uint32_t buffer_width,
                            const std::vector<flow::MessageId>& candidates);

/// The message ids observable after packing: base messages plus parents of
/// packed subgroups. This is what coverage/localization should be computed
/// over for a packed selection.
std::vector<flow::MessageId> observable_messages(
    const Combination& base, const std::vector<PackedGroup>& packed);

}  // namespace tracesel::selection
