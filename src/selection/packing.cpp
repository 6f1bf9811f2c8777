#include "selection/packing.hpp"

#include <algorithm>
#include <stdexcept>

namespace tracesel::selection {

std::vector<flow::MessageId> observable_messages(
    const Combination& base, const std::vector<PackedGroup>& packed) {
  std::vector<flow::MessageId> out = base.messages;
  for (const PackedGroup& pg : packed) out.push_back(pg.parent);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

PackingResult pack_leftover(const flow::MessageCatalog& catalog,
                            std::span<const double> contributions,
                            const Combination& base,
                            std::uint32_t buffer_width,
                            const std::vector<flow::MessageId>& candidates) {
  if (base.width > buffer_width)
    throw std::invalid_argument("pack_leftover: base exceeds buffer width");
  const auto contribution = [&](flow::MessageId m) {
    return m < contributions.size() ? contributions[m] : 0.0;
  };

  PackingResult result;
  std::uint32_t leftover = buffer_width - base.width;
  std::vector<flow::MessageId> observable = base.messages;
  double current_gain = 0.0;
  for (const flow::MessageId m : observable) current_gain += contribution(m);

  for (;;) {
    // Every subgroup that fits, of a candidate not yet observable, is a
    // trial; its union gain extends the running sum by its parent's
    // contribution. Pick the highest; break ties toward the narrower
    // subgroup (leaves room for more packing).
    flow::MessageId best_parent = flow::kInvalidMessage;
    const flow::Subgroup* best = nullptr;
    double best_gain = current_gain;
    for (const flow::MessageId m : candidates) {
      if (std::find(observable.begin(), observable.end(), m) !=
          observable.end())
        continue;
      const double g = current_gain + contribution(m);
      for (const flow::Subgroup& sg : catalog.get(m).subgroups) {
        if (sg.width > leftover) continue;
        if (g > best_gain ||
            (best != nullptr && g == best_gain && sg.width < best->width)) {
          best_parent = m;
          best = &sg;
          best_gain = g;
        }
      }
    }
    // Stop once no subgroup strictly improves the gain: observing nothing
    // new is not worth trace bits.
    if (best == nullptr) break;

    result.packed.push_back(PackedGroup{best_parent, best->name, best->width});
    result.width_added += best->width;
    leftover -= best->width;
    observable.push_back(best_parent);
    current_gain = best_gain;
  }

  result.gain_after = current_gain;
  return result;
}

}  // namespace tracesel::selection
