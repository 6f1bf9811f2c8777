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
                            const InfoGainEngine& engine,
                            const Combination& base,
                            std::uint32_t buffer_width,
                            const std::vector<flow::MessageId>& candidates) {
  if (base.width > buffer_width)
    throw std::invalid_argument("pack_leftover: base exceeds buffer width");

  PackingResult result;
  std::uint32_t leftover = buffer_width - base.width;
  std::vector<flow::MessageId> observable = base.messages;
  double current_gain = engine.info_gain(observable);

  // Candidate pool: every subgroup of a candidate message whose parent is
  // not yet observable.
  struct Candidate {
    flow::MessageId parent;
    const flow::Subgroup* sg;
  };
  auto collect = [&] {
    std::vector<Candidate> pool;
    for (flow::MessageId m : candidates) {
      if (std::find(observable.begin(), observable.end(), m) !=
          observable.end())
        continue;
      for (const flow::Subgroup& sg : catalog.get(m).subgroups) {
        if (sg.width <= leftover) pool.push_back(Candidate{m, &sg});
      }
    }
    return pool;
  };

  for (;;) {
    const auto pool = collect();
    if (pool.empty()) break;

    // Pick the candidate maximizing gain of the union; break ties toward
    // the narrower subgroup (leaves room for more packing).
    const Candidate* best = nullptr;
    double best_gain = current_gain;
    for (const Candidate& c : pool) {
      std::vector<flow::MessageId> trial = observable;
      trial.push_back(c.parent);
      const double g = engine.info_gain(trial);
      const bool better =
          g > best_gain ||
          (best != nullptr && g == best_gain && c.sg->width < best->sg->width);
      if (better) {
        best = &c;
        best_gain = g;
      }
    }
    // Stop once no subgroup strictly improves the gain: observing nothing
    // new is not worth trace bits.
    if (best == nullptr) break;

    result.packed.push_back(
        PackedGroup{best->parent, best->sg->name, best->sg->width});
    result.width_added += best->sg->width;
    leftover -= best->sg->width;
    observable.push_back(best->parent);
    current_gain = best_gain;
  }

  result.gain_after = current_gain;
  return result;
}

}  // namespace tracesel::selection
