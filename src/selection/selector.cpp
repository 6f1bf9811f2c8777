#include "selection/selector.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "selection/knapsack.hpp"
#include "util/obs.hpp"

namespace tracesel::selection {

MessageSelector::MessageSelector(const flow::MessageCatalog& catalog,
                                 flow::ProductStats stats)
    : catalog_(&catalog), stats_(std::move(stats)), engine_(stats_) {
  for (const flow::IndexedMessage& im : stats_.indexed_messages())
    candidates_.push_back(im.message);
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                    candidates_.end());
}

MessageSelector::MessageSelector(const flow::MessageCatalog& catalog,
                                 const flow::InterleavedFlow& u)
    : MessageSelector(catalog, flow::ProductStats::build(u.instances())) {}

Combination MessageSelector::search_exhaustive(const SelectorConfig& config,
                                               bool maximal_only) const {
  std::vector<Combination> combos;
  {
    OBS_SPAN("selection.step1.enumerate");
    combos = maximal_only
                 ? enumerate_maximal_combinations(
                       *catalog_, candidates_, config.buffer_width,
                       config.max_combinations, config.cancel)
                 : enumerate_combinations(*catalog_, candidates_,
                                          config.buffer_width,
                                          config.max_combinations,
                                          config.cancel);
  }
  OBS_COUNT("selection.combinations", combos.size());
  if (combos.empty() && !config.cancel.cancelled())
    throw std::runtime_error(
        "MessageSelector: no message fits the trace buffer");

  OBS_SPAN("selection.step2.score");
  const Combination* best = nullptr;
  double best_gain = -1.0;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    // Cooperative cancel every kCancelPollStride combinations: the best
    // of the scored prefix is a valid (partial) result.
    if (i % kCancelPollStride == 0 && config.cancel.cancelled()) break;
    const Combination& c = combos[i];
    const double g = engine_.info_gain(c.messages);
    // Highest gain wins; ties prefer the narrower combination (more room
    // for Step 3 packing), then lexicographic for determinism.
    const bool better =
        g > best_gain ||
        (g == best_gain && best != nullptr &&
         (c.width < best->width ||
          (c.width == best->width && c.messages < best->messages)));
    if (best == nullptr || better) {
      best = &c;
      best_gain = g;
    }
  }
  return best ? *best : Combination{};  // empty: cancelled before scoring
}

Combination MessageSelector::search_knapsack(
    const SelectorConfig& config) const {
  OBS_SPAN("selection.search.knapsack");
  Combination best =
      knapsack_combination(*catalog_, candidates_, engine_.contributions(),
                           config.buffer_width, config.cancel);
  if (best.messages.empty() && !config.cancel.cancelled())
    throw std::runtime_error(
        "MessageSelector: no message fits the trace buffer");
  return best;  // empty: cancelled, a partial result
}

SelectionResult MessageSelector::finalize(Combination combination,
                                          const SelectorConfig& config) const {
  SelectionResult result;
  result.buffer_width = config.buffer_width;
  result.combination = std::move(combination);

  result.gain_unpacked =
      engine_.info_gain(result.combination.messages);
  result.coverage_unpacked =
      flow_spec_coverage(stats_, result.combination.messages);
  result.used_width = result.combination.width;

  if (config.packing) {
    OBS_SPAN("selection.step3.packing");
    PackingResult packing =
        pack_leftover(*catalog_, engine_.contributions(), result.combination,
                      config.buffer_width, candidates_);
    OBS_COUNT("selection.packed", packing.packed.size());
    result.packed = std::move(packing.packed);
    result.used_width += packing.width_added;
    result.gain = packing.gain_after;
  } else {
    result.gain = result.gain_unpacked;
  }
  result.coverage = flow_spec_coverage(stats_, result.observable());
  return result;
}

SelectionResult MessageSelector::select(const SelectorConfig& config) const {
  OBS_SPAN("selection.select");
  Combination combination;
  switch (config.mode) {
    case SearchMode::kExhaustive:
      combination = search_exhaustive(config, /*maximal_only=*/false);
      break;
    case SearchMode::kMaximal:
      combination = search_exhaustive(config, /*maximal_only=*/true);
      break;
    case SearchMode::kKnapsack:
      combination = search_knapsack(config);
      break;
  }
  const bool cancelled = config.cancel.cancelled();
  if (cancelled) OBS_COUNT("resilience.cancelled_searches", 1);
  if (combination.messages.empty()) {
    // The searches return empty only when cancelled (they throw
    // otherwise): a well-formed empty partial result.
    SelectionResult result;
    result.buffer_width = config.buffer_width;
    result.partial = true;
    result.explored_fraction = 0.0;
    return result;
  }
  SelectionResult result = finalize(std::move(combination), config);
  if (cancelled) {
    result.partial = true;
    result.explored_fraction = 0.0;
  }
  return result;
}

SelectionResult MessageSelector::select_with_flow_constraint(
    const SelectorConfig& config) const {
  SelectionResult result = select(config);

  // Distinct participating flows of the interleaving.
  std::vector<const flow::Flow*> flows;
  for (const auto& inst : stats_.instances()) {
    if (std::find(flows.begin(), flows.end(), inst.flow) == flows.end())
      flows.push_back(inst.flow);
  }

  auto represented = [&](const flow::Flow* f) {
    for (const flow::MessageId m : result.observable()) {
      if (f->uses_message(m)) return true;
    }
    return false;
  };
  // Nothing dark: the search's own result stands (Step 3 runs once).
  if (std::all_of(flows.begin(), flows.end(), represented)) return result;

  for (const flow::Flow* f : flows) {
    if (represented(f)) continue;

    // Best message of the dark flow: highest contribution, then narrowest.
    const flow::MessageId* best = nullptr;
    for (const flow::MessageId& m : f->messages()) {
      if (catalog_->get(m).trace_width() > config.buffer_width) continue;
      if (best == nullptr ||
          engine_.message_contribution(m) >
              engine_.message_contribution(*best) ||
          (engine_.message_contribution(m) ==
               engine_.message_contribution(*best) &&
           catalog_->get(m).trace_width() <
               catalog_->get(*best).trace_width()))
        best = &m;
    }
    if (best == nullptr)
      throw std::runtime_error(
          "select_with_flow_constraint: flow '" + f->name() +
          "' has no message narrow enough for the buffer");
    const std::uint32_t need = catalog_->get(*best).trace_width();

    // Evict lowest-contribution messages whose flow keeps another
    // observable message, until the newcomer fits.
    // (Packed subgroups are dropped first: they are the cheapest evidence.)
    result.packed.clear();
    while (config.buffer_width - result.combination.width < need) {
      const auto obs = result.observable();
      flow::MessageId victim = flow::kInvalidMessage;
      double victim_gain = 0.0;
      for (const flow::MessageId m : result.combination.messages) {
        // Does m's flow keep representation without m?
        bool keeps = false;
        for (const flow::Flow* g : flows) {
          if (!g->uses_message(m)) continue;
          for (const flow::MessageId other : obs) {
            if (other != m && g->uses_message(other)) keeps = true;
          }
        }
        if (!keeps) continue;
        const double g = engine_.message_contribution(m);
        if (victim == flow::kInvalidMessage || g < victim_gain) {
          victim = m;
          victim_gain = g;
        }
      }
      if (victim == flow::kInvalidMessage)
        throw std::runtime_error(
            "select_with_flow_constraint: cannot make room for flow '" +
            f->name() + "' without darkening another flow");
      result.combination.messages.erase(
          std::find(result.combination.messages.begin(),
                    result.combination.messages.end(), victim));
      result.combination.width -= catalog_->get(victim).trace_width();
    }
    result.combination.messages.push_back(*best);
    result.combination.width += need;
    std::sort(result.combination.messages.begin(),
              result.combination.messages.end());
  }

  // Re-run Step 3 over the repaired combination and refresh the metrics;
  // the interruption flags stay those of the search.
  SelectionResult repaired = finalize(std::move(result.combination), config);
  repaired.partial = result.partial;
  repaired.explored_fraction = result.explored_fraction;
  return repaired;
}

}  // namespace tracesel::selection
