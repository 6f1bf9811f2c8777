#include "selection/selector.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "selection/gain_memo.hpp"
#include "selection/knapsack.hpp"
#include "selection/parallel_selector.hpp"
#include "util/obs.hpp"

namespace tracesel::selection {

MessageSelector::MessageSelector(const flow::MessageCatalog& catalog,
                                 const flow::InterleavedFlow& u)
    : catalog_(&catalog), u_(&u), engine_(u) {
  for (const auto& e : u.edges()) {
    if (std::find(candidates_.begin(), candidates_.end(), e.label.message) ==
        candidates_.end())
      candidates_.push_back(e.label.message);
  }
  std::sort(candidates_.begin(), candidates_.end());
}

Combination MessageSelector::search_exhaustive(const SelectorConfig& config,
                                               bool maximal_only) const {
  std::vector<Combination> combos;
  {
    OBS_SPAN("selection.step1.enumerate");
    combos = maximal_only
                 ? enumerate_maximal_combinations(*catalog_, candidates_,
                                                  config.buffer_width,
                                                  config.max_combinations)
                 : enumerate_combinations(*catalog_, candidates_,
                                          config.buffer_width,
                                          config.max_combinations);
  }
  OBS_COUNT("selection.combinations", combos.size());
  if (combos.empty())
    throw std::runtime_error(
        "MessageSelector: no message fits the trace buffer");

  OBS_SPAN("selection.step2.score");
  const Combination* best = nullptr;
  double best_gain = -1.0;
  for (const Combination& c : combos) {
    const double g = engine_.info_gain(c.messages, config.kernel);
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
  return *best;
}

Combination MessageSelector::search_greedy(const SelectorConfig& config) const {
  OBS_SPAN("selection.search.greedy");
  Combination current;
  for (;;) {
    // Cooperative cancel between ascent steps: the combination built so
    // far is a valid (partial) greedy result.
    if (config.cancel.cancelled()) break;
    const flow::MessageId* best = nullptr;
    double best_gain = -1.0;
    std::uint32_t best_width = 0;
    for (const flow::MessageId& m : candidates_) {
      if (std::find(current.messages.begin(), current.messages.end(), m) !=
          current.messages.end())
        continue;
      const std::uint32_t w = catalog_->get(m).trace_width();
      if (current.width + w > config.buffer_width) continue;
      std::vector<flow::MessageId> trial = current.messages;
      trial.push_back(m);
      const double g = engine_.info_gain(trial, config.kernel);
      if (best == nullptr || g > best_gain ||
          (g == best_gain && w < best_width)) {
        best = &m;
        best_gain = g;
        best_width = w;
      }
    }
    if (best == nullptr) break;
    current.messages.push_back(*best);
    current.width += catalog_->get(*best).trace_width();
  }
  if (current.messages.empty()) {
    if (config.cancel.cancelled()) return current;  // empty partial
    throw std::runtime_error(
        "MessageSelector: no message fits the trace buffer");
  }
  std::sort(current.messages.begin(), current.messages.end());
  return current;
}

Combination MessageSelector::search_knapsack(
    const SelectorConfig& config) const {
  OBS_SPAN("selection.search.knapsack");
  std::vector<std::uint32_t> widths;
  std::vector<double> gains;
  for (const flow::MessageId m : candidates_) {
    widths.push_back(catalog_->get(m).trace_width());
    gains.push_back(engine_.message_contribution(m, config.kernel));
  }
  // Candidates are sorted, so ascending indices give sorted messages and
  // the gains add up in info_gain's order.
  Combination best;
  for (const std::size_t i : knapsack_optimum(widths, gains,
                                              config.buffer_width,
                                              config.cancel)) {
    best.messages.push_back(candidates_[i]);
    best.width += widths[i];
  }
  if (best.messages.empty() && !config.cancel.cancelled())
    throw std::runtime_error(
        "MessageSelector: no message fits the trace buffer");
  return best;  // empty: cancelled, a partial result
}

double MessageSelector::estimate_search_bytes(
    const SelectorConfig& config) const {
  // Number of fitting subsets via a counting knapsack DP over the candidate
  // widths — pure arithmetic on the candidate set, so every run of the same
  // spec reaches the same verdict (determinism of the budget decision).
  // Each materialized Combination costs roughly a vector header + a handful
  // of 4-byte ids; 64 bytes is the round, documented estimate.
  std::vector<double> dp(config.buffer_width + 1, 0.0);
  dp[0] = 1.0;
  for (flow::MessageId m : candidates_) {
    const std::uint32_t w = catalog_->get(m).trace_width();
    if (w == 0 || w > config.buffer_width) continue;
    for (std::uint32_t cap = config.buffer_width; cap >= w; --cap)
      dp[cap] += dp[cap - w];
  }
  double count = -1.0;  // exclude the empty set
  for (double c : dp) count += c;
  count = std::min(count, static_cast<double>(config.max_combinations));
  return std::max(count, 0.0) * 64.0;
}

Combination MessageSelector::search_beam(const SelectorConfig& config,
                                         std::size_t beam_width) const {
  OBS_SPAN("selection.search.beam");
  struct Entry {
    double gain = -1.0;
    Combination combo;
    std::size_t last = 0;  ///< index of the last candidate added
  };
  // The exhaustive search's strict total order, reused as the beam rank.
  const auto better = [](const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain > b.gain;
    if (a.combo.width != b.combo.width) return a.combo.width < b.combo.width;
    return a.combo.messages < b.combo.messages;
  };

  const std::size_t n = candidates_.size();
  std::vector<std::uint32_t> widths(n);
  for (std::size_t i = 0; i < n; ++i)
    widths[i] = catalog_->get(candidates_[i]).trace_width();

  std::vector<Entry> beam;
  for (std::size_t i = 0; i < n; ++i) {
    if (widths[i] > config.buffer_width) continue;
    Entry e;
    e.combo.messages = {candidates_[i]};
    e.combo.width = widths[i];
    e.last = i;
    e.gain = engine_.info_gain(e.combo.messages, config.kernel);
    beam.push_back(std::move(e));
  }

  Entry best;
  bool have_best = false;
  while (!beam.empty()) {
    std::sort(beam.begin(), beam.end(), better);
    if (beam.size() > beam_width) beam.resize(beam_width);
    for (const Entry& e : beam) {
      if (!have_best || better(e, best)) {
        best = e;
        have_best = true;
      }
    }
    if (config.cancel.cancelled()) break;  // best-so-far is the answer
    // Level-synchronous expansion: children extend with strictly larger
    // candidate indices, so no combination is generated twice.
    std::vector<Entry> next;
    for (const Entry& e : beam) {
      for (std::size_t i = e.last + 1; i < n; ++i) {
        if (e.combo.width + widths[i] > config.buffer_width) continue;
        Entry c;
        c.combo.messages = e.combo.messages;
        c.combo.messages.push_back(candidates_[i]);
        c.combo.width = e.combo.width + widths[i];
        c.last = i;
        c.gain = engine_.info_gain(c.combo.messages, config.kernel);
        next.push_back(std::move(c));
      }
    }
    beam = std::move(next);
  }
  if (!have_best) {
    if (config.cancel.cancelled()) return Combination{};  // empty partial
    throw std::runtime_error(
        "MessageSelector: no message fits the trace buffer");
  }
  return std::move(best.combo);
}

SelectionResult MessageSelector::finalize(Combination combination,
                                          const SelectorConfig& config,
                                          GainMemo* memo) const {
  SelectionResult result;
  result.buffer_width = config.buffer_width;
  result.combination = std::move(combination);

  result.gain_unpacked =
      memo ? memo->gain(engine_, result.combination.messages, config.kernel)
           : engine_.info_gain(result.combination.messages, config.kernel);
  result.coverage_unpacked =
      flow_spec_coverage(*u_, result.combination.messages);
  result.used_width = result.combination.width;

  if (config.packing) {
    OBS_SPAN("selection.step3.packing");
    PackingResult packing =
        pack_leftover(*catalog_, engine_, result.combination,
                      config.buffer_width, candidates_, memo, config.kernel);
    OBS_COUNT("selection.packed", packing.packed.size());
    result.packed = std::move(packing.packed);
    result.used_width += packing.width_added;
    result.gain = packing.gain_after;
  } else {
    result.gain = result.gain_unpacked;
  }
  result.coverage = flow_spec_coverage(*u_, result.observable());
  return result;
}

SelectionResult MessageSelector::select(const SelectorConfig& config) const {
  OBS_SPAN("selection.select");
  const bool searchable = is_sharded(config.mode);

  // Memory budget first — and before the parallel routing, so the
  // ParallelSelector's over-budget delegation back to this serial path
  // lands on the beam and cannot bounce back (no routing recursion).
  if (searchable && config.mem_budget_mb > 0 &&
      estimate_search_bytes(config) >
          static_cast<double>(config.mem_budget_mb) * (1u << 20)) {
    // 64 beam slots per budgeted MiB: deterministic, and each slot is a
    // bounded Combination, so the beam respects the budget by orders of
    // magnitude.
    const std::size_t beam_width =
        std::clamp<std::size_t>(config.mem_budget_mb * 64, 16, 1u << 16);
    const std::string note =
        "step2: beam-limited search (beam " + std::to_string(beam_width) +
        ") under the " + std::to_string(config.mem_budget_mb) +
        " MiB memory budget";
    OBS_COUNT("resilience.degradations", 1);
    Combination combo = search_beam(config, beam_width);
    if (combo.messages.empty()) {  // cancelled before anything was scored
      SelectionResult r;
      r.buffer_width = config.buffer_width;
      r.partial = true;
      r.explored_fraction = 0.0;
      r.degradation = note;
      return r;
    }
    const bool cancelled = config.cancel.cancelled();
    SelectionResult result = finalize(std::move(combo), config, nullptr);
    result.degradation = note;
    if (cancelled) {
      result.partial = true;
      result.explored_fraction = 0.0;
    }
    return result;
  }

  // The exhaustive/maximal search parallelizes cleanly (the engine is
  // const after construction); jobs != 1 routes it through the parallel
  // engine, which produces bit-identical results for every worker count.
  // Any resilience feature routes there too (even at jobs == 1): the
  // sharded wave engine is what implements cancellation granularity,
  // checkpoints, resume and shard budgets.
  const bool resilient = config.cancel.valid() ||
                         !config.checkpoint_path.empty() ||
                         config.resume_from != nullptr ||
                         config.shard_budget > 0;
  if (searchable && (config.jobs != 1 || resilient)) {
    return ParallelSelector(*this).select(config);
  }

  Combination combination;
  switch (config.mode) {
    case SearchMode::kExhaustive:
      combination = search_exhaustive(config, /*maximal_only=*/false);
      break;
    case SearchMode::kMaximal:
      combination = search_exhaustive(config, /*maximal_only=*/true);
      break;
    case SearchMode::kGreedy:
      combination = search_greedy(config);
      break;
    case SearchMode::kKnapsack:
      combination = search_knapsack(config);
      break;
  }
  const bool cancelled = config.cancel.cancelled();
  if (combination.messages.empty()) {
    // Only the cancel-aware searches return empty (they throw otherwise):
    // a well-formed empty partial result.
    SelectionResult result;
    result.buffer_width = config.buffer_width;
    result.partial = true;
    result.explored_fraction = 0.0;
    return result;
  }
  SelectionResult result = finalize(std::move(combination), config, nullptr);
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
  for (const auto& inst : u_->instances()) {
    if (std::find(flows.begin(), flows.end(), inst.flow) == flows.end())
      flows.push_back(inst.flow);
  }

  auto represented = [&](const flow::Flow* f) {
    for (const flow::MessageId m : result.observable()) {
      if (f->uses_message(m)) return true;
    }
    return false;
  };

  for (const flow::Flow* f : flows) {
    if (represented(f)) continue;

    // Best message of the dark flow: highest contribution, then narrowest.
    const flow::MessageId* best = nullptr;
    for (const flow::MessageId& m : f->messages()) {
      if (catalog_->get(m).trace_width() > config.buffer_width) continue;
      if (best == nullptr ||
          engine_.message_contribution(m, config.kernel) >
              engine_.message_contribution(*best, config.kernel) ||
          (engine_.message_contribution(m, config.kernel) ==
               engine_.message_contribution(*best, config.kernel) &&
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
    result.used_width = result.combination.width;
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
        const double g = engine_.message_contribution(m, config.kernel);
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
      result.used_width = result.combination.width;
    }
    result.combination.messages.push_back(*best);
    result.combination.width += need;
    result.used_width = result.combination.width;
    std::sort(result.combination.messages.begin(),
              result.combination.messages.end());
  }

  // Re-run Step 3 over the repaired combination and refresh the metrics.
  result.gain_unpacked =
      engine_.info_gain(result.combination.messages, config.kernel);
  result.coverage_unpacked =
      flow_spec_coverage(*u_, result.combination.messages);
  if (config.packing) {
    PackingResult packing =
        pack_leftover(*catalog_, engine_, result.combination,
                      config.buffer_width, candidates_, nullptr,
                      config.kernel);
    result.packed = std::move(packing.packed);
    result.used_width = result.combination.width + packing.width_added;
    result.gain = packing.gain_after;
  } else {
    result.packed.clear();
    result.gain = result.gain_unpacked;
  }
  result.coverage = flow_spec_coverage(*u_, result.observable());
  return result;
}

}  // namespace tracesel::selection
