#include "selection/combination.hpp"

#include <algorithm>
#include <stdexcept>

namespace tracesel::selection {

std::uint32_t combination_width(const flow::MessageCatalog& catalog,
                                std::span<const flow::MessageId> messages) {
  std::uint32_t w = 0;
  for (flow::MessageId m : messages) w += catalog.get(m).trace_width();
  return w;
}

namespace {

struct EnumState {
  const flow::MessageCatalog& catalog;
  std::span<const flow::MessageId> candidates;
  std::uint32_t budget;
  std::size_t max_results;
  bool maximal_only;
  const util::CancelToken& cancel;
  std::size_t visited = 0;
  bool stopped = false;
  std::vector<flow::MessageId> current;
  std::uint32_t current_width = 0;
  std::vector<Combination>* out;
};

/// True iff no candidate outside `chosen_prefix_end` could still be added.
bool is_maximal(const EnumState& st) {
  for (flow::MessageId m : st.candidates) {
    if (std::find(st.current.begin(), st.current.end(), m) !=
        st.current.end())
      continue;
    if (st.current_width + st.catalog.get(m).trace_width() <= st.budget)
      return false;
  }
  return true;
}

void enumerate(EnumState& st, std::size_t next) {
  if (st.visited++ % kCancelPollStride == 0 && st.cancel.cancelled()) {
    st.stopped = true;
    return;
  }
  if (!st.current.empty()) {
    if (!st.maximal_only || is_maximal(st)) {
      if (st.out->size() >= st.max_results)
        throw std::length_error(
            "enumerate_combinations: result cap exceeded; use the "
            "knapsack search for large message sets");
      Combination c{st.current, st.current_width};
      std::sort(c.messages.begin(), c.messages.end());
      st.out->push_back(std::move(c));
    }
  }
  for (std::size_t i = next; i < st.candidates.size(); ++i) {
    const flow::MessageId m = st.candidates[i];
    const std::uint32_t w = st.catalog.get(m).trace_width();
    if (st.current_width + w > st.budget) continue;
    st.current.push_back(m);
    st.current_width += w;
    enumerate(st, i + 1);
    st.current.pop_back();
    st.current_width -= w;
    if (st.stopped) return;
  }
}

std::vector<Combination> run(const flow::MessageCatalog& catalog,
                             std::span<const flow::MessageId> candidates,
                             std::uint32_t budget, std::size_t max_results,
                             bool maximal_only,
                             const util::CancelToken& cancel) {
  // Reject duplicate candidates up front — a set semantics violation.
  std::vector<flow::MessageId> sorted(candidates.begin(), candidates.end());
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    throw std::invalid_argument(
        "enumerate_combinations: duplicate candidate message");

  std::vector<Combination> out;
  EnumState st{catalog, candidates, budget, max_results, maximal_only, cancel,
               0,       false,      {},     0,           &out};
  enumerate(st, 0);
  return out;
}

}  // namespace

std::vector<Combination> enumerate_combinations(
    const flow::MessageCatalog& catalog,
    std::span<const flow::MessageId> candidates, std::uint32_t budget,
    std::size_t max_results, const util::CancelToken& cancel) {
  return run(catalog, candidates, budget, max_results, /*maximal_only=*/false,
             cancel);
}

std::vector<Combination> enumerate_maximal_combinations(
    const flow::MessageCatalog& catalog,
    std::span<const flow::MessageId> candidates, std::uint32_t budget,
    std::size_t max_results, const util::CancelToken& cancel) {
  return run(catalog, candidates, budget, max_results, /*maximal_only=*/true,
             cancel);
}

}  // namespace tracesel::selection
