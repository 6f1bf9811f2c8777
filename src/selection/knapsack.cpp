#include "selection/knapsack.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/obs.hpp"

namespace tracesel::selection {

std::vector<std::size_t> knapsack_optimum(
    std::span<const std::uint32_t> widths, std::span<const double> gains,
    std::uint32_t capacity, const util::CancelToken& cancel) {
  const std::size_t n = widths.size();
  // No set is wider than every item together, so a wider buffer changes
  // nothing; clamping keeps the table O(n x sum of widths) whatever
  // capacity the caller passes.
  const std::size_t cap = std::min<std::size_t>(
      capacity, std::accumulate(widths.begin(), widths.end(), std::size_t{0}));
  OBS_COUNT("selection.knapsack.cells", n * (cap + 1));
  constexpr double kNoSet = -std::numeric_limits<double>::infinity();

  // best[w] = the highest running sum of any set of items first..n-1 with
  // width exactly w, every sum starting from `start`. A rounded addition is
  // monotone in its running sum, so keeping only the highest sum per width
  // is exact. One cell per width (not per capacity) keeps a narrower set
  // whose gain later ties a wider one through rounding.
  std::vector<double> best;
  const auto fill = [&](double start, std::size_t first, std::size_t width) {
    best.assign(width + 1, kNoSet);
    best[0] = start;
    for (std::size_t i = first; i < n; ++i) {
      if (cancel.cancelled()) return false;
      for (std::size_t w = width; w >= widths[i] && w > 0; --w)
        best[w] = std::max(best[w], best[w - widths[i]] + gains[i]);
    }
    return true;
  };

  if (!fill(0.0, 0, cap)) return {};
  double target = kNoSet;
  std::size_t target_width = 0;  // the narrowest width reaching target
  for (std::size_t w = 1; w <= cap; ++w) {
    if (best[w] > target) {
      target = best[w];
      target_width = w;
    }
  }
  if (target_width == 0) return {};

  // Walk up from the empty set, each time taking the smallest item after
  // which the later items can still fill the width left and reach the
  // target: the lexicographically smallest optimum.
  std::vector<std::size_t> picked;
  double sum = 0.0;
  std::size_t left = target_width;
  for (std::size_t i = 0; left > 0; ++i) {
    if (i == n) throw std::logic_error("knapsack_optimum: lost the optimum");
    if (widths[i] > left) continue;
    if (!fill(sum + gains[i], i + 1, left - widths[i])) return {};
    if (best[left - widths[i]] != target) continue;
    sum += gains[i];
    left -= widths[i];
    picked.push_back(i);
  }
  return picked;
}

Combination knapsack_combination(const flow::MessageCatalog& catalog,
                                 std::span<const flow::MessageId> candidates,
                                 std::span<const double> contributions,
                                 std::uint32_t capacity,
                                 const util::CancelToken& cancel) {
  std::vector<std::uint32_t> widths;
  std::vector<double> gains;
  for (const flow::MessageId m : candidates) {
    widths.push_back(catalog.get(m).trace_width());
    gains.push_back(m < contributions.size() ? contributions[m] : 0.0);
  }
  Combination best;
  for (const std::size_t i :
       knapsack_optimum(widths, gains, capacity, cancel)) {
    best.messages.push_back(candidates[i]);
    best.width += widths[i];
  }
  return best;
}

}  // namespace tracesel::selection
