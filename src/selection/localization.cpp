#include "selection/localization.hpp"

#include <algorithm>

namespace tracesel::selection {

LocalizationResult localize(
    const flow::ProductGrid& grid,
    std::span<const flow::MessageId> selected,
    const std::vector<flow::IndexedMessage>& observed) {
  LocalizationResult r;
  r.total_paths = grid.count_paths();
  const std::vector<flow::MessageId> sel(selected.begin(), selected.end());
  r.consistent_paths = grid.count_consistent_paths(sel, observed);
  r.fraction = r.total_paths > 0.0 ? r.consistent_paths / r.total_paths : 0.0;
  return r;
}

LocalizationResult localize(
    const flow::InterleavedFlow& u,
    std::span<const flow::MessageId> selected,
    const std::vector<flow::IndexedMessage>& observed) {
  return localize(flow::ProductGrid::build(u.instances()), selected, observed);
}

util::Result<RobustLocalizationResult> localize_robust(
    const flow::ProductGrid& grid,
    std::span<const flow::MessageId> selected,
    const std::vector<flow::IndexedMessage>& observed) {
  RobustLocalizationResult out;
  out.observed_total = observed.size();

  const double total_paths = grid.count_paths();
  if (total_paths <= 0.0) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "localize_robust: interleaving has no executions"};
  }

  // Screen: corruption can leave record ids outside the selected set (the
  // strict counter throws on those); they carry no ordering evidence here.
  const std::vector<flow::MessageId> sel(selected.begin(), selected.end());
  std::vector<flow::IndexedMessage> screened;
  screened.reserve(observed.size());
  for (const flow::IndexedMessage& im : observed) {
    if (std::find(sel.begin(), sel.end(), im.message) != sel.end())
      screened.push_back(im);
  }
  out.observed_screened = screened.size();
  out.degraded = screened.size() != observed.size();

  const auto count = [&](std::size_t prefix_len) {
    const std::vector<flow::IndexedMessage> prefix(
        screened.begin(),
        screened.begin() + static_cast<std::ptrdiff_t>(prefix_len));
    return grid.count_consistent_paths(sel, prefix);
  };

  // Longest consistent prefix. Consistency is monotone: extending the
  // prefix can only shrink the consistent-path set, so once a prefix
  // counts zero every extension does too — binary search applies.
  double consistent = count(screened.size());
  std::size_t used = screened.size();
  if (consistent <= 0.0 && !screened.empty()) {
    out.degraded = true;
    std::size_t lo = 0, hi = screened.size();  // count(lo) > 0 invariant
    // The empty prefix admits every execution: count(0) == total_paths.
    double lo_count = total_paths;
    while (lo + 1 < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const double c = count(mid);
      if (c > 0.0) {
        lo = mid;
        lo_count = c;
      } else {
        hi = mid;
      }
    }
    used = lo;
    consistent = lo_count;
  }
  out.observed_used = used;

  out.result.total_paths = total_paths;
  out.result.consistent_paths = consistent;
  out.result.fraction = consistent / total_paths;

  out.confidence =
      observed.empty()
          ? 0.0
          : static_cast<double>(used) / static_cast<double>(observed.size());
  out.unusable = used == 0 && !observed.empty();
  return out;
}

}  // namespace tracesel::selection
