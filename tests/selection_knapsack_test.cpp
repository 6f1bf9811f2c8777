// knapsack_optimum against a brute-force oracle that scores every fitting
// subset the way InfoGainEngine::info_gain sums it and ranks them the way
// MessageSelector's exhaustive search does. Hand-picked gains pin the
// cases a flow-derived engine rarely produces: zero and absorbed
// contributions, and sums that only tie after rounding.

#include "selection/knapsack.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/rng.hpp"

namespace tracesel::selection {
namespace {

using Indices = std::vector<std::size_t>;

/// Highest gain, then the narrower width, then the smaller index vector.
Indices brute_force(const std::vector<std::uint32_t>& widths,
                    const std::vector<double>& gains, std::uint32_t capacity) {
  Indices best, current;
  double best_gain = 0.0;
  std::uint32_t best_width = 0;
  const auto walk = [&](auto& self, std::size_t from, std::uint32_t width,
                        double sum) -> void {
    for (std::size_t i = from; i < widths.size(); ++i) {
      if (width + widths[i] > capacity) continue;
      current.push_back(i);
      const double g = sum + gains[i];
      const std::uint32_t w = width + widths[i];
      if (best.empty() || g > best_gain ||
          (g == best_gain &&
           (w < best_width || (w == best_width && current < best)))) {
        best = current;
        best_gain = g;
        best_width = w;
      }
      self(self, i + 1, w, g);
      current.pop_back();
    }
  };
  walk(walk, 0, 0, 0.0);
  return best;
}

double sum_of(const std::vector<double>& gains, const Indices& picked) {
  double sum = 0.0;
  for (const std::size_t i : picked) sum += gains[i];
  return sum;
}

void expect_matches_oracle(const std::vector<std::uint32_t>& widths,
                           const std::vector<double>& gains,
                           std::uint32_t capacity) {
  const Indices want = brute_force(widths, gains, capacity);
  const Indices got = knapsack_optimum(widths, gains, capacity);
  EXPECT_EQ(got, want) << "capacity " << capacity;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sum_of(gains, got)),
            std::bit_cast<std::uint64_t>(sum_of(gains, want)));
}

Indices solve(const std::vector<std::uint32_t>& widths,
              const std::vector<double>& gains, std::uint32_t capacity) {
  return knapsack_optimum(widths, gains, capacity);
}

const double kUlp1 = std::ldexp(1.0, -52);  // the spacing of doubles at 1.0

TEST(KnapsackOptimum, TiedPairsPickTheLexicographicallySmallest) {
  // {0,3} and {1,2} both have gain 5 and width 4; every other fitting set
  // is lower.
  const std::vector<std::uint32_t> widths{1, 2, 2, 3};
  const std::vector<double> gains{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(knapsack_optimum(widths, gains, 4), (Indices{0, 3}));
  expect_matches_oracle(widths, gains, 4);
}

TEST(KnapsackOptimum, ZeroGainsPreferTheNarrowestSet) {
  // Adding a zero-gain message keeps the gain, so the narrower set wins;
  // a search over maximal sets only could not return it.
  EXPECT_EQ(solve({1, 1, 1}, {0.0, 0.0, 0.0}, 3), Indices{0});
  EXPECT_EQ(solve({1, 2, 1}, {0.0, 1.0, 0.0}, 4), Indices{1});
  for (std::uint32_t cap = 0; cap <= 6; ++cap)
    expect_matches_oracle({2, 1, 3, 1}, {0.0, 0.5, 0.0, 0.5}, cap);
}

TEST(KnapsackOptimum, AbsorbedGainsPreferTheNarrowerSet) {
  // 1.0 + 1e-17 rounds to 1.0: the wider set only ties.
  EXPECT_EQ(solve({1, 1}, {1e-17, 1.0}, 2), Indices{1});
  EXPECT_EQ(solve({1, 1}, {1.0, 1e-17}, 2), Indices{0});
}

TEST(KnapsackOptimum, RoundingTieAfterALargerPartialSum) {
  // 3u + 1 + 1 and 4u + 1 + 1 both round to 2 + 4u (u = ulp(1)), though
  // 4u > 3u before the additions: the lexicographically smaller {0,2,3}
  // must survive the larger partial sum of {1,...}.
  const std::vector<std::uint32_t> widths{1, 1, 1, 1};
  const std::vector<double> gains{3 * kUlp1, 4 * kUlp1, 1.0, 1.0};
  EXPECT_EQ(knapsack_optimum(widths, gains, 3), (Indices{0, 2, 3}));
  expect_matches_oracle(widths, gains, 3);
}

TEST(KnapsackOptimum, RoundingTieKeepsTheNarrowerSet) {
  // {1,2,3} (width 3) ties {0,2,3} (width 4) only after rounding, and its
  // partial sum 3u was the smaller one.
  const std::vector<std::uint32_t> widths{2, 1, 1, 1};
  const std::vector<double> gains{4 * kUlp1, 3 * kUlp1, 1.0, 1.0};
  EXPECT_EQ(knapsack_optimum(widths, gains, 4), (Indices{1, 2, 3}));
  expect_matches_oracle(widths, gains, 4);
}

TEST(KnapsackOptimum, NothingFitsOrCancelledIsEmpty) {
  EXPECT_TRUE(solve({3, 4}, {1.0, 2.0}, 2).empty());
  EXPECT_TRUE(solve({}, {}, 8).empty());
  const util::CancelToken cancel = util::CancelToken::make();
  cancel.cancel();
  const std::vector<std::uint32_t> widths{1, 1};
  const std::vector<double> gains{1.0, 2.0};
  EXPECT_TRUE(knapsack_optimum(widths, gains, 2, cancel).empty());
}

TEST(KnapsackOptimum, HugeCapacityTakesEveryItem) {
  // The table is sized by the items, not by the buffer: the widest
  // capacity a request can carry answers at once with every item.
  const std::vector<std::uint32_t> widths{3, 1, 4};
  const std::vector<double> gains{0.5, 0.25, 1.0};
  EXPECT_EQ(knapsack_optimum(widths, gains, UINT32_MAX), (Indices{0, 1, 2}));
  EXPECT_EQ(knapsack_optimum(widths, gains, 1'000'000'000),
            (Indices{0, 1, 2}));
}

TEST(KnapsackOptimum, MatchesBruteForceOnTieHeavyRandomInstances) {
  // Gains drawn from a small pool, so equal sums, zero gains and rounding
  // ties are common.
  const std::vector<double> pool{0.0,       1e-17,     kUlp1,     3 * kUlp1,
                                 4 * kUlp1, 0.1,       0.2,       0.3,
                                 0.5,       1.0,       1.0 / 3.0, 2.0 / 3.0};
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const std::size_t n = 1 + rng.index(10);
    std::vector<std::uint32_t> widths(n);
    std::vector<double> gains(n);
    for (std::size_t i = 0; i < n; ++i) {
      widths[i] = static_cast<std::uint32_t>(rng.between(1, 4));
      gains[i] = pool[rng.index(pool.size())];
    }
    for (std::uint32_t cap = 0; cap <= 4 * n + 1; ++cap)
      expect_matches_oracle(widths, gains, cap);
  }
}

}  // namespace
}  // namespace tracesel::selection
