#pragma once
// The differential checks over a materialized InterleavedFlow: the
// closed-form statistics (flow::ProductStats) must equal counts taken on
// the product, and the product's histograms and the state grid's DPs
// (flow::ProductGrid) must equal the memoized oracle of
// product_oracle.hpp, bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "flow/execution.hpp"
#include "flow/interleaved_flow.hpp"
#include "flow/product_grid.hpp"
#include "flow/product_stats.hpp"
#include "selection/coverage.hpp"
#include "selection/info_gain.hpp"
#include "product_oracle.hpp"
#include "util/rng.hpp"

namespace tracesel::test {

inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Checks ProductStats::build over u's instances against u: |S|, |E|,
/// every occurrence count, every histogram class, every InfoGainEngine
/// contribution, and Def. 7 coverage of `subsets` random subsets of
/// `alphabet` (seeded by `seed`). Every valid input, an atomic start
/// included, is counted in closed form.
inline void expect_stats_match_product(
    const flow::InterleavedFlow& u,
    const std::vector<flow::MessageId>& alphabet, std::uint64_t seed,
    int subsets = 200) {
  const flow::ProductStats stats = flow::ProductStats::build(u.instances());
  EXPECT_TRUE(stats.closed_form());
  EXPECT_EQ(stats.num_product_states(), u.num_product_states());
  EXPECT_EQ(stats.num_product_edges(), u.num_product_edges());
  ASSERT_EQ(stats.indexed_messages(), u.indexed_messages());
  for (const flow::IndexedMessage& im : u.indexed_messages())
    EXPECT_EQ(stats.occurrences(im), u.occurrences(im))
        << im.message << ":" << im.index;

  const auto want = u.label_target_histograms();
  const auto& got = stats.label_target_histograms();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(got[i].classes, want[i].classes)
        << want[i].label.message << ":" << want[i].label.index;
  }

  const selection::InfoGainEngine closed(stats);
  const selection::InfoGainEngine counted(flow::ProductStats::count(u));
  EXPECT_EQ(bits(closed.max_gain()), bits(counted.max_gain()));
  for (const flow::IndexedMessage& im : u.indexed_messages())
    EXPECT_EQ(bits(closed.contribution(im)), bits(counted.contribution(im)));

  util::Rng rng(seed);
  std::vector<flow::MessageId> subset;
  for (int t = 0; t < subsets; ++t) {
    subset.clear();
    for (const flow::MessageId m : alphabet)
      if (rng.chance(0.5)) subset.push_back(m);
    EXPECT_EQ(bits(selection::flow_spec_coverage(stats, subset)),
              bits(selection::flow_spec_coverage(u, subset)))
        << "subset " << t;
  }
}

/// Checks u's histograms and the DPs of the state grid over u's instances
/// against the oracle on u, bit for bit: every histogram class,
/// count_paths, and count_consistent_paths on `trials` observations of
/// each kind — prefixes of random executions' projections (count > 0),
/// perturbed prefixes (often 0), the empty observation, and an observation
/// holding an unselected id (both must throw std::invalid_argument). The
/// selection is a random subset of `alphabet`, seeded by `seed`.
inline void expect_product_matches_oracle(
    const flow::InterleavedFlow& u,
    const std::vector<flow::MessageId>& alphabet, std::uint64_t seed,
    int trials = 8) {
  const flow::ProductGrid grid = flow::ProductGrid::build(u.instances());
  EXPECT_EQ(bits(grid.count_paths()), bits(oracle::count_paths(u)));

  const auto want = oracle::histograms(u);
  const auto got = u.label_target_histograms();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(got[i].classes, want[i].classes)
        << want[i].label.message << ":" << want[i].label.index;
  }

  util::Rng rng(seed);
  std::vector<flow::MessageId> selected;
  for (const flow::MessageId m : alphabet)
    if (rng.chance(0.6)) selected.push_back(m);
  const auto agree = [&](const std::vector<flow::IndexedMessage>& observed) {
    const double count = grid.count_consistent_paths(selected, observed);
    EXPECT_EQ(bits(count),
              bits(oracle::count_consistent_paths(u, selected, observed)));
    return count;
  };

  EXPECT_EQ(bits(agree({})), bits(grid.count_paths()));
  for (int t = 0; t < trials; ++t) {
    SCOPED_TRACE("trial " + std::to_string(t));
    const flow::Execution e = flow::random_execution(u, rng);
    const auto projected = flow::project(e.trace(), selected);
    std::vector<flow::IndexedMessage> prefix(
        projected.begin(),
        projected.begin() +
            static_cast<std::ptrdiff_t>(rng.index(projected.size() + 1)));
    const double count = agree(prefix);
    if (e.completed) {
      EXPECT_GT(count, 0.0);
    }

    // Perturb one position: another selected label of the product, or a
    // swap with its neighbour.
    if (prefix.empty()) continue;
    const std::size_t at = rng.index(prefix.size());
    if (at + 1 < prefix.size() && rng.chance(0.5)) {
      std::swap(prefix[at], prefix[at + 1]);
    } else {
      const auto& labels = u.indexed_messages();
      const flow::IndexedMessage pick = labels[rng.index(labels.size())];
      if (std::find(selected.begin(), selected.end(), pick.message) !=
          selected.end())
        prefix[at] = pick;
    }
    agree(prefix);
  }

  // An id outside the selection, anywhere in the observation, throws.
  flow::MessageId outside = 0;
  for (const flow::MessageId m : alphabet) outside = std::max(outside, m + 1);
  for (const flow::MessageId m : alphabet)
    if (std::find(selected.begin(), selected.end(), m) == selected.end())
      outside = m;
  const std::vector<flow::IndexedMessage> bad{{outside, 1}};
  EXPECT_THROW(grid.count_consistent_paths(selected, bad),
               std::invalid_argument);
  EXPECT_THROW(oracle::count_consistent_paths(u, selected, bad),
               std::invalid_argument);
}

}  // namespace tracesel::test
