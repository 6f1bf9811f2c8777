#pragma once
// The closed-form interleaving statistics against the product they
// summarize: flow::ProductStats must equal counts taken on the
// materialized InterleavedFlow bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "flow/interleaved_flow.hpp"
#include "flow/product_stats.hpp"
#include "selection/coverage.hpp"
#include "selection/info_gain.hpp"
#include "util/rng.hpp"

namespace tracesel::test {

inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Checks ProductStats::build over u's instances against u: |S|, |E|,
/// every occurrence count, every histogram class, every InfoGainEngine
/// contribution, and Def. 7 coverage of `subsets` random subsets of
/// `alphabet` (seeded by `seed`). Input whose initial state is atomic must
/// take the product fallback.
inline void expect_stats_match_product(
    const flow::InterleavedFlow& u,
    const std::vector<flow::MessageId>& alphabet, std::uint64_t seed,
    int subsets = 200) {
  const flow::ProductStats stats = flow::ProductStats::build(u.instances());
  EXPECT_EQ(stats.closed_form(),
            flow::ProductStats::closed_form_applies(u.instances()));
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

}  // namespace tracesel::test
