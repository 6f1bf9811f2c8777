#include "selection/multi_scenario.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "selection/selector.hpp"
#include "soc/scenario.hpp"

namespace tracesel::selection {
namespace {

SelectorConfig buffer(std::uint32_t width, bool packing = true) {
  SelectorConfig config;
  config.buffer_width = width;
  config.packing = packing;
  return config;
}

class MultiScenarioTest : public ::testing::Test {
 protected:
  MultiScenarioTest()
      : s1_(stats(soc::scenario1())),
        s2_(stats(soc::scenario2())),
        s3_(stats(soc::scenario3())) {}

  flow::ProductStats stats(const soc::Scenario& scenario) const {
    return flow::ProductStats::build(
        soc::scenario_instances(design_, scenario));
  }

  soc::T2Design design_;
  flow::ProductStats s1_, s2_, s3_;
};

TEST_F(MultiScenarioTest, SingleScenarioMatchesKnapsackSelector) {
  // With one scenario of weight 1 the multi-scenario selection is the
  // single-scenario knapsack selection: the same combination and packed
  // groups, and the same gain and coverage bits.
  for (int id = 1; id <= 4; ++id) {
    const flow::ProductStats s = stats(soc::scenario_by_id(id));
    const MultiScenarioSelector multi(design_.catalog(), {{&s, 1.0}});
    const MessageSelector single(design_.catalog(), s);
    for (const std::uint32_t width : {8u, 16u, 32u, 64u, 512u}) {
      for (const bool packing : {true, false}) {
        SCOPED_TRACE("scenario " + std::to_string(id) + " @" +
                     std::to_string(width) + (packing ? " packed" : ""));
        const auto shared = multi.select(buffer(width, packing));
        const auto alone = single.select(buffer(width, packing));
        EXPECT_EQ(shared.combination.messages, alone.combination.messages);
        EXPECT_EQ(shared.combination.width, alone.combination.width);
        EXPECT_EQ(shared.packed, alone.packed);
        EXPECT_EQ(shared.used_width, alone.used_width);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(shared.weighted_gain),
                  std::bit_cast<std::uint64_t>(alone.gain));
        ASSERT_EQ(shared.per_scenario_coverage.size(), 1u);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(shared.per_scenario_coverage[0]),
                  std::bit_cast<std::uint64_t>(alone.coverage));
      }
    }
  }
}

TEST_F(MultiScenarioTest, BufferWiderThanEveryCandidateIsTheirSum) {
  // No set is wider than all candidates together, so any wider buffer,
  // up to the largest width the config holds, selects exactly what a
  // buffer of that sum does (and sizes nothing by the buffer).
  const MultiScenarioSelector multi(design_.catalog(),
                                    {{&s1_, 1.0}, {&s2_, 2.0}, {&s3_, 0.5}});
  std::uint32_t sum = 0;
  for (const flow::MessageId m : multi.candidates())
    sum += design_.catalog().get(m).trace_width();
  for (const bool packing : {true, false}) {
    const auto at_sum = multi.select(buffer(sum, packing));
    for (const std::uint32_t width : {1'000'000'000u, 0xFFFF'FFFFu}) {
      SCOPED_TRACE(std::to_string(width) + (packing ? " packed" : ""));
      const auto wide = multi.select(buffer(width, packing));
      EXPECT_EQ(wide.buffer_width, width);
      EXPECT_EQ(wide.combination.messages, at_sum.combination.messages);
      EXPECT_EQ(wide.combination.width, at_sum.combination.width);
      EXPECT_EQ(wide.packed, at_sum.packed);
      EXPECT_EQ(wide.used_width, at_sum.used_width);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(wide.weighted_gain),
                std::bit_cast<std::uint64_t>(at_sum.weighted_gain));
      EXPECT_EQ(wide.per_scenario_coverage, at_sum.per_scenario_coverage);
    }
  }
}

TEST_F(MultiScenarioTest, CandidatesAreUnionOfAlphabets) {
  const MultiScenarioSelector multi(design_.catalog(),
                                    {{&s1_, 1.0}, {&s2_, 1.0}, {&s3_, 1.0}});
  // The 17 messages of the paper's five Table 1 flows appear across the
  // three scenarios (the DMA extension flows stay out).
  EXPECT_EQ(multi.candidates().size(), 17u);
}

TEST_F(MultiScenarioTest, SharedSelectionCoversAllScenarios) {
  const MultiScenarioSelector multi(design_.catalog(),
                                    {{&s1_, 1.0}, {&s2_, 1.0}, {&s3_, 1.0}});
  const auto r = multi.select(buffer(32));
  ASSERT_EQ(r.per_scenario_coverage.size(), 3u);
  for (double c : r.per_scenario_coverage) {
    EXPECT_GT(c, 0.2);
    EXPECT_LE(c, 1.0);
  }
  EXPECT_LE(r.used_width, 32u);
}

TEST_F(MultiScenarioTest, SharedNeverBeatsDedicatedPerScenario) {
  // A single shared configuration cannot cover any one scenario better
  // than that scenario's own dedicated selection.
  const MultiScenarioSelector multi(design_.catalog(),
                                    {{&s1_, 1.0}, {&s2_, 1.0}, {&s3_, 1.0}});
  const auto shared = multi.select(buffer(32));

  const flow::ProductStats* us[3] = {&s1_, &s2_, &s3_};
  for (int i = 0; i < 3; ++i) {
    const MessageSelector dedicated(design_.catalog(), *us[i]);
    const auto r = dedicated.select({});
    EXPECT_GE(r.coverage, shared.per_scenario_coverage[i] - 1e-9) << i;
  }
}

TEST_F(MultiScenarioTest, WeightsShiftTheSelection) {
  // Heavily weighting scenario 2 pulls its messages into the shared set.
  const MultiScenarioSelector balanced(design_.catalog(),
                                       {{&s1_, 1.0}, {&s2_, 1.0}});
  const MultiScenarioSelector skewed(design_.catalog(),
                                     {{&s1_, 1.0}, {&s2_, 50.0}});
  const auto b = balanced.select(buffer(32, false));
  const auto s = skewed.select(buffer(32, false));
  // The skewed selection's coverage on scenario 2 is at least the
  // balanced one's.
  EXPECT_GE(s.per_scenario_coverage[1], b.per_scenario_coverage[1] - 1e-9);
}

TEST_F(MultiScenarioTest, ContributionIsWeightedSum) {
  const MultiScenarioSelector even(design_.catalog(),
                                   {{&s1_, 1.0}, {&s2_, 1.0}});
  const MultiScenarioSelector doubled(design_.catalog(),
                                      {{&s1_, 2.0}, {&s2_, 2.0}});
  for (const flow::MessageId m : even.candidates()) {
    EXPECT_NEAR(doubled.contribution(m), 2.0 * even.contribution(m), 1e-12);
  }
}

TEST_F(MultiScenarioTest, PackingUsesSharedLeftover) {
  const MultiScenarioSelector multi(design_.catalog(),
                                    {{&s1_, 1.0}, {&s2_, 1.0}});
  const auto with = multi.select(buffer(32, true));
  const auto without = multi.select(buffer(32, false));
  EXPECT_GE(with.used_width, without.used_width);
  EXPECT_GE(with.weighted_gain, without.weighted_gain - 1e-12);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_GE(with.per_scenario_coverage[i],
              without.per_scenario_coverage[i] - 1e-12);
}

TEST_F(MultiScenarioTest, RejectsBadArguments) {
  EXPECT_THROW(MultiScenarioSelector(design_.catalog(), {}),
               std::invalid_argument);
  EXPECT_THROW(MultiScenarioSelector(design_.catalog(), {{nullptr, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(MultiScenarioSelector(design_.catalog(), {{&s1_, 0.0}}),
               std::invalid_argument);
  const MultiScenarioSelector multi(design_.catalog(), {{&s1_, 1.0}});
  EXPECT_THROW(multi.select(buffer(0)), std::runtime_error);
}

TEST_F(MultiScenarioTest, ObservableIncludesPackedParents) {
  const MultiScenarioSelector multi(design_.catalog(),
                                    {{&s1_, 1.0}, {&s2_, 1.0}});
  const auto r = multi.select(buffer(32, true));
  const auto obs = r.observable();
  for (const auto& pg : r.packed) {
    EXPECT_NE(std::find(obs.begin(), obs.end(), pg.parent), obs.end());
  }
}

}  // namespace
}  // namespace tracesel::selection
