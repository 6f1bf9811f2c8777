#include "selection/multi_scenario.hpp"

#include <gtest/gtest.h>

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
  // With one scenario of weight 1 the multi-scenario optimum equals the
  // single-scenario knapsack optimum.
  const MultiScenarioSelector multi(design_.catalog(), {{&s1_, 1.0}});
  const auto shared = multi.select(buffer(32, false));

  const MessageSelector single(design_.catalog(), s1_);
  SelectorConfig cfg;
  cfg.mode = SearchMode::kKnapsack;
  cfg.packing = false;
  const auto alone = single.select(cfg);
  EXPECT_EQ(shared.combination.messages, alone.combination.messages);
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
