#include "selection/info_gain.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "testutil.hpp"

namespace tracesel::selection {
namespace {

using flow::IndexedMessage;
using flow::MessageId;
using test::CoherenceFixture;

class InfoGainTest : public ::testing::Test {
 protected:
  CoherenceFixture fx_;
  flow::InterleavedFlow u_ = fx_.two_instance_interleaving();
  InfoGainEngine engine_{flow::ProductStats::build(u_.instances())};
};

TEST_F(InfoGainTest, ReproducesPaperWorkedExample) {
  // Sec. 3.2: I(X;Y1) for Y'1 = {ReqE, GntE} on the Fig. 2 interleaving is
  // 1.073 (natural log): 12 terms of (1/18) ln(5).
  const std::vector<MessageId> y1{fx_.reqE, fx_.gntE};
  EXPECT_NEAR(engine_.info_gain(y1), (12.0 / 18.0) * std::log(5.0), 1e-12);
  EXPECT_NEAR(engine_.info_gain(y1), 1.073, 5e-4);
}

TEST_F(InfoGainTest, PaperWinnerBeatsOtherFittingCombinations) {
  // With a 2-bit buffer the fitting combinations are all singletons and
  // pairs; the paper selects {ReqE, GntE}.
  const double win = engine_.info_gain(std::vector<MessageId>{fx_.reqE, fx_.gntE});
  const double ra = engine_.info_gain(std::vector<MessageId>{fx_.reqE, fx_.ack});
  const double ga = engine_.info_gain(std::vector<MessageId>{fx_.gntE, fx_.ack});
  EXPECT_GE(win, ra);
  EXPECT_GE(win, ga);
}

TEST_F(InfoGainTest, EmptyCombinationHasZeroGain) {
  EXPECT_DOUBLE_EQ(engine_.info_gain(std::vector<MessageId>{}), 0.0);
}

TEST_F(InfoGainTest, GainIsMonotoneUnderAddingMessages) {
  const double g1 = engine_.info_gain(std::vector<MessageId>{fx_.reqE});
  const double g2 = engine_.info_gain(std::vector<MessageId>{fx_.reqE, fx_.gntE});
  const double g3 = engine_.info_gain(
      std::vector<MessageId>{fx_.reqE, fx_.gntE, fx_.ack});
  EXPECT_LE(g1, g2);
  EXPECT_LE(g2, g3);
}

TEST_F(InfoGainTest, FullAlphabetReachesMaxGain) {
  const double g = engine_.info_gain(
      std::vector<MessageId>{fx_.reqE, fx_.gntE, fx_.ack});
  EXPECT_DOUBLE_EQ(g, engine_.max_gain());
}

TEST_F(InfoGainTest, ContributionsAreNonNegativeAndSumToGain) {
  double sum = 0.0;
  for (const auto& im : u_.indexed_messages()) {
    const double c = engine_.contribution(im);
    EXPECT_GE(c, 0.0);
    sum += c;
  }
  EXPECT_NEAR(sum, engine_.max_gain(), 1e-12);
}

TEST_F(InfoGainTest, UnknownIndexedMessageContributesZero) {
  EXPECT_DOUBLE_EQ(engine_.contribution(IndexedMessage{fx_.reqE, 42}), 0.0);
}

TEST_F(InfoGainTest, UnusedMessageContributesZeroGain) {
  // A catalog message labeling no edge of the interleaving adds nothing.
  CoherenceFixture fx2;
  const MessageId ghost = fx2.catalog.add("ghost", 1, "A", "B");
  const auto u2 = fx2.two_instance_interleaving();
  const InfoGainEngine e2(flow::ProductStats::build(u2.instances()));
  EXPECT_DOUBLE_EQ(
      e2.info_gain(std::vector<MessageId>{ghost}), 0.0);
  EXPECT_DOUBLE_EQ(e2.info_gain(std::vector<MessageId>{fx2.reqE, ghost}),
                   e2.info_gain(std::vector<MessageId>{fx2.reqE}));
}

TEST_F(InfoGainTest, SymmetricInstancesHaveEqualContributions) {
  // Instance tags 1 and 2 are interchangeable on a symmetric product.
  for (MessageId m : {fx_.reqE, fx_.gntE, fx_.ack}) {
    EXPECT_NEAR(engine_.contribution(IndexedMessage{m, 1}),
                engine_.contribution(IndexedMessage{m, 2}), 1e-12);
  }
}

TEST_F(InfoGainTest, SingleInstanceChainGainIsExact) {
  // On a single instance: 3 edges, 4 states; each edge is the unique
  // occurrence of its message leading to a unique state:
  // I per message = (1/3) ln(1 * 4 / 1) = (1/3) ln 4.
  const auto u1 = flow::InterleavedFlow::build(
      flow::make_instances({&fx_.flow_}, 1));
  const InfoGainEngine e1(flow::ProductStats::build(u1.instances()));
  EXPECT_NEAR(e1.info_gain(std::vector<MessageId>{fx_.reqE}),
              std::log(4.0) / 3.0, 1e-12);
  EXPECT_NEAR(e1.max_gain(), std::log(4.0), 1e-12);
}

}  // namespace
}  // namespace tracesel::selection
