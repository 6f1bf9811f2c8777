#include "selection/localization.hpp"

#include <gtest/gtest.h>

#include "flow/execution.hpp"
#include "testutil.hpp"

namespace tracesel::selection {
namespace {

using flow::IndexedMessage;
using flow::MessageId;
using test::CoherenceFixture;

class LocalizationTest : public ::testing::Test {
 protected:
  CoherenceFixture fx_;
  flow::InterleavedFlow u_ = fx_.two_instance_interleaving();
  flow::ProductGrid grid_ = fx_.two_instance_grid();
  std::vector<MessageId> selected_{fx_.reqE, fx_.gntE};
};

TEST_F(LocalizationTest, PaperObservationLocalizesToOnePath) {
  const std::vector<IndexedMessage> obs{
      {fx_.reqE, 1}, {fx_.gntE, 1}, {fx_.reqE, 2}};
  const auto r = localize(grid_, selected_, obs);
  EXPECT_DOUBLE_EQ(r.consistent_paths, 1.0);
  EXPECT_DOUBLE_EQ(r.total_paths, grid_.count_paths());
  EXPECT_DOUBLE_EQ(r.fraction, 1.0 / grid_.count_paths());
  EXPECT_LT(r.fraction, 1.0);
}

TEST_F(LocalizationTest, EmptyObservationDoesNotLocalize) {
  const auto r = localize(grid_, selected_, {});
  EXPECT_DOUBLE_EQ(r.fraction, 1.0);
}

TEST_F(LocalizationTest, LongerObservationNeverWidens) {
  // Adding observed messages can only shrink the consistent set.
  const std::vector<IndexedMessage> o1{{fx_.reqE, 1}};
  const std::vector<IndexedMessage> o2{{fx_.reqE, 1}, {fx_.gntE, 1}};
  const std::vector<IndexedMessage> o3{
      {fx_.reqE, 1}, {fx_.gntE, 1}, {fx_.reqE, 2}};
  const double f1 = localize(grid_, selected_, o1).fraction;
  const double f2 = localize(grid_, selected_, o2).fraction;
  const double f3 = localize(grid_, selected_, o3).fraction;
  EXPECT_GE(f1, f2);
  EXPECT_GE(f2, f3);
}

TEST_F(LocalizationTest, RicherSelectionLocalizesAtLeastAsWell) {
  // Observing a true execution through more messages cannot leave more
  // consistent paths: compare {ReqE} against {ReqE, GntE} projections of
  // the same executions.
  util::Rng rng{11};
  const std::vector<MessageId> narrow{fx_.reqE};
  for (int i = 0; i < 20; ++i) {
    const auto e = flow::random_execution(u_, rng);
    const auto obs_narrow = flow::project(e.trace(), narrow);
    const auto obs_rich = flow::project(e.trace(), selected_);
    const double f_narrow = localize(grid_, narrow, obs_narrow).fraction;
    const double f_rich = localize(grid_, selected_, obs_rich).fraction;
    EXPECT_LE(f_rich, f_narrow + 1e-12);
  }
}

TEST_F(LocalizationTest, TrueExecutionAlwaysConsistent) {
  util::Rng rng{13};
  for (int i = 0; i < 20; ++i) {
    const auto e = flow::random_execution(u_, rng);
    const auto obs = flow::project(e.trace(), selected_);
    const auto r = localize(grid_, selected_, obs);
    EXPECT_GE(r.consistent_paths, 1.0);
  }
}

TEST_F(LocalizationTest, FractionIsBetweenZeroAndOne) {
  util::Rng rng{17};
  for (int i = 0; i < 20; ++i) {
    const auto e = flow::random_execution(u_, rng);
    const auto obs = flow::project(e.trace(), selected_);
    const auto r = localize(grid_, selected_, obs);
    EXPECT_GE(r.fraction, 0.0);
    EXPECT_LE(r.fraction, 1.0);
  }
}

TEST_F(LocalizationTest, ProductOverloadCountsOnItsInstancesGrid) {
  const std::vector<IndexedMessage> obs{{fx_.reqE, 2}, {fx_.gntE, 2}};
  const auto want = localize(grid_, selected_, obs);
  const auto got = localize(u_, selected_, obs);
  EXPECT_EQ(got.total_paths, want.total_paths);
  EXPECT_EQ(got.consistent_paths, want.consistent_paths);
  EXPECT_EQ(got.fraction, want.fraction);
}

}  // namespace
}  // namespace tracesel::selection
