#include "flow/execution.hpp"

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace tracesel::flow {
namespace {

using test::CoherenceFixture;

class ExecutionTest : public ::testing::Test {
 protected:
  CoherenceFixture fx_;
  InterleavedFlow u_ = fx_.two_instance_interleaving();
  util::Rng rng_{42};
};

TEST_F(ExecutionTest, RandomExecutionCompletesOnCoherenceProduct) {
  // Every maximal path of this product reaches the (d,d) stop tuple.
  for (int i = 0; i < 50; ++i) {
    const Execution e = random_execution(u_, rng_);
    EXPECT_TRUE(e.completed);
    EXPECT_EQ(e.steps.size(), 6u);  // 3 messages per instance
  }
}

TEST_F(ExecutionTest, RandomExecutionIsValid) {
  for (int i = 0; i < 50; ++i) {
    const Execution e = random_execution(u_, rng_);
    EXPECT_TRUE(is_valid_execution(u_, e));
  }
}

TEST_F(ExecutionTest, CyclesAreStrictlyIncreasing) {
  const Execution e = random_execution(u_, rng_);
  for (std::size_t i = 1; i < e.steps.size(); ++i)
    EXPECT_GT(e.steps[i].cycle, e.steps[i - 1].cycle);
}

TEST_F(ExecutionTest, TraceListsAllLabels) {
  const Execution e = random_execution(u_, rng_);
  const auto t = e.trace();
  ASSERT_EQ(t.size(), e.steps.size());
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(t[i], e.steps[i].label);
}

TEST_F(ExecutionTest, TraceContainsEachIndexedMessageOnce) {
  // In the coherence product each indexed message fires exactly once per
  // complete execution.
  const Execution e = random_execution(u_, rng_);
  const auto t = e.trace();
  for (const auto& im : u_.indexed_messages()) {
    EXPECT_EQ(std::count(t.begin(), t.end(), im), 1);
  }
}

TEST_F(ExecutionTest, ProjectKeepsOnlySelectedMessages) {
  const Execution e = random_execution(u_, rng_);
  const std::vector<MessageId> selected{fx_.reqE, fx_.gntE};
  const auto p = project(e.trace(), selected);
  EXPECT_EQ(p.size(), 4u);  // 2 instances x {ReqE, GntE}
  for (const auto& im : p) {
    EXPECT_TRUE(im.message == fx_.reqE || im.message == fx_.gntE);
  }
}

TEST_F(ExecutionTest, ProjectPreservesOrder) {
  const Execution e = random_execution(u_, rng_);
  const std::vector<MessageId> selected{fx_.reqE};
  const auto full = e.trace();
  const auto p = project(full, selected);
  // The projection must be a subsequence of the full trace.
  std::size_t j = 0;
  for (const auto& im : full) {
    if (j < p.size() && im == p[j]) ++j;
  }
  EXPECT_EQ(j, p.size());
}

TEST_F(ExecutionTest, ProjectOntoEmptySelectionIsEmpty) {
  const Execution e = random_execution(u_, rng_);
  EXPECT_TRUE(project(e.trace(), {}).empty());
}

TEST_F(ExecutionTest, ProjectedObservationIsAlwaysConsistentOrdered) {
  // Soundness of localization: the true execution's projection must be
  // counted as consistent under ordered semantics.
  const std::vector<MessageId> selected{fx_.reqE, fx_.gntE};
  const ProductGrid grid = fx_.two_instance_grid();
  for (int i = 0; i < 30; ++i) {
    const Execution e = random_execution(u_, rng_);
    const auto obs = project(e.trace(), selected);
    EXPECT_GE(grid.count_consistent_paths(selected, obs), 1.0);
  }
}

TEST_F(ExecutionTest, ValidatorRejectsCorruptedExecution) {
  Execution e = random_execution(u_, rng_);
  ASSERT_FALSE(e.steps.empty());
  Execution broken = e;
  broken.steps[0].label.index = 77;  // no such edge
  EXPECT_FALSE(is_valid_execution(u_, broken));

  Execution disconnected = e;
  if (disconnected.steps.size() >= 2) {
    disconnected.steps[1].from = disconnected.steps[1].to;
    EXPECT_FALSE(is_valid_execution(u_, disconnected));
  }
}

TEST_F(ExecutionTest, ValidatorAcceptsEmptyExecution) {
  EXPECT_TRUE(is_valid_execution(u_, Execution{}));
}

TEST_F(ExecutionTest, DifferentSeedsGiveDifferentInterleavings) {
  util::Rng a{1}, b{2};
  bool differ = false;
  for (int i = 0; i < 10 && !differ; ++i) {
    if (random_execution(u_, a).trace() != random_execution(u_, b).trace())
      differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST_F(ExecutionTest, SameSeedIsDeterministic) {
  util::Rng a{7}, b{7};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(random_execution(u_, a).trace(),
              random_execution(u_, b).trace());
  }
}

}  // namespace
}  // namespace tracesel::flow
