#include "flow/stats.hpp"

#include <gtest/gtest.h>

#include "soc/t2_design.hpp"
#include "soc/t2_extended.hpp"
#include "testutil.hpp"

namespace tracesel::flow {
namespace {

using test::CoherenceFixture;

TEST(FlowStats, CoherenceChain) {
  const CoherenceFixture fx;
  const FlowStats s = flow_stats(fx.flow_);
  EXPECT_EQ(s.name, "CacheCoherence");
  EXPECT_EQ(s.states, 4u);
  EXPECT_EQ(s.transitions, 3u);
  EXPECT_EQ(s.messages, 3u);
  EXPECT_EQ(s.atomic_states, 1u);
  EXPECT_EQ(s.stop_states, 1u);
  EXPECT_DOUBLE_EQ(s.executions, 1.0);
  EXPECT_EQ(s.max_branching, 1u);
  EXPECT_EQ(s.depth, 3u);
}

TEST(FlowStats, BranchingFlowCountsBothExecutions) {
  const soc::T2ExtendedDesign ext;
  const FlowStats s = flow_stats(ext.mondo_nack());
  EXPECT_EQ(s.stop_states, 2u);
  EXPECT_DOUBLE_EQ(s.executions, 2.0);  // ack path and nack path
  EXPECT_EQ(s.max_branching, 2u);       // Delivered branches
  EXPECT_EQ(s.depth, 6u);               // the nack path is longer
}

TEST(FlowStats, T2FlowDepthsMatchChainLengths) {
  const soc::T2Design design;
  EXPECT_EQ(flow_stats(design.pior()).depth, 5u);
  EXPECT_EQ(flow_stats(design.piow()).depth, 2u);
  EXPECT_EQ(flow_stats(design.mondo()).depth, 5u);
}

TEST(InterleavingStats, Figure2Numbers) {
  const CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const auto grid = fx.two_instance_grid();
  EXPECT_EQ(u.num_product_states(), 15u);
  EXPECT_EQ(u.num_product_edges(), 18u);
  EXPECT_EQ(u.stop_nodes().size(), 1u);
  EXPECT_EQ(u.indexed_messages().size(), 6u);
  EXPECT_DOUBLE_EQ(grid.count_paths(), 6.0);
  // One grid slot, (c:1,c:2), breaks the Atom mutex.
  EXPECT_EQ(grid.num_slots(), 16u);
}

TEST(InterleavingStats, DensityIsOneWithoutAtomicStates) {
  MessageCatalog cat;
  const MessageId a = cat.add("a", 1, "X", "Y");
  FlowBuilder fb("lin");
  fb.state("s", FlowBuilder::kInitial)
      .state("t", FlowBuilder::kStop)
      .transition("s", a, "t");
  const Flow f = fb.build(cat);
  const auto instances = make_instances({&f}, 2);
  EXPECT_EQ(InterleavedFlow::build(instances).num_nodes(),
            ProductGrid::build(instances).num_slots());
}

}  // namespace
}  // namespace tracesel::flow
