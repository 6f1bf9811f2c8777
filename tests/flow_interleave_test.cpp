#include "flow/interleaved_flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "product_oracle.hpp"
#include "testutil.hpp"

namespace tracesel::flow {
namespace {

using test::CoherenceFixture;

TEST(Interleave, PaperFigure2HasFifteenStates) {
  // 4x4 product minus the illegal (c1,c2) double-atomic state = 15.
  const CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  EXPECT_EQ(u.num_product_states(), 15u);
  EXPECT_EQ(u.num_nodes(), 15u);
}

TEST(Interleave, PaperFigure2HasEighteenEdges) {
  // Each instance contributes 3 transitions enabled at the 3 non-atomic
  // states of the other instance: 2 * 3 * 3 = 18 indexed-message occurrences.
  const CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  EXPECT_EQ(u.num_product_edges(), 18u);
}

TEST(Interleave, UnreducedEngineMaterializesFullFigure2) {
  const CoherenceFixture fx;
  const auto u = InterleavedFlow::build(make_instances({&fx.flow_}, 2));
  EXPECT_EQ(&u.concrete(), &u);
  EXPECT_EQ(u.num_nodes(), 15u);
  EXPECT_EQ(u.num_edges(), 18u);
  EXPECT_EQ(u.num_product_states(), 15u);
  EXPECT_EQ(u.num_product_edges(), 18u);
}

TEST(Interleave, DoubleAtomicStateIsUnreachable) {
  const CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const StateId c = fx.flow_.require_state("c");
  for (NodeId n = 0; n < u.num_nodes(); ++n) {
    const auto& key = u.node_key(n);
    EXPECT_FALSE(key[0] == c && key[1] == c)
        << "illegal double-atomic product state reached: " << u.node_name(n);
  }
}

TEST(Interleave, OnlyAtomicHolderMayMove) {
  // From any product state where instance 1 sits in atomic 'c', every
  // outgoing edge must belong to instance 1.
  const CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const StateId c = fx.flow_.require_state("c");
  for (NodeId n = 0; n < u.num_nodes(); ++n) {
    const auto& key = u.node_key(n);
    for (std::size_t holder = 0; holder < key.size(); ++holder) {
      if (key[holder] != c) continue;
      for (std::uint32_t e : u.outgoing(n)) {
        EXPECT_EQ(u.edges()[e].instance, holder)
            << "non-holder moved out of " << u.node_name(n);
      }
    }
  }
}

TEST(Interleave, SingleStopNode) {
  const CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  ASSERT_EQ(u.stop_nodes().size(), 1u);
  const auto& key = u.node_key(u.stop_nodes().front());
  const StateId d = fx.flow_.require_state("d");
  EXPECT_EQ(key[0], d);
  EXPECT_EQ(key[1], d);
}

TEST(Interleave, EachIndexedMessageOccursThreeTimes) {
  // Paper: p(y) = 3/18 for every indexed message of Fig. 2.
  const CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  EXPECT_EQ(u.indexed_messages().size(), 6u);
  for (const auto& im : u.indexed_messages()) {
    EXPECT_EQ(u.occurrences(im), 3u);
  }
}

TEST(Interleave, UnknownIndexedMessageHasZeroOccurrences) {
  const CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  EXPECT_EQ(u.occurrences(IndexedMessage{fx.reqE, 99}), 0u);
}

TEST(Interleave, SingleInstanceProductEqualsFlow) {
  const CoherenceFixture fx;
  const auto u = InterleavedFlow::build(make_instances({&fx.flow_}, 1));
  EXPECT_EQ(u.num_nodes(), 4u);
  EXPECT_EQ(u.num_edges(), 3u);
  EXPECT_EQ(ProductGrid::build(u.instances()).count_paths(), 1.0);
}

TEST(Interleave, PathCountWithoutAtomicityIsBinomial) {
  // Two independent 3-step chains with no atomic states interleave in
  // C(6,3) = 20 ways.
  MessageCatalog cat;
  const MessageId a = cat.add("a", 1, "X", "Y");
  const MessageId b = cat.add("b", 1, "X", "Y");
  const MessageId c = cat.add("c", 1, "X", "Y");
  FlowBuilder fb("chain");
  fb.state("s0", FlowBuilder::kInitial)
      .state("s1")
      .state("s2")
      .state("s3", FlowBuilder::kStop)
      .transition("s0", a, "s1")
      .transition("s1", b, "s2")
      .transition("s2", c, "s3");
  const Flow f = fb.build(cat);
  const auto u = InterleavedFlow::build(make_instances({&f}, 2));
  EXPECT_EQ(u.num_product_states(), 16u);
  EXPECT_DOUBLE_EQ(ProductGrid::build(u.instances()).count_paths(), 20.0);
}

TEST(Interleave, AtomicityPrunesPaths) {
  // The coherence flow's atomic 'c' forbids interleavings that hold both
  // instances in 'c' simultaneously; paths drop from 20 to fewer.
  const CoherenceFixture fx;
  const double paths = fx.two_instance_grid().count_paths();
  EXPECT_LT(paths, 20.0);
  EXPECT_GT(paths, 0.0);
}

TEST(Interleave, RejectsIllegalIndexing) {
  const CoherenceFixture fx;
  std::vector<IndexedFlow> bad{{&fx.flow_, 1}, {&fx.flow_, 1}};
  EXPECT_FALSE(legally_indexed(bad));
  EXPECT_THROW(InterleavedFlow::build(bad), std::invalid_argument);
}

TEST(Interleave, RejectsEmptyInstanceList) {
  EXPECT_THROW(InterleavedFlow::build({}), std::invalid_argument);
}

TEST(Interleave, RejectsNullFlow) {
  std::vector<IndexedFlow> bad{{nullptr, 1}};
  EXPECT_THROW(InterleavedFlow::build(bad), std::invalid_argument);
}

TEST(Interleave, MaxNodesGuardThrows) {
  const CoherenceFixture fx;
  InterleaveOptions options;
  options.max_nodes = 4;
  EXPECT_THROW(InterleavedFlow::build(make_instances({&fx.flow_}, 2), options),
               std::length_error);
}

TEST(Interleave, HeterogeneousFlowsCompose) {
  const CoherenceFixture fx;
  MessageCatalog cat2;  // unused widths; reuse fixture catalog ids
  FlowBuilder fb("short");
  fb.state("p", FlowBuilder::kInitial)
      .state("q", FlowBuilder::kStop)
      .transition("p", fx.ack, "q");
  const Flow g = fb.build(fx.catalog);
  const auto u = InterleavedFlow::build(
      {IndexedFlow{&fx.flow_, 1}, IndexedFlow{&g, 1}});
  // 4*2 product, no atomic conflict possible (g has no atomic states), but
  // while coherence sits in 'c', g may not move: product still has all 8
  // nodes reachable.
  EXPECT_EQ(u.num_nodes(), 8u);
  // Edges: coherence moves at q/p (2 g-states) * 3 transitions = 6;
  // g moves at coherence states n,w,d (not c) = 3.
  EXPECT_EQ(u.num_edges(), 9u);
}

TEST(Interleave, NodeNameFormatsComponents) {
  const CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const std::string root = u.node_name(u.initial_nodes().front());
  EXPECT_EQ(root, "(n:1,n:2)");
}

TEST(Interleave, MakeInstancesAssignsDistinctIndices) {
  const CoherenceFixture fx;
  const auto insts = make_instances({&fx.flow_}, 3);
  ASSERT_EQ(insts.size(), 3u);
  EXPECT_TRUE(legally_indexed(insts));
  EXPECT_EQ(insts[0].index, 1u);
  EXPECT_EQ(insts[2].index, 3u);
}

TEST(Interleave, MakeInstancesRejectsZeroCount) {
  const CoherenceFixture fx;
  EXPECT_THROW(make_instances({&fx.flow_}, 0), std::invalid_argument);
}

TEST(Interleave, PaperLocalizationExampleOrderedSemantics) {
  // Paper Sec. 3.2: observing {1:ReqE, 1:GntE, 2:ReqE} with
  // Y' = {ReqE, GntE}. Under strict ordered-trace semantics exactly one
  // execution matches: R1 G1 A1 R2 G2 A2 (atomicity forces A1 between G1
  // and R2, and the tail G2 A2 is unique).
  const CoherenceFixture fx;
  const auto grid = fx.two_instance_grid();
  const std::vector<MessageId> selected{fx.reqE, fx.gntE};
  const std::vector<IndexedMessage> observed{
      {fx.reqE, 1}, {fx.gntE, 1}, {fx.reqE, 2}};
  EXPECT_DOUBLE_EQ(grid.count_consistent_paths(selected, observed), 1.0);
}

TEST(Interleave, PaperLocalizationExampleMultisetSemantics) {
  // Order-insensitive reading of the same observation: three executions
  // have {R1,G1,R2} as their first three visible messages (visible orders
  // R1G1R2, R1R2G1, R2R1G1). The paper's Fig. 2 highlights two of them in
  // its *partial* rendering of the interleaving; either way the
  // observation prunes the execution space to a handful of paths.
  const CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const std::vector<MessageId> selected{fx.reqE, fx.gntE};
  const std::vector<IndexedMessage> observed{
      {fx.reqE, 1}, {fx.gntE, 1}, {fx.reqE, 2}};
  EXPECT_DOUBLE_EQ(
      test::oracle::count_consistent_paths_multiset(u, selected, observed),
      3.0);
}

TEST(Interleave, MultisetCountNeverBelowOrderedCount) {
  const CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const std::vector<MessageId> selected{fx.reqE, fx.gntE, fx.ack};
  const std::vector<IndexedMessage> observed{
      {fx.reqE, 2}, {fx.reqE, 1}, {fx.gntE, 2}};
  const double ordered =
      fx.two_instance_grid().count_consistent_paths(selected, observed);
  const double multiset =
      test::oracle::count_consistent_paths_multiset(u, selected, observed);
  EXPECT_GE(multiset, ordered);
}

TEST(Interleave, ConsistentPathsEmptyObservationMatchesAll) {
  const CoherenceFixture fx;
  const auto grid = fx.two_instance_grid();
  const std::vector<MessageId> selected{fx.reqE, fx.gntE};
  EXPECT_DOUBLE_EQ(grid.count_consistent_paths(selected, {}),
                   grid.count_paths());
}

TEST(Interleave, ConsistentPathsImpossibleObservationIsZero) {
  const CoherenceFixture fx;
  const auto grid = fx.two_instance_grid();
  const std::vector<MessageId> selected{fx.reqE, fx.gntE};
  // GntE of instance 1 cannot be the first visible message: ReqE:1 must
  // precede it in every path of instance 1.
  const std::vector<IndexedMessage> observed{{fx.gntE, 1}, {fx.gntE, 1}};
  EXPECT_DOUBLE_EQ(grid.count_consistent_paths(selected, observed), 0.0);
}

TEST(Interleave, ConsistentPathsRejectsUnselectedObservation) {
  const CoherenceFixture fx;
  const auto grid = fx.two_instance_grid();
  const std::vector<MessageId> selected{fx.reqE};
  const std::vector<IndexedMessage> observed{{fx.ack, 1}};
  EXPECT_THROW(grid.count_consistent_paths(selected, observed),
               std::invalid_argument);
}

}  // namespace
}  // namespace tracesel::flow
