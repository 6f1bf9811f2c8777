#include "soc/t2_extended.hpp"

#include "soc/simulator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "flow/execution.hpp"
#include "flow/product_grid.hpp"
#include "selection/coverage.hpp"
#include "selection/selector.hpp"

namespace tracesel::soc {
namespace {

class ExtendedTest : public ::testing::Test {
 protected:
  T2ExtendedDesign design_;
};

TEST_F(ExtendedTest, BranchingFlowsValidate) {
  EXPECT_EQ(design_.mondo_nack().num_states(), 8u);
  EXPECT_EQ(design_.mondo_nack().stop_states().size(), 2u);
  EXPECT_EQ(design_.pior_retry().stop_states().size(), 2u);
  // Delivered branches two ways.
  const auto& mon = design_.mondo_nack();
  EXPECT_EQ(mon.outgoing(mon.require_state("Delivered")).size(), 2u);
}

TEST_F(ExtendedTest, InterleavingOfBranchingFlowsBuilds) {
  const auto u = flow::InterleavedFlow::build(flow::make_instances(
      {&design_.mondo_nack(), &design_.pior_retry()}, 2));
  EXPECT_GT(u.num_nodes(), 0u);
  EXPECT_GT(u.stop_nodes().size(), 1u);  // multiple stop combinations
  EXPECT_GT(flow::ProductGrid::build(u.instances()).count_paths(), 0.0);
}

TEST_F(ExtendedTest, RandomExecutionsReachBothOutcomes) {
  const auto u = flow::InterleavedFlow::build(
      flow::make_instances({&design_.mondo_nack()}, 1));
  util::Rng rng{3};
  bool saw_ack = false, saw_nack = false;
  for (int i = 0; i < 100 && !(saw_ack && saw_nack); ++i) {
    const auto e = flow::random_execution(u, rng);
    ASSERT_TRUE(e.completed);
    for (const auto& im : e.trace()) {
      if (im.message == design_.mondoacknack) saw_ack = true;
      if (im.message == design_.mondonack) saw_nack = true;
    }
  }
  EXPECT_TRUE(saw_ack);
  EXPECT_TRUE(saw_nack);
}

TEST_F(ExtendedTest, BranchMessagesAppearInFewerPathsThanTrunkMessages) {
  // In branching DAGs a branch message appears only in its branch's
  // executions while trunk messages appear in all of them.
  const auto grid = flow::ProductGrid::build(
      flow::make_instances({&design_.mondo_nack()}, 1));
  const double total = grid.count_paths();
  const std::vector<flow::MessageId> sel_trunk{design_.reqtot};
  const std::vector<flow::MessageId> sel_branch{design_.mondonack};
  const double trunk_paths =
      grid.count_consistent_paths(sel_trunk, {{design_.reqtot, 1}});
  const double branch_paths =
      grid.count_consistent_paths(sel_branch, {{design_.mondonack, 1}});
  EXPECT_DOUBLE_EQ(trunk_paths, total);  // every execution sends reqtot
  EXPECT_LT(branch_paths, total);        // only the nack branch
  EXPECT_GT(branch_paths, 0.0);
}

TEST_F(ExtendedTest, SelectionWorksOnBranchingInterleaving) {
  const auto u = flow::InterleavedFlow::build(flow::make_instances(
      {&design_.mondo_nack(), &design_.pior_retry()}, 2));
  const selection::MessageSelector selector(design_.catalog(), u);
  selection::SelectorConfig cfg;
  cfg.buffer_width = 32;
  const auto r = selector.select(cfg);
  EXPECT_FALSE(r.combination.messages.empty());
  EXPECT_LE(r.used_width, 32u);
  EXPECT_GT(r.coverage, 0.0);
  EXPECT_GT(r.gain, 0.0);
}

TEST_F(ExtendedTest, KnapsackStillMatchesExhaustiveOnBranches) {
  const auto u = flow::InterleavedFlow::build(
      flow::make_instances({&design_.mondo_nack()}, 2));
  const selection::MessageSelector selector(design_.catalog(), u);
  for (std::uint32_t width : {8u, 16u, 24u}) {
    selection::SelectorConfig ex, kn;
    ex.buffer_width = kn.buffer_width = width;
    ex.mode = selection::SearchMode::kExhaustive;
    kn.mode = selection::SearchMode::kKnapsack;
    ex.packing = kn.packing = false;
    EXPECT_DOUBLE_EQ(selector.select(ex).gain, selector.select(kn).gain)
        << width;
  }
}

TEST_F(ExtendedTest, ObservingBranchMessageLocalizesOutcome) {
  // Seeing mondonack in the trace proves the nack path was taken; the
  // consistent-path count must equal the nack-side executions only.
  const auto grid = flow::ProductGrid::build(
      flow::make_instances({&design_.mondo_nack()}, 1));
  const std::vector<flow::MessageId> selected{design_.mondoacknack,
                                              design_.mondonack};
  const double total = grid.count_paths();
  const double nack_paths = grid.count_consistent_paths(
      selected, {{design_.mondonack, 1}});
  const double ack_paths = grid.count_consistent_paths(
      selected, {{design_.mondoacknack, 1}});
  EXPECT_DOUBLE_EQ(nack_paths + ack_paths, total);
  EXPECT_GT(nack_paths, 0.0);
  EXPECT_GT(ack_paths, 0.0);
}

TEST_F(ExtendedTest, CoverageOfBranchMessagesIsPartial) {
  const auto u = flow::InterleavedFlow::build(
      flow::make_instances({&design_.mondo_nack()}, 1));
  // Tracing only the nack branch covers its states but not the ack side.
  const double nack_cov = selection::flow_spec_coverage(
      u, std::vector<flow::MessageId>{design_.mondonack, design_.reqretry});
  EXPECT_GT(nack_cov, 0.0);
  EXPECT_LT(nack_cov, 0.5);
}

TEST_F(ExtendedTest, GeneralSimulatorRunsBranchingFlows) {
  SocSimulator sim(design_.catalog(),
                   {&design_.mondo_nack(), &design_.pior_retry()}, 2);
  SimOptions opt;
  opt.sessions = 4;
  const auto r = sim.run(opt);
  EXPECT_FALSE(r.failed);
  EXPECT_GT(r.messages.size(), 0u);
  // Branch choices vary: across sessions both ack and nack paths appear.
  bool ack = false, nack = false;
  for (const auto& tm : r.messages) {
    if (tm.msg.message == design_.mondoacknack) ack = true;
    if (tm.msg.message == design_.mondonack) nack = true;
  }
  EXPECT_TRUE(ack || nack);
}

TEST_F(ExtendedTest, GeneralSimulatorRejectsBadArguments) {
  EXPECT_THROW(SocSimulator(design_.catalog(), {}, 2),
               std::invalid_argument);
  EXPECT_THROW(
      SocSimulator(design_.catalog(), {&design_.mondo_nack()}, 0),
      std::invalid_argument);
}

TEST_F(ExtendedTest, DropOnBranchOnlyFailsWhenBranchTaken) {
  // A drop bug on the NACK path stalls only executions that take it;
  // sessions where every instance gets ACKed complete cleanly.
  SocSimulator sim(design_.catalog(), {&design_.mondo_nack()}, 2);
  bug::Bug b;
  b.id = 100;
  b.effect = bug::BugEffect::kDropMessage;
  b.target = design_.reqretry;
  b.symptom = "HANG: retry lost";
  sim.inject(b);
  SimOptions opt;
  opt.sessions = 16;
  opt.seed = 5;
  const auto r = sim.run(opt);
  // With 16 sessions x 2 instances some execution takes the nack branch.
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.failure, "HANG: retry lost");
  // And the trace contains successful ack-side completions too.
  bool ack = false;
  for (const auto& tm : r.messages) {
    if (tm.msg.message == design_.mondoacknack) ack = true;
  }
  EXPECT_TRUE(ack);
}

TEST_F(ExtendedTest, IntermittentBugManifestsEventually) {
  // trigger_probability < 1 models intermittent manifestation: with enough
  // occurrences the symptom still fires, and earlier sessions look golden.
  SocSimulator sim(design_.catalog(), {&design_.mondo_nack()}, 2);
  bug::Bug b;
  b.id = 101;
  b.effect = bug::BugEffect::kCorruptValue;
  b.target = design_.dmusiidata;
  b.trigger_probability = 0.3;
  b.symptom = "FAIL: Bad Trap";
  sim.inject(b);
  SimOptions opt;
  opt.sessions = 20;
  const auto r = sim.run(opt);
  EXPECT_TRUE(r.failed);
}

TEST_F(ExtendedTest, MultipleSimultaneousBugsCompose) {
  SocSimulator sim(design_.catalog(),
                   {&design_.mondo_nack(), &design_.pior_retry()}, 2);
  bug::Bug corrupt;
  corrupt.id = 102;
  corrupt.effect = bug::BugEffect::kCorruptValue;
  corrupt.target = design_.dmusiidata;
  bug::Bug misroute;
  misroute.id = 103;
  misroute.effect = bug::BugEffect::kMisroute;
  misroute.target = design_.piordcrd;
  misroute.misroute_dest = "SIU";
  sim.inject(corrupt);
  sim.inject(misroute);
  EXPECT_EQ(sim.bugs().size(), 2u);

  SimOptions opt;
  opt.sessions = 6;
  const auto buggy = sim.run(opt);

  // Branch choices make index-aligned golden comparison meaningless here;
  // check the effects directly: every dmusiidata value deviates from the
  // golden content function, and every piordcrd is misrouted.
  std::map<std::tuple<flow::MessageId, std::uint32_t, std::uint32_t>,
           std::uint32_t>
      occ;  // occurrence counters reset per session, like the simulator's
  bool saw_dmusiidata = false, saw_piordcrd = false;
  for (const auto& tm : buggy.messages) {
    const std::uint32_t occurrence =
        occ[{tm.msg.message, tm.msg.index, tm.session}]++;
    if (tm.msg.message == design_.dmusiidata) {
      saw_dmusiidata = true;
      EXPECT_NE(tm.value,
                SocSimulator::golden_value(tm.msg.message, tm.msg.index,
                                           tm.session, occurrence, 20));
    }
    if (tm.msg.message == design_.piordcrd) {
      saw_piordcrd = true;
      EXPECT_EQ(tm.dst, "SIU");
    }
  }
  EXPECT_TRUE(saw_dmusiidata);
  EXPECT_TRUE(saw_piordcrd);
}

}  // namespace
}  // namespace tracesel::soc
