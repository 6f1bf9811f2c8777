#include "selection/selector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "flow/flow_builder.hpp"
#include "netlist/usb_design.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace tracesel::selection {
namespace {

using flow::FlowBuilder;
using flow::MessageCatalog;
using flow::MessageId;
using test::CoherenceFixture;

class SelectorTest : public ::testing::Test {
 protected:
  CoherenceFixture fx_;
  flow::InterleavedFlow u_ = fx_.two_instance_interleaving();
  MessageSelector selector_{fx_.catalog, u_};
};

TEST_F(SelectorTest, PaperExampleSelectsReqEGntE) {
  SelectorConfig cfg;
  cfg.buffer_width = 2;
  cfg.packing = false;
  const auto r = selector_.select(cfg);
  EXPECT_EQ(r.combination.messages,
            (std::vector<MessageId>{fx_.reqE, fx_.gntE}));
  EXPECT_NEAR(r.gain, 1.073, 5e-4);
  EXPECT_NEAR(r.coverage, 0.7333, 5e-5);
  EXPECT_EQ(r.used_width, 2u);
  EXPECT_DOUBLE_EQ(r.utilization(), 1.0);
}

TEST_F(SelectorTest, CandidatesAreTheFlowAlphabet) {
  EXPECT_EQ(selector_.candidates(),
            (std::vector<MessageId>{fx_.reqE, fx_.gntE, fx_.ack}));
}

TEST_F(SelectorTest, AllSearchModesAgreeOnSmallExample) {
  for (SearchMode mode : {SearchMode::kExhaustive, SearchMode::kMaximal,
                          SearchMode::kKnapsack}) {
    SelectorConfig cfg;
    cfg.buffer_width = 2;
    cfg.packing = false;
    cfg.mode = mode;
    const auto r = selector_.select(cfg);
    EXPECT_EQ(r.combination.messages,
              (std::vector<MessageId>{fx_.reqE, fx_.gntE}))
        << static_cast<int>(mode);
  }
}

TEST_F(SelectorTest, WideBufferTakesWholeAlphabet) {
  SelectorConfig cfg;
  cfg.buffer_width = 32;
  const auto r = selector_.select(cfg);
  EXPECT_EQ(r.combination.messages.size(), 3u);
  EXPECT_DOUBLE_EQ(r.gain, selector_.engine().max_gain());
}

TEST_F(SelectorTest, ThrowsWhenNothingFits) {
  SelectorConfig cfg;
  cfg.buffer_width = 0;
  EXPECT_THROW(selector_.select(cfg), std::runtime_error);
}

TEST_F(SelectorTest, UnpackedFieldsMatchPackingDisabled) {
  SelectorConfig with, without;
  with.buffer_width = without.buffer_width = 2;
  with.packing = true;
  without.packing = false;
  const auto a = selector_.select(with);
  const auto b = selector_.select(without);
  EXPECT_EQ(a.combination.messages, b.combination.messages);
  EXPECT_DOUBLE_EQ(a.gain_unpacked, b.gain);
  EXPECT_DOUBLE_EQ(a.coverage_unpacked, b.coverage);
  EXPECT_DOUBLE_EQ(a.utilization_unpacked(), b.utilization());
}

TEST(SelectorPacking, PackingImprovesUtilizationWhenSubgroupFits) {
  // Flow alphabet: two 2-bit messages plus a 20-bit message with a 6-bit
  // subgroup; buffer 12 -> Step 2 takes the narrow pair (width 4),
  // Step 3 packs the subgroup (width 6) -> utilization 10/12.
  MessageCatalog cat;
  const MessageId a = cat.add("a", 2, "X", "Y");
  const MessageId b = cat.add("b", 2, "Y", "X");
  const MessageId wide = cat.add(flow::Message{
      "dmusiidata", 20, "DMU", "SIU", {flow::Subgroup{"cputhreadid", 6}}});
  FlowBuilder fb("lin");
  fb.state("s0", FlowBuilder::kInitial)
      .state("s1")
      .state("s2")
      .state("s3", FlowBuilder::kStop)
      .transition("s0", a, "s1")
      .transition("s1", wide, "s2")
      .transition("s2", b, "s3");
  const flow::Flow f = fb.build(cat);
  const auto u = flow::InterleavedFlow::build(flow::make_instances({&f}, 2));
  const MessageSelector sel(cat, u);

  SelectorConfig cfg;
  cfg.buffer_width = 12;
  cfg.packing = false;
  const auto wop = sel.select(cfg);
  cfg.packing = true;
  const auto wp = sel.select(cfg);

  EXPECT_GT(wp.utilization(), wop.utilization());
  EXPECT_GE(wp.coverage, wop.coverage);
  EXPECT_GE(wp.gain, wop.gain);
  ASSERT_EQ(wp.packed.size(), 1u);
  EXPECT_EQ(wp.packed[0].subgroup_name, "cputhreadid");
  EXPECT_EQ(wp.used_width, 10u);
}

TEST(SelectorKnapsack, MatchesExhaustiveGainOnRandomWidths) {
  // The knapsack DP must find the same optimal gain as exhaustive search
  // for arbitrary width assignments (gains are additive per message).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng{seed};
    MessageCatalog cat;
    std::vector<MessageId> ms;
    std::vector<flow::Flow> flows;
    for (int i = 0; i < 6; ++i) {
      const auto m = cat.add("m" + std::to_string(i),
                             static_cast<std::uint32_t>(rng.between(1, 9)),
                             "X", "Y");
      ms.push_back(m);
    }
    // Two 3-message chain flows over the six messages.
    for (int f = 0; f < 2; ++f) {
      FlowBuilder fb("f" + std::to_string(f));
      fb.state("s0", FlowBuilder::kInitial)
          .state("s1")
          .state("s2")
          .state("s3", FlowBuilder::kStop)
          .transition("s0", ms[3 * f], "s1")
          .transition("s1", ms[3 * f + 1], "s2")
          .transition("s2", ms[3 * f + 2], "s3");
      flows.push_back(fb.build(cat));
    }
    const auto u = flow::InterleavedFlow::build(
        flow::make_instances({&flows[0], &flows[1]}, 2));
    const MessageSelector sel(cat, u);
    for (std::uint32_t width : {4u, 8u, 12u, 20u}) {
      SelectorConfig ex, kn;
      ex.buffer_width = kn.buffer_width = width;
      ex.mode = SearchMode::kExhaustive;
      kn.mode = SearchMode::kKnapsack;
      ex.packing = kn.packing = false;
      double g_ex = 0.0, g_kn = 0.0;
      try {
        g_ex = sel.select(ex).gain;
      } catch (const std::runtime_error&) {
        EXPECT_THROW(sel.select(kn), std::runtime_error);
        continue;
      }
      g_kn = sel.select(kn).gain;
      EXPECT_DOUBLE_EQ(g_ex, g_kn) << "seed " << seed << " width " << width;
    }
  }
}

TEST(SelectorMultiCycle, BeatsReduceEffectiveWidth) {
  // Footnote 2: a multi-cycle message only consumes ceil(width/beats)
  // buffer bits per cycle. A 20-bit 4-beat message fits a 5-bit budget.
  MessageCatalog cat;
  flow::Message wide{"wide", 20, "A", "B", {}, /*beats=*/4};
  const MessageId w = cat.add(wide);
  const MessageId narrow = cat.add("narrow", 3, "B", "A");
  EXPECT_EQ(cat.get(w).trace_width(), 5u);

  FlowBuilder fb("f");
  fb.state("s0", FlowBuilder::kInitial)
      .state("s1")
      .state("s2", FlowBuilder::kStop)
      .transition("s0", w, "s1")
      .transition("s1", narrow, "s2");
  const flow::Flow f = fb.build(cat);
  const auto u = flow::InterleavedFlow::build(flow::make_instances({&f}, 2));
  const MessageSelector sel(cat, u);
  SelectorConfig cfg;
  cfg.buffer_width = 8;
  cfg.packing = false;
  const auto r = sel.select(cfg);
  EXPECT_EQ(r.combination.messages, (std::vector<MessageId>{w, narrow}));
  EXPECT_EQ(r.combination.width, 8u);  // 5 + 3
}

TEST(SelectorMultiCycle, SingleBeatKeepsFullWidth) {
  MessageCatalog cat;
  const MessageId m = cat.add("m", 20, "A", "B");
  EXPECT_EQ(cat.get(m).trace_width(), 20u);
}

TEST(SelectorMultiCycle, ZeroBeatsRejected) {
  MessageCatalog cat;
  flow::Message bad{"bad", 8, "A", "B", {}, /*beats=*/0};
  EXPECT_THROW(cat.add(bad), std::invalid_argument);
}

TEST(SelectorCapTest, CombinationCapThrowsInBothPaths) {
  // The serial exhaustive search refuses to materialize past
  // max_combinations, whatever the (ignored) jobs field says.
  netlist::UsbDesign usb;
  const auto u = usb.interleaving(2);
  const MessageSelector serial(usb.catalog(), u);
  SelectorConfig cfg;
  cfg.buffer_width = 32;
  cfg.mode = SearchMode::kExhaustive;
  cfg.max_combinations = 8;  // far below the real count
  cfg.jobs = 1;
  EXPECT_THROW(serial.select(cfg), std::length_error);
  cfg.jobs = 4;
  EXPECT_THROW(serial.select(cfg), std::length_error);
}

}  // namespace
}  // namespace tracesel::selection
