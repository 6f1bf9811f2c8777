#include "selection/packing.hpp"

#include <gtest/gtest.h>

#include "flow/flow_builder.hpp"
#include "selection/coverage.hpp"
#include "selection/selector.hpp"

namespace tracesel::selection {
namespace {

using flow::FlowBuilder;
using flow::MessageCatalog;
using flow::MessageId;

/// A linear flow a -> wide -> b where `wide` is 20 bits with a 3-bit and a
/// 6-bit subgroup (modeled on dmusiidata/cputhreadid of OpenSPARC T2).
struct PackingFixture {
  MessageCatalog catalog;
  MessageId a = catalog.add("a", 2, "X", "Y");
  MessageId b = catalog.add("b", 2, "Y", "X");
  MessageId wide = catalog.add(flow::Message{
      "dmusiidata", 20, "DMU", "SIU",
      {flow::Subgroup{"tag", 3}, flow::Subgroup{"cputhreadid", 6}}});
  flow::Flow flow_ = make_flow(catalog, a, wide, b);
  flow::ProductStats stats =
      flow::ProductStats::build(flow::make_instances({&flow_}, 2));

  static flow::Flow make_flow(const MessageCatalog& cat, MessageId a,
                              MessageId wide, MessageId b) {
    FlowBuilder fb("lin");
    fb.state("s0", FlowBuilder::kInitial)
        .state("s1")
        .state("s2")
        .state("s3", FlowBuilder::kStop)
        .transition("s0", a, "s1")
        .transition("s1", wide, "s2")
        .transition("s2", b, "s3");
    return fb.build(cat);
  }
};

TEST(Packing, AddsFittingSubgroupOfUnselectedWideMessage) {
  PackingFixture fx;
  const InfoGainEngine engine(fx.stats);
  const Combination base{{fx.a, fx.b}, 4};
  const auto r = pack_leftover(fx.catalog, engine, base, /*buffer=*/7,
                                 {fx.a, fx.b, fx.wide});
  ASSERT_EQ(r.packed.size(), 1u);
  EXPECT_EQ(r.packed[0].parent, fx.wide);
  EXPECT_EQ(r.packed[0].subgroup_name, "tag");  // 3 fits, 6 does not
  EXPECT_EQ(r.width_added, 3u);
}

TEST(Packing, PrefersWiderLeftoverForBiggerSubgroupTieBreak) {
  // With leftover 6, both subgroups fit; equal gain (same parent) so the
  // narrower one is chosen, leaving room for more packing.
  PackingFixture fx;
  const InfoGainEngine engine(fx.stats);
  const Combination base{{fx.a, fx.b}, 4};
  const auto r = pack_leftover(fx.catalog, engine, base, /*buffer=*/10,
                                 {fx.a, fx.b, fx.wide});
  ASSERT_EQ(r.packed.size(), 1u);
  EXPECT_EQ(r.packed[0].width, 3u);
}

TEST(Packing, NothingFitsLeavesBaseUntouched) {
  PackingFixture fx;
  const InfoGainEngine engine(fx.stats);
  const Combination base{{fx.a, fx.b}, 4};
  const auto r = pack_leftover(fx.catalog, engine, base, /*buffer=*/5,
                                 {fx.a, fx.b, fx.wide});
  EXPECT_TRUE(r.packed.empty());
  EXPECT_EQ(r.width_added, 0u);
  EXPECT_DOUBLE_EQ(r.gain_after, engine.info_gain(base.messages));
}

TEST(Packing, PackingNeverDecreasesGain) {
  PackingFixture fx;
  const InfoGainEngine engine(fx.stats);
  const Combination base{{fx.a, fx.b}, 4};
  for (std::uint32_t buffer : {4u, 5u, 7u, 10u, 32u}) {
    const auto r = pack_leftover(fx.catalog, engine, base, buffer,
                                 {fx.a, fx.b, fx.wide});
    EXPECT_GE(r.gain_after, engine.info_gain(base.messages)) << buffer;
  }
}

TEST(Packing, ParentAlreadyObservableIsSkipped) {
  PackingFixture fx;
  const InfoGainEngine engine(fx.stats);
  // Base already contains `wide`; its subgroups must not be re-packed.
  const Combination base{{fx.a, fx.b, fx.wide}, 24};
  const auto r = pack_leftover(fx.catalog, engine, base, /*buffer=*/32,
                                 {fx.a, fx.b, fx.wide});
  EXPECT_TRUE(r.packed.empty());
}

TEST(Packing, ThrowsWhenBaseExceedsBuffer) {
  PackingFixture fx;
  const InfoGainEngine engine(fx.stats);
  const Combination base{{fx.a, fx.b}, 4};
  EXPECT_THROW(pack_leftover(fx.catalog, engine, base, 3,
                                 {fx.a, fx.b, fx.wide}),
               std::invalid_argument);
}

TEST(Packing, ObservableMessagesUnionsBaseAndParents) {
  PackingFixture fx;
  const Combination base{{fx.a, fx.b}, 4};
  const std::vector<PackedGroup> packed{{fx.wide, "tag", 3}};
  const auto obs = observable_messages(base, packed);
  EXPECT_EQ(obs, (std::vector<MessageId>{fx.a, fx.b, fx.wide}));
}

TEST(Packing, PackedSubgroupRaisesCoverage) {
  PackingFixture fx;
  const InfoGainEngine engine(fx.stats);
  const Combination base{{fx.a, fx.b}, 4};
  const auto r = pack_leftover(fx.catalog, engine, base, 7,
                                 {fx.a, fx.b, fx.wide});
  const auto obs = observable_messages(base, r.packed);
  EXPECT_GT(flow_spec_coverage(fx.stats, obs),
            flow_spec_coverage(fx.stats, base.messages));
}

}  // namespace
}  // namespace tracesel::selection
