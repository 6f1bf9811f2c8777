// flow::ProductStats: the closed-form Step 2 and Def. 7 statistics against
// the unreduced product they summarize, on every design the repo ships
// (Fig. 2, data/t2.flow, the T2 scenarios, the USB netlist flows), plus
// the preconditions, the atomic-initial fallback and the overflow guard.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "flow/flow_builder.hpp"
#include "flow/parser.hpp"
#include "flow/product_stats.hpp"
#include "netlist/usb_design.hpp"
#include "selection/selector.hpp"
#include "soc/scenario.hpp"
#include "soc/t2_design.hpp"
#include "stats_oracle.hpp"
#include "testutil.hpp"

namespace tracesel {
namespace {

using flow::InterleavedFlow;
using flow::ProductStats;
using test::CoherenceFixture;
using test::expect_stats_match_product;

std::vector<flow::MessageId> alphabet(const flow::MessageCatalog& catalog) {
  std::vector<flow::MessageId> ids;
  for (flow::MessageId m = 0; m < catalog.size(); ++m) ids.push_back(m);
  return ids;
}

TEST(ClosedFormStats, MatchesProductOnFigure2) {
  const CoherenceFixture fx;
  for (const std::uint32_t n : {2u, 3u}) {
    SCOPED_TRACE(n);
    expect_stats_match_product(
        InterleavedFlow::build(flow::make_instances({&fx.flow_}, n)),
        alphabet(fx.catalog), n);
  }
  const auto stats = ProductStats::build(flow::make_instances({&fx.flow_}, 2));
  EXPECT_TRUE(stats.closed_form());
  EXPECT_EQ(stats.num_product_states(), 15u);  // Fig. 2
  EXPECT_EQ(stats.num_product_edges(), 18u);
}

TEST(ClosedFormStats, MatchesProductOnT2FlowSpec) {
  const auto spec = flow::parse_flow_spec_file(TRACESEL_DATA_DIR "/t2.flow");
  std::vector<const flow::Flow*> flows;
  for (const flow::Flow& f : spec.flows) flows.push_back(&f);
  expect_stats_match_product(
      InterleavedFlow::build(flow::make_instances(flows, 1)),
      alphabet(spec.catalog), 11);
}

TEST(ClosedFormStats, MatchesProductOnT2Scenarios) {
  const soc::T2Design design;
  for (int id = 1; id <= 4; ++id) {
    SCOPED_TRACE(id);
    expect_stats_match_product(
        soc::build_interleaving(design, soc::scenario_by_id(id)),
        alphabet(design.catalog()), 100 + static_cast<std::uint64_t>(id));
  }
}

TEST(ClosedFormStats, MatchesProductOnUsbDesign) {
  const netlist::UsbDesign usb;
  expect_stats_match_product(usb.interleaving(2), alphabet(usb.catalog()), 7);
}

TEST(ClosedFormStats, MatchesProductOnThreeInstanceT2SubSpec) {
  const soc::T2Design design;
  expect_stats_match_product(
      InterleavedFlow::build(
          flow::make_instances({&design.pior(), &design.piow()}, 3)),
      alphabet(design.catalog()), 13);
}

TEST(ClosedFormStats, MatchesProductOnHeterogeneousInstanceCounts) {
  // 3 x PIOR, 2 x PIOW, 1 x Mon: PIOR and PIOW share index 1 and 2, so
  // their labels' histograms take the convolution over both flows.
  const soc::T2Design design;
  std::vector<flow::IndexedFlow> instances;
  for (std::uint32_t i = 1; i <= 3; ++i)
    instances.push_back({&design.pior(), i});
  for (std::uint32_t i = 1; i <= 2; ++i)
    instances.push_back({&design.piow(), i});
  instances.push_back({&design.mondo(), 1});
  expect_stats_match_product(InterleavedFlow::build(instances),
                             alphabet(design.catalog()), 3);
}

TEST(ClosedFormStats, SelectionMatchesTheProductCountedStatistics) {
  const soc::T2Design design;
  const auto u = soc::build_interleaving(design, soc::scenario_by_id(3));
  const selection::MessageSelector closed(
      design.catalog(), ProductStats::build(u.instances()));
  const selection::MessageSelector counted(design.catalog(),
                                           ProductStats::count(u));
  for (const std::uint32_t budget : {8u, 16u, 32u, 64u}) {
    selection::SelectorConfig cfg;
    cfg.buffer_width = budget;
    const auto a = closed.select(cfg);
    const auto b = counted.select(cfg);
    EXPECT_EQ(a.combination.messages, b.combination.messages) << budget;
    EXPECT_EQ(a.packed, b.packed) << budget;
    EXPECT_EQ(test::bits(a.gain), test::bits(b.gain)) << budget;
    EXPECT_EQ(test::bits(a.coverage), test::bits(b.coverage)) << budget;
    EXPECT_EQ(a.used_width, b.used_width) << budget;
  }
}

TEST(ClosedFormStats, AtomicInitialStateIsCountedInClosedForm) {
  CoherenceFixture fx;
  const flow::Flow f = fx.starts_atomic_flow();
  const std::vector<flow::IndexedFlow> instances{
      {&f, 1}, {&fx.flow_, 1}, {&fx.flow_, 2}};
  // The prefix s0 runs alone; the closed form adds its one tuple and edge.
  EXPECT_TRUE(ProductStats::build(instances).closed_form());
  expect_stats_match_product(InterleavedFlow::build(instances),
                             alphabet(fx.catalog), 5);
  // Two instances starting atomic break the Atom mutex from the start.
  EXPECT_THROW(ProductStats::build({{&f, 1}, {&f, 2}}), std::invalid_argument);
  EXPECT_THROW(InterleavedFlow::build({{&f, 1}, {&f, 2}}),
               std::invalid_argument);
}

TEST(ClosedFormStats, RejectsWhatTheProductRejects) {
  const CoherenceFixture fx;
  EXPECT_THROW(ProductStats::build({}), std::invalid_argument);
  EXPECT_THROW(ProductStats::build({{nullptr, 1}}), std::invalid_argument);
  EXPECT_THROW(ProductStats::build({{&fx.flow_, 1}, {&fx.flow_, 1}}),
               std::invalid_argument);
}

TEST(ClosedFormStats, CountsBeyondSixtyFourBitsAreATypedError) {
  // 50 instances of a flow with 3 non-atomic states: 3^50 > 2^64 tuples.
  const CoherenceFixture fx;
  EXPECT_THROW(ProductStats::build(flow::make_instances({&fx.flow_}, 50)),
               std::overflow_error);
}

}  // namespace
}  // namespace tracesel
