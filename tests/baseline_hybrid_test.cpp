#include "baseline/hybrid.hpp"

#include <gtest/gtest.h>

#include "netlist/usb_design.hpp"

namespace tracesel::baseline {
namespace {

class HybridTest : public ::testing::Test {
 protected:
  netlist::UsbDesign usb_;
  flow::ProductStats stats_ = flow::ProductStats::build(
      flow::make_instances({&usb_.rx_flow(), &usb_.tx_flow()}, 2));
};

TEST_F(HybridTest, FillsLeftoverWithFlops) {
  HybridOptions opt;
  opt.buffer_width = 32;
  const auto r = select_hybrid(usb_.catalog(), stats_, usb_.netlist(), opt);
  // All 10 USB messages fit in 26 bits; the remaining 6 go to flops.
  EXPECT_EQ(r.messages.combination.messages.size(), 10u);
  EXPECT_EQ(r.extra_flops.size(),
            32u - r.messages.used_width);
  EXPECT_EQ(r.used_width, 32u);
  EXPECT_DOUBLE_EQ(r.utilization(32), 1.0);
  EXPECT_GE(r.srr, 1.0);
}

TEST_F(HybridTest, MessagesKeepPriority) {
  // The hybrid never sacrifices message coverage: its message set equals
  // the message-only selection.
  HybridOptions opt;
  opt.buffer_width = 32;
  const auto hybrid =
      select_hybrid(usb_.catalog(), stats_, usb_.netlist(), opt);
  const selection::MessageSelector selector(usb_.catalog(), stats_);
  const auto alone = selector.select({});
  EXPECT_EQ(hybrid.messages.combination.messages,
            alone.combination.messages);
  EXPECT_DOUBLE_EQ(hybrid.messages.coverage, alone.coverage);
}

TEST_F(HybridTest, NoLeftoverNoFlops) {
  HybridOptions opt;
  opt.buffer_width = 26;  // exactly the message width
  const auto r = select_hybrid(usb_.catalog(), stats_, usb_.netlist(), opt);
  EXPECT_EQ(r.messages.used_width, 26u);
  EXPECT_TRUE(r.extra_flops.empty());
  EXPECT_DOUBLE_EQ(r.srr, 0.0);
}

TEST_F(HybridTest, ExtraFlopsAreRealFlops) {
  HybridOptions opt;
  opt.buffer_width = 40;
  const auto r = select_hybrid(usb_.catalog(), stats_, usb_.netlist(), opt);
  EXPECT_FALSE(r.extra_flops.empty());
  for (const auto f : r.extra_flops)
    EXPECT_EQ(usb_.netlist().gate(f).type, netlist::GateType::kFlop);
  // No duplicates.
  auto sorted = r.extra_flops;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST_F(HybridTest, DeterministicForSeed) {
  HybridOptions opt;
  opt.buffer_width = 36;
  const auto a = select_hybrid(usb_.catalog(), stats_, usb_.netlist(), opt);
  const auto b = select_hybrid(usb_.catalog(), stats_, usb_.netlist(), opt);
  EXPECT_EQ(a.extra_flops, b.extra_flops);
  EXPECT_DOUBLE_EQ(a.srr, b.srr);
}

}  // namespace
}  // namespace tracesel::baseline
