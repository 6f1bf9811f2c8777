#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "debug/serialize.hpp"
#include "selection/selector.hpp"
#include "soc/scenario.hpp"
#include "util/atomic_file.hpp"
#include "util/obs.hpp"

namespace tracesel::selection {
namespace {

class FlowConstraintTest : public ::testing::Test {
 protected:
  FlowConstraintTest()
      : u_(soc::build_interleaving(design_, soc::scenario1())),
        selector_(design_.catalog(), u_) {}

  bool flow_represented(const char* flow_name,
                        const SelectionResult& r) const {
    const flow::Flow& f = design_.flow_by_name(flow_name);
    for (const flow::MessageId m : r.observable()) {
      if (f.uses_message(m)) return true;
    }
    return false;
  }

  soc::T2Design design_;
  flow::InterleavedFlow u_;
  MessageSelector selector_;
};

TEST_F(FlowConstraintTest, TightBudgetLeavesFlowsDarkWithoutConstraint) {
  // At 8 bits the pure-gain optimum watches only the narrow Mon messages.
  SelectorConfig cfg;
  cfg.buffer_width = 8;
  const auto r = selector_.select(cfg);
  EXPECT_FALSE(flow_represented("PIOR", r) && flow_represented("PIOW", r) &&
               flow_represented("Mon", r))
      << "expected at least one dark flow at 8 bits";
}

TEST_F(FlowConstraintTest, ConstraintRepairsDarkFlows) {
  SelectorConfig cfg;
  cfg.buffer_width = 12;
  const auto r = selector_.select_with_flow_constraint(cfg);
  EXPECT_TRUE(flow_represented("PIOR", r));
  EXPECT_TRUE(flow_represented("PIOW", r));
  EXPECT_TRUE(flow_represented("Mon", r));
  EXPECT_LE(r.used_width, cfg.buffer_width);
}

TEST_F(FlowConstraintTest, NoRepairWhenAlreadyRepresented) {
  // At 32 bits the unconstrained optimum already touches every flow; the
  // constrained selection must be identical.
  SelectorConfig cfg;
  const auto plain = selector_.select(cfg);
  const auto constrained = selector_.select_with_flow_constraint(cfg);
  EXPECT_EQ(plain.combination.messages, constrained.combination.messages);
  EXPECT_DOUBLE_EQ(plain.gain, constrained.gain);
}

TEST_F(FlowConstraintTest, NoRepairRunsStepsTwoAndThreeOnce) {
  // With every flow already represented the search's result is returned
  // as is: one winner evaluation and one Step 3 run in the counters.
  obs::set_enabled(true);
  obs::reset();
  const auto r = selector_.select_with_flow_constraint(SelectorConfig{});
  EXPECT_EQ(obs::registry().counter_value("selection.gain.evals"), 1u);
  EXPECT_EQ(obs::registry().counter_value("selection.packed"),
            r.packed.size());
  obs::set_enabled(false);
}

TEST_F(FlowConstraintTest, RepairCostsGainButBuysRepresentation) {
  SelectorConfig cfg;
  cfg.buffer_width = 12;
  cfg.packing = false;
  const auto plain = selector_.select(cfg);
  const auto constrained = selector_.select_with_flow_constraint(cfg);
  // The constraint can only lose gain relative to the optimum.
  EXPECT_LE(constrained.gain, plain.gain + 1e-12);
}

TEST_F(FlowConstraintTest, ThrowsWhenFlowCannotFit) {
  // Buffer of 3 bits: PIOW's narrowest message (piowcrd, 4b) cannot fit.
  SelectorConfig cfg;
  cfg.buffer_width = 3;
  EXPECT_THROW(selector_.select_with_flow_constraint(cfg),
               std::runtime_error);
}

TEST_F(FlowConstraintTest, WidthStaysWithinBudgetAcrossSweep) {
  for (std::uint32_t width : {12u, 16u, 20u, 24u, 32u, 48u}) {
    SelectorConfig cfg;
    cfg.buffer_width = width;
    const auto r = selector_.select_with_flow_constraint(cfg);
    EXPECT_LE(r.used_width, width) << width;
    for (const char* name : {"PIOR", "PIOW", "Mon"})
      EXPECT_TRUE(flow_represented(name, r)) << name << " @" << width;
  }
}

/// The flow-constrained selection of one T2 scenario at widths
/// {8, 12, 16, 32}, with and without packing, as one JSON document: each
/// run's report, or the error it throws.
std::string flow_constraint_reports(int scenario) {
  const soc::T2Design design;
  const MessageSelector selector(
      design.catalog(),
      flow::ProductStats::build(soc::scenario_instances(
          design, soc::scenario_by_id(scenario))));
  util::Json runs = util::Json::array();
  for (const std::uint32_t width : {8u, 12u, 16u, 32u}) {
    for (const bool packing : {true, false}) {
      SelectorConfig cfg;
      cfg.buffer_width = width;
      cfg.packing = packing;
      util::Json run = util::Json::object();
      run.set("buffer", util::Json::number(std::uint64_t{width}));
      run.set("packing", util::Json::boolean(packing));
      try {
        run.set("report", to_json(design.catalog(),
                                  selector.select_with_flow_constraint(cfg)));
      } catch (const std::runtime_error& e) {
        run.set("error", util::Json::string(e.what()));
      }
      runs.push_back(std::move(run));
    }
  }
  return runs.dump(2) + "\n";
}

TEST(FlowConstraintGolden, T2ScenariosMatchTheCommittedReports) {
  // Every repaired selection (and every repair that cannot be made), byte
  // for byte, against the committed references.
  for (int scenario = 1; scenario <= 4; ++scenario) {
    const std::string path = std::string(TRACESEL_GOLDEN_DIR) +
                             "/select-flow-constraint-s" +
                             std::to_string(scenario) + ".json";
    const auto golden = util::read_file_capped(path, 1u << 20);
    ASSERT_TRUE(golden.ok()) << golden.error().to_string();
    EXPECT_EQ(flow_constraint_reports(scenario), golden.value()) << path;
  }
}

}  // namespace
}  // namespace tracesel::selection
