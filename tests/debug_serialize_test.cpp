#include "debug/serialize.hpp"

#include <gtest/gtest.h>

#include "debug/case_study.hpp"
#include "selection/multi_scenario.hpp"
#include "soc/scenario.hpp"

namespace tracesel::debug {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  soc::T2Design design_;
};

TEST_F(SerializeTest, SelectionResultJson) {
  const auto u = soc::build_interleaving(design_, soc::scenario1());
  const selection::MessageSelector selector(design_.catalog(), u);
  const auto r = selector.select({});
  const std::string json = selection::to_json(design_.catalog(), r).dump();
  EXPECT_NE(json.find("\"messages\":["), std::string::npos);
  EXPECT_NE(json.find("\"mondoacknack\""), std::string::npos);
  EXPECT_NE(json.find("\"packed\":[{\"parent\":\"dmusiidata\""),
            std::string::npos);
  EXPECT_NE(json.find("\"utilization\":1"), std::string::npos);
}

TEST_F(SerializeTest, MultiScenarioJson) {
  const auto s1 = flow::ProductStats::build(
      soc::scenario_instances(design_, soc::scenario1()));
  const auto s2 = flow::ProductStats::build(
      soc::scenario_instances(design_, soc::scenario2()));
  const selection::MultiScenarioSelector multi(design_.catalog(),
                                               {{&s1, 1.0}, {&s2, 1.0}});
  selection::SelectorConfig config;
  config.buffer_width = 32;
  const auto r = multi.select(config);
  const std::string json = selection::to_json(design_.catalog(), r).dump();
  EXPECT_NE(json.find("\"per_scenario_coverage\":["), std::string::npos);
  EXPECT_NE(json.find("\"weighted_gain\":"), std::string::npos);
}

TEST_F(SerializeTest, WorkbenchResultJson) {
  const auto cs = soc::standard_case_studies()[0];
  const auto r = run_case_study(design_, cs);
  // A CaseStudyResult is a WorkbenchResult.
  const std::string json = to_json(design_.catalog(), r).dump();
  EXPECT_NE(json.find("\"failure\":\"FAIL: Bad Trap\""), std::string::npos);
  EXPECT_NE(json.find("\"dmusiidata\":\"absent\""), std::string::npos);
  EXPECT_NE(json.find("\"pruned_fraction\":0.888"), std::string::npos);
  EXPECT_NE(json.find("\"investigation\":["), std::string::npos);
  EXPECT_NE(json.find("\"plausible_causes\":[{\"id\":3"), std::string::npos);
  EXPECT_NE(json.find("\"localization\":{"), std::string::npos);
}

TEST_F(SerializeTest, JsonIsDeterministic) {
  const auto cs = soc::standard_case_studies()[1];
  const auto a = run_case_study(design_, cs);
  const auto b = run_case_study(design_, cs);
  EXPECT_EQ(selection::to_json(design_.catalog(), a.selection).dump(),
            selection::to_json(design_.catalog(), b.selection).dump());
}

}  // namespace
}  // namespace tracesel::debug
