#include "soc/t2_design.hpp"

#include <gtest/gtest.h>

#include "flow/product_stats.hpp"
#include "soc/scenario.hpp"

namespace tracesel::soc {
namespace {

class T2DesignTest : public ::testing::Test {
 protected:
  T2Design design_;
};

TEST_F(T2DesignTest, FlowShapesMatchTable1) {
  // Table 1 annotates flows with (#states, #messages).
  EXPECT_EQ(design_.pior().num_states(), 6u);
  EXPECT_EQ(design_.pior().messages().size(), 5u);
  EXPECT_EQ(design_.piow().num_states(), 3u);
  EXPECT_EQ(design_.piow().messages().size(), 2u);
  EXPECT_EQ(design_.ncuu().num_states(), 4u);
  EXPECT_EQ(design_.ncuu().messages().size(), 3u);
  EXPECT_EQ(design_.ncud().num_states(), 3u);
  EXPECT_EQ(design_.ncud().messages().size(), 2u);
  EXPECT_EQ(design_.mondo().num_states(), 6u);
  EXPECT_EQ(design_.mondo().messages().size(), 5u);
}

TEST_F(T2DesignTest, DmusiidataMatchesPaper) {
  // Sec. 3.3: dmusiidata is 20 bits; cputhreadid, a subgroup, is 6 bits.
  const flow::Message& m = design_.catalog().get(design_.dmusiidata);
  EXPECT_EQ(m.width, 20u);
  EXPECT_EQ(m.source_ip, "DMU");
  bool found = false;
  for (const auto& sg : m.subgroups) {
    if (sg.name == "cputhreadid") {
      EXPECT_EQ(sg.width, 6u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(T2DesignTest, CatalogHasTwentyFourMessages) {
  EXPECT_EQ(design_.catalog().size(), 24u);
}

TEST_F(T2DesignTest, FlowByNameRoundTrips) {
  EXPECT_EQ(design_.flow_by_name("PIOR").name(), "PIOR");
  EXPECT_EQ(design_.flow_by_name("Mon").name(), "Mon");
  EXPECT_THROW(design_.flow_by_name("XYZ"), std::out_of_range);
}

TEST_F(T2DesignTest, MessagesRouteBetweenScenarioIps) {
  // Every message's endpoints are among the six modeled IPs.
  const std::vector<std::string> ips{"NCU", "DMU", "SIU", "MCU", "CCX",
                                     "CPU"};
  for (const flow::Message& m : design_.catalog()) {
    EXPECT_NE(std::find(ips.begin(), ips.end(), m.source_ip), ips.end())
        << m.name;
    EXPECT_NE(std::find(ips.begin(), ips.end(), m.dest_ip), ips.end())
        << m.name;
    EXPECT_NE(m.source_ip, m.dest_ip) << m.name;
  }
}

TEST_F(T2DesignTest, MondoFlowFollowsPaperSequence) {
  // Sec. 5.7: reqtot -> grant -> dmusiidata -> siincu -> mondoacknack.
  const flow::Flow& mon = design_.mondo();
  const auto& ts = mon.transitions();
  ASSERT_EQ(ts.size(), 5u);
  EXPECT_EQ(ts[0].message, design_.reqtot);
  EXPECT_EQ(ts[1].message, design_.grant);
  EXPECT_EQ(ts[2].message, design_.dmusiidata);
  EXPECT_EQ(ts[3].message, design_.siincu);
  EXPECT_EQ(ts[4].message, design_.mondoacknack);
}

TEST_F(T2DesignTest, EveryFlowHasOneAtomicStateAtMost) {
  for (const char* name : {"PIOR", "PIOW", "NCUU", "NCUD", "Mon"}) {
    EXPECT_LE(design_.flow_by_name(name).atomic_states().size(), 1u) << name;
  }
}

class ScenarioTest : public ::testing::Test {
 protected:
  T2Design design_;
};

TEST_F(ScenarioTest, Table1ScenarioDefinitions) {
  const Scenario s1 = scenario1();
  EXPECT_EQ(s1.flow_names,
            (std::vector<std::string>{"PIOR", "PIOW", "Mon"}));
  EXPECT_EQ(s1.num_root_causes, 9u);
  const Scenario s2 = scenario2();
  EXPECT_EQ(s2.flow_names,
            (std::vector<std::string>{"NCUU", "NCUD", "Mon"}));
  EXPECT_EQ(s2.num_root_causes, 8u);
  const Scenario s3 = scenario3();
  EXPECT_EQ(s3.flow_names,
            (std::vector<std::string>{"PIOR", "PIOW", "NCUU", "NCUD"}));
  EXPECT_EQ(s3.num_root_causes, 9u);
}

TEST_F(ScenarioTest, ScenarioByIdMatchesFactories) {
  EXPECT_EQ(scenario_by_id(1).name, scenario1().name);
  EXPECT_EQ(scenario_by_id(3).flow_names, scenario3().flow_names);
  EXPECT_THROW(scenario_by_id(0), std::out_of_range);
  EXPECT_EQ(scenario_by_id(4).flow_names,
            (std::vector<std::string>{"DMAR", "DMAW", "Mon"}));
  EXPECT_THROW(scenario_by_id(5), std::out_of_range);
}

TEST_F(ScenarioTest, AllScenariosListsThree) {
  EXPECT_EQ(all_scenarios().size(), 3u);
}

TEST_F(ScenarioTest, ScenarioFlowsResolve) {
  const auto flows = scenario_flows(design_, scenario3());
  ASSERT_EQ(flows.size(), 4u);
  EXPECT_EQ(flows[0]->name(), "PIOR");
  EXPECT_EQ(flows[3]->name(), "NCUD");
}

TEST_F(ScenarioTest, InterleavingBuildsForEveryScenario) {
  for (const Scenario& s : all_scenarios()) {
    const auto u = build_interleaving(design_, s);
    EXPECT_GT(u.num_nodes(), 0u) << s.name;
    EXPECT_GT(u.num_edges(), 0u) << s.name;
    EXPECT_FALSE(u.stop_nodes().empty()) << s.name;
    // 2 instances of each flow participate.
    EXPECT_EQ(u.instances().size(), s.flow_names.size() * 2) << s.name;
  }
}

TEST_F(ScenarioTest, InterleavingSizesAreStable) {
  // Regression pin: product sizes for the three scenarios (2 instances),
  // pinned to the seed's numbers.
  const auto u1 = build_interleaving(design_, scenario1());
  EXPECT_EQ(u1.num_product_states(), 10125u);
  EXPECT_EQ(u1.num_product_edges(), 30000u);
  const auto u2 = build_interleaving(design_, scenario2());
  EXPECT_EQ(u2.num_product_states(), 4185u);
  const auto u3 = build_interleaving(design_, scenario3());
  EXPECT_EQ(u3.num_product_states(), 37665u);

  // The product materializes every state; the closed form counts the same.
  EXPECT_EQ(u1.num_nodes(), 10125u);
  EXPECT_EQ(u1.num_edges(), 30000u);
  const auto stats =
      flow::ProductStats::build(scenario_instances(design_, scenario1()));
  EXPECT_EQ(stats.num_product_states(), 10125u);
  EXPECT_EQ(stats.num_product_edges(), 30000u);
}

}  // namespace
}  // namespace tracesel::soc
