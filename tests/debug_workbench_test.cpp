#include "debug/workbench.hpp"

#include <gtest/gtest.h>

#include "debug/case_study.hpp"
#include "debug/extended_causes.hpp"
#include "flow/parser.hpp"
#include "soc/t2_extended.hpp"

namespace tracesel::debug {
namespace {

class WorkbenchExtendedTest : public ::testing::Test {
 protected:
  WorkbenchExtendedTest()
      : causes_(extended_root_causes(design_)),
        model_(design_.catalog(),
               {&design_.mondo_nack(), &design_.pior_retry()}, 2),
        bench_(model_, causes_) {}

  bug::Bug make_bug(int id, bug::BugEffect effect, flow::MessageId target,
                    std::string symptom) {
    bug::Bug b;
    b.id = id;
    b.effect = effect;
    b.target = target;
    b.symptom = std::move(symptom);
    b.trigger_session = 1;
    return b;
  }

  soc::T2ExtendedDesign design_;
  RootCauseCatalog causes_;
  soc::ScenarioModel model_;
  Workbench bench_;
};

TEST_F(WorkbenchExtendedTest, CatalogHasSevenCauses) {
  EXPECT_EQ(causes_.size(), 7u);
}

TEST_F(WorkbenchExtendedTest, LostRetryLocalizesToCause1) {
  // Extended case study 1: the DMU drops the post-NACK retry request.
  const auto bug = make_bug(100, bug::BugEffect::kDropMessage,
                            design_.reqretry, "HANG: retry lost");
  WorkbenchConfig cfg;
  cfg.sessions = 12;  // enough sessions to take the NACK branch
  const auto r = bench_.run({bug}, cfg);
  ASSERT_TRUE(r.buggy.failed);
  EXPECT_EQ(r.buggy.failure, "HANG: retry lost");
  ASSERT_FALSE(r.report.final_causes.empty());
  bool cause1 = false;
  for (const auto& c : r.report.final_causes)
    if (c.id == 1) cause1 = true;
  EXPECT_TRUE(cause1) << "true cause pruned away";
  EXPECT_LT(r.report.final_causes.size(), causes_.size());
}

TEST_F(WorkbenchExtendedTest, WrongNackLocalizesToCause2) {
  // Extended case study 2: NCU's interrupt table yields garbage NACKs.
  const auto bug = make_bug(101, bug::BugEffect::kCorruptValue,
                            design_.mondonack, "FAIL: Bad Trap");
  WorkbenchConfig cfg;
  cfg.sessions = 12;
  const auto r = bench_.run({bug}, cfg);
  ASSERT_TRUE(r.buggy.failed);
  bool cause2 = false;
  for (const auto& c : r.report.final_causes)
    if (c.id == 2) cause2 = true;
  EXPECT_TRUE(cause2);
  EXPECT_EQ(r.observation.status.at(design_.mondonack),
            MsgStatus::kPresentCorrupt);
}

TEST_F(WorkbenchExtendedTest, GoldenAndBuggyTakeSameBranches) {
  // Deterministic branch choice: with a non-stalling bug the golden and
  // buggy runs emit the same message multiset.
  const auto bug = make_bug(102, bug::BugEffect::kCorruptValue,
                            design_.dmusiidata, "FAIL: Bad Trap");
  WorkbenchConfig cfg;
  cfg.sessions = 8;
  const auto r = bench_.run({bug}, cfg);
  ASSERT_EQ(r.golden.messages.size(), r.buggy.messages.size());
  std::map<flow::MessageId, int> g_count, b_count;
  for (const auto& tm : r.golden.messages) ++g_count[tm.msg.message];
  for (const auto& tm : r.buggy.messages) ++b_count[tm.msg.message];
  EXPECT_EQ(g_count, b_count);
}

TEST_F(WorkbenchExtendedTest, CleanRunObservesHealthyTrace) {
  const auto r = bench_.run({});
  EXPECT_FALSE(r.buggy.failed);
  for (const auto& [m, status] : r.observation.status)
    EXPECT_EQ(status, MsgStatus::kPresentCorrect);
  // A healthy trace legitimately excludes every cause that predicts an
  // anomaly on a traced message; only causes whose suspect messages are
  // all untraced remain "unfalsifiable".
  for (const auto& c : r.report.final_causes) {
    for (const auto& [m, predicted] : c.predictions) {
      if (predicted == MsgStatus::kPresentCorrect) continue;
      EXPECT_EQ(std::find(r.observation.traced.begin(),
                          r.observation.traced.end(), m),
                r.observation.traced.end())
          << "cause " << c.id << " should have been falsified";
    }
  }
}

TEST_F(WorkbenchExtendedTest, RejectsEmptyFlows) {
  EXPECT_THROW(soc::ScenarioModel(design_.catalog(), {}, 2),
               std::invalid_argument);
}

TEST(WorkbenchParsedSpec, RunsOnFlowsFromText) {
  // The workbench works end to end on a user-authored spec.
  static const auto spec = flow::parse_flow_spec(R"(
message go   4 A -> B
message work 8 B -> C
message done 2 C -> A
flow Job {
  state Idle initial
  state Run
  state Fin
  state Done stop
  Idle -> Run on go
  Run -> Fin on work
  Fin -> Done on done
}
)");
  RootCause stuck;
  stuck.id = 1;
  stuck.description = "B never produces work";
  stuck.implication = "job hangs";
  stuck.ip = "B";
  stuck.predictions[spec.catalog.require("work")] = MsgStatus::kAbsent;
  stuck.predictions[spec.catalog.require("done")] = MsgStatus::kAbsent;
  RootCause corrupt;
  corrupt.id = 2;
  corrupt.description = "B corrupts work payload";
  corrupt.implication = "wrong result";
  corrupt.ip = "B";
  corrupt.predictions[spec.catalog.require("work")] =
      MsgStatus::kPresentCorrupt;
  const RootCauseCatalog causes({stuck, corrupt});

  const soc::ScenarioModel model(spec.catalog, {&spec.flows[0]}, 2);
  const Workbench bench(model, causes);
  bug::Bug b;
  b.id = 7;
  b.effect = bug::BugEffect::kDropMessage;
  b.target = spec.catalog.require("work");
  b.symptom = "HANG";
  b.trigger_session = 0;
  WorkbenchConfig cfg;
  cfg.buffer_width = 16;
  const auto r = bench.run({b}, cfg);
  EXPECT_TRUE(r.buggy.failed);
  ASSERT_EQ(r.report.final_causes.size(), 1u);
  EXPECT_EQ(r.report.final_causes[0].id, 1);
}

TEST_F(WorkbenchExtendedTest, ShallowBufferDegradesGracefully) {
  // A 12-entry trace buffer wraps long before the symptom; the pipeline
  // must stay sound (no crash, localization still counts >= 0 paths), and
  // the overwritten evidence may cost pruning power — never gain it.
  const auto bug = make_bug(104, bug::BugEffect::kDropMessage,
                            design_.reqretry, "HANG: retry lost");
  WorkbenchConfig deep, shallow;
  deep.sessions = shallow.sessions = 12;
  shallow.buffer_depth = 12;
  const auto full = bench_.run({bug}, deep);
  const auto wrapped = bench_.run({bug}, shallow);
  EXPECT_TRUE(wrapped.buggy.failed);
  EXPECT_LE(wrapped.buggy_records.size(), 12u);
  EXPECT_GE(wrapped.localization.consistent_paths, 0.0);
  // Wrapping discards evidence: the wrapped run keeps at least as many
  // plausible causes... unless lost golden records fabricate anomalies;
  // either way the report must stay within the catalog.
  EXPECT_LE(wrapped.report.final_causes.size(), causes_.size());
  EXPECT_GE(full.report.pruned_fraction(), 0.0);
}

TEST(WorkbenchT2Parity, CaseStudyWrapperMatchesDirectWorkbench) {
  // run_case_study is a thin wrapper: running the same configuration
  // through Workbench directly must give identical results.
  const soc::T2Design design;
  const auto cs = soc::standard_case_studies()[1];
  const auto via_wrapper = run_case_study(design, cs);

  std::vector<bug::Bug> bugs;
  bug::Bug active = soc::bug_by_id(design, cs.active_bug_id);
  active.trigger_session = 1;
  bugs.push_back(active);
  for (int id : cs.dormant_bug_ids) {
    bug::Bug dormant = soc::bug_by_id(design, id);
    dormant.trigger_session = 4 + 1000;
    bugs.push_back(dormant);
  }
  const auto catalog =
      RootCauseCatalog::for_scenario(design, cs.scenario_id);
  const auto scenario = soc::scenario_by_id(cs.scenario_id);
  const soc::ScenarioModel model(design.catalog(),
                                 soc::scenario_flows(design, scenario),
                                 scenario.instances_per_flow);
  const Workbench bench(model, catalog);
  const auto direct = bench.run(bugs, {});

  EXPECT_EQ(direct.selection.combination.messages,
            via_wrapper.selection.combination.messages);
  EXPECT_EQ(direct.report.final_causes.size(),
            via_wrapper.report.final_causes.size());
  EXPECT_EQ(direct.buggy.failure, via_wrapper.buggy.failure);
  EXPECT_DOUBLE_EQ(direct.localization.fraction,
                   via_wrapper.localization.fraction);
}

}  // namespace
}  // namespace tracesel::debug
