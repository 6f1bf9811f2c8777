#include "debug/case_study.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "util/obs.hpp"

namespace tracesel::debug {
namespace {

class CaseStudyTest : public ::testing::Test {
 protected:
  soc::T2Design design_;
};

TEST_F(CaseStudyTest, AllFiveCaseStudiesFailAndLocalize) {
  for (const auto& cs : soc::standard_case_studies()) {
    const auto r = run_case_study(design_, cs);
    EXPECT_TRUE(r.buggy.failed) << "case " << cs.id;
    EXPECT_FALSE(r.golden.failed) << "case " << cs.id;
    EXPECT_FALSE(r.report.final_causes.empty()) << "case " << cs.id;
    EXPECT_LT(r.report.final_causes.size(), r.report.catalog_size)
        << "case " << cs.id;
  }
}

TEST_F(CaseStudyTest, SimMessagesCounterMatchesBothRuns) {
  // soc.sim.messages counts every emitted message once per simulator run.
  obs::set_enabled(true);
  obs::reset();
  const auto r = run_case_study(design_, soc::standard_case_studies()[0]);
  EXPECT_EQ(obs::registry().counter_value("soc.sim.messages"),
            r.golden.messages.size() + r.buggy.messages.size());
  obs::set_enabled(false);
  obs::reset();
}

TEST_F(CaseStudyTest, SetUpAndWorkbenchStepsNestUnderTheCaseSpan) {
  // Every step of a case study runs inside a named child span, so the
  // case's time splits into its layers.
  obs::set_enabled(true);
  obs::reset();
  (void)run_case_study(design_, soc::standard_case_studies()[0]);
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  obs::set_enabled(false);
  obs::reset();
  const auto only = [&](std::string_view name) {
    const obs::TraceEvent* found = nullptr;
    for (const obs::TraceEvent& e : events) {
      if (e.name != name) continue;
      EXPECT_EQ(found, nullptr) << name << " recorded twice";
      found = &e;
    }
    EXPECT_NE(found, nullptr) << name << " not recorded";
    return found ? *found : obs::TraceEvent{};
  };
  const obs::TraceEvent root = only("debug.case_study");
  ASSERT_NE(root.span_id, 0u);
  EXPECT_EQ(only("debug.setup").parent_id, root.span_id);
  const obs::TraceEvent workbench = only("debug.workbench");
  EXPECT_EQ(workbench.parent_id, root.span_id);
  for (const char* step :
       {"debug.select", "debug.simulate", "debug.trace_buffer",
        "debug.capture", "debug.root_cause", "debug.localize"})
    EXPECT_EQ(only(step).parent_id, workbench.span_id) << step;
}

TEST_F(CaseStudyTest, WarmRunReadsItsScenarioModel) {
  // A second run of a case on the same design reads the model the first
  // run built: selection and localization still run inside the workbench
  // span, and neither the statistics nor the state grid is rebuilt.
  const soc::CaseStudy cs = soc::standard_case_studies()[0];
  (void)run_case_study(design_, cs);
  obs::set_enabled(true);
  obs::reset();
  (void)run_case_study(design_, cs);
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  obs::set_enabled(false);
  obs::reset();
  std::uint64_t workbench = 0;
  for (const obs::TraceEvent& e : events)
    if (std::string_view(e.name) == "debug.workbench") workbench = e.span_id;
  ASSERT_NE(workbench, 0u);
  std::size_t steps = 0;
  for (const obs::TraceEvent& e : events) {
    const std::string_view name = e.name;
    EXPECT_NE(name, "interleave.stats");
    EXPECT_NE(name, "interleave.grid");
    if (name != "debug.select" && name != "debug.localize") continue;
    EXPECT_EQ(e.parent_id, workbench) << name;
    ++steps;
  }
  EXPECT_EQ(steps, 2u);
}

TEST_F(CaseStudyTest, EachScenarioModelIsBuiltOncePerDesign) {
  // Cases 1-5 cover scenarios 1-3; over three trial seeds each, one
  // design builds three models.
  obs::set_enabled(true);
  obs::reset();
  for (const soc::CaseStudy& cs : soc::standard_case_studies()) {
    for (const std::uint64_t seed : {2018u, 7u, 42u}) {
      CaseStudyOptions options;
      options.seed = seed;
      (void)run_case_study(design_, cs, options);
    }
  }
  EXPECT_EQ(obs::registry().counter_value("debug.scenario.builds"), 3u);
  obs::set_enabled(false);
  obs::reset();
}

TEST_F(CaseStudyTest, PruningIsSubstantial) {
  // Fig. 7: average 78.89% of candidate root causes pruned, max 88.89%.
  double total = 0.0;
  double best = 0.0;
  for (const auto& cs : soc::standard_case_studies()) {
    const auto r = run_case_study(design_, cs);
    total += r.report.pruned_fraction();
    best = std::max(best, r.report.pruned_fraction());
  }
  EXPECT_GT(total / 5.0, 0.6);
  EXPECT_NEAR(best, 8.0 / 9.0, 1e-9);  // 88.89%
}

TEST_F(CaseStudyTest, PackingNeverHurtsSelectionQuality) {
  for (const auto& cs : soc::standard_case_studies()) {
    CaseStudyOptions wp, wop;
    wop.packing = false;
    const auto with = run_case_study(design_, cs, wp);
    const auto without = run_case_study(design_, cs, wop);
    EXPECT_GE(with.selection.utilization(),
              without.selection.utilization())
        << cs.id;
    EXPECT_GE(with.selection.coverage, without.selection.coverage) << cs.id;
    EXPECT_GE(with.report.pruned_fraction(),
              without.report.pruned_fraction())
        << cs.id;
  }
}

TEST_F(CaseStudyTest, CaseStudy1ReproducesSection57Narrative) {
  // The dropped Mondo interrupt: with packing, the cputhreadid subgroup of
  // dmusiidata is traced; its absence pins the root cause to
  // "non-generation of Mondo interrupt by DMU" (1 of 9 causes, 88.89%).
  const auto cases = soc::standard_case_studies();
  const auto r = run_case_study(design_, cases[0]);
  EXPECT_EQ(r.buggy.failure, "FAIL: Bad Trap");
  ASSERT_EQ(r.report.final_causes.size(), 1u);
  EXPECT_EQ(r.report.final_causes[0].id, 3);
  EXPECT_NEAR(r.report.pruned_fraction(), 8.0 / 9.0, 1e-9);
  // Observed statuses match the narrative: dmusiidata/siincu/mondoacknack
  // never arrived.
  EXPECT_EQ(r.observation.status.at(design_.dmusiidata), MsgStatus::kAbsent);
  EXPECT_EQ(r.observation.status.at(design_.siincu), MsgStatus::kAbsent);
  EXPECT_EQ(r.observation.status.at(design_.mondoacknack),
            MsgStatus::kAbsent);

  // Without packing dmusiidata is invisible and two causes survive.
  CaseStudyOptions wop;
  wop.packing = false;
  const auto r2 = run_case_study(design_, cases[0], wop);
  EXPECT_EQ(r2.report.final_causes.size(), 2u);
}

TEST_F(CaseStudyTest, LocalizationFractionSmallAndSound) {
  for (const auto& cs : soc::standard_case_studies()) {
    const auto r = run_case_study(design_, cs);
    EXPECT_GT(r.localization.total_paths, 0.0) << cs.id;
    EXPECT_GE(r.localization.consistent_paths, 1.0)
        << "true execution must stay consistent, case " << cs.id;
    // Table 3: no more than 6.11% of paths ever needed exploring.
    EXPECT_LT(r.localization.fraction, 0.0611) << cs.id;
  }
}

TEST_F(CaseStudyTest, DebugStepsEliminateMonotonically) {
  // Fig. 6: candidate causes and IP pairs shrink (weakly) with every
  // investigated message.
  for (const auto& cs : soc::standard_case_studies()) {
    const auto r = run_case_study(design_, cs);
    for (std::size_t i = 1; i < r.report.steps.size(); ++i) {
      EXPECT_LE(r.report.steps[i].plausible_causes,
                r.report.steps[i - 1].plausible_causes)
          << cs.id;
      EXPECT_LE(r.report.steps[i].candidate_pairs,
                r.report.steps[i - 1].candidate_pairs)
          << cs.id;
    }
  }
}

TEST_F(CaseStudyTest, InvestigationCountsWithinBounds) {
  for (const auto& cs : soc::standard_case_studies()) {
    const auto r = run_case_study(design_, cs);
    EXPECT_GT(r.report.messages_investigated, 0u) << cs.id;
    EXPECT_LE(r.report.pairs_investigated, r.report.legal_pairs) << cs.id;
    EXPECT_GE(r.report.pairs_investigated, 1u) << cs.id;
  }
}

TEST_F(CaseStudyTest, DeterministicAcrossRuns) {
  const auto cs = soc::standard_case_studies()[2];
  const auto a = run_case_study(design_, cs);
  const auto b = run_case_study(design_, cs);
  EXPECT_EQ(a.report.final_causes.size(), b.report.final_causes.size());
  EXPECT_EQ(a.report.messages_investigated, b.report.messages_investigated);
  EXPECT_EQ(a.selection.combination.messages,
            b.selection.combination.messages);
  EXPECT_DOUBLE_EQ(a.localization.fraction, b.localization.fraction);
}

TEST_F(CaseStudyTest, DormantBugsDoNotPerturbTrace) {
  // A case study's dormant bugs arm beyond the run horizon; the buggy
  // trace must differ from golden only through the active bug's target
  // flow. Case 3's active bug corrupts ccxdreq (NCUD flow); the Mon flow
  // stays clean.
  const auto cs = soc::standard_case_studies()[2];
  const auto r = run_case_study(design_, cs);
  EXPECT_EQ(r.observation.status.at(design_.mondoacknack),
            MsgStatus::kPresentCorrect);
  EXPECT_EQ(r.observation.status.at(design_.ccxdreq),
            MsgStatus::kPresentCorrupt);
}

TEST_F(CaseStudyTest, BufferWidthSweepKeepsInvariants) {
  const auto cs = soc::standard_case_studies()[0];
  double last_coverage = -1.0;
  for (std::uint32_t width : {16u, 24u, 32u, 48u, 64u}) {
    CaseStudyOptions opt;
    opt.buffer_width = width;
    const auto r = run_case_study(design_, cs, opt);
    EXPECT_LE(r.selection.used_width, width);
    // Wider buffers never reduce achievable coverage.
    EXPECT_GE(r.selection.coverage, last_coverage - 1e-12) << width;
    last_coverage = r.selection.coverage;
  }
}

}  // namespace
}  // namespace tracesel::debug
