// Extension experiments: debugging case studies on the *branching* flow
// variants (MonNack, PiorRetry) that go beyond the paper's linear Table 1
// flows. Branch evidence ("the NACK was seen but the retry never
// followed") is only expressible with alternative outcomes — these runs
// show the selection/pruning machinery handles it.

#include <iostream>

#include "bench_util.hpp"
#include "debug/extended_causes.hpp"
#include "debug/workbench.hpp"
#include "debug/case_study.hpp"
#include "soc/t2_extended.hpp"

int main() {
  using namespace tracesel;
  bench::banner("Extension: branching-flow case studies",
                "MonNack ||| PiorRetry with NACK/retry bugs (beyond the "
                "paper's linear flows)");

  soc::T2ExtendedDesign design;
  const auto causes = debug::extended_root_causes(design);
  const soc::ScenarioModel model(
      design.catalog(), {&design.mondo_nack(), &design.pior_retry()}, 2);
  const debug::Workbench bench(model, causes);

  struct ExtendedCase {
    const char* name;
    bug::Bug bug;
  };
  std::vector<ExtendedCase> cases;
  {
    bug::Bug lost_retry;
    lost_retry.id = 100;
    lost_retry.effect = bug::BugEffect::kDropMessage;
    lost_retry.target = design.reqretry;
    lost_retry.symptom = "HANG: retry lost";
    lost_retry.trigger_session = 1;
    cases.push_back({"X1: retry lost after NACK", lost_retry});

    bug::Bug wrong_nack;
    wrong_nack.id = 101;
    wrong_nack.effect = bug::BugEffect::kCorruptValue;
    wrong_nack.target = design.mondonack;
    wrong_nack.symptom = "FAIL: Bad Trap";
    wrong_nack.trigger_session = 1;
    cases.push_back({"X2: wrong NACK decision", wrong_nack});

    bug::Bug dropped_pioretry;
    dropped_pioretry.id = 102;
    dropped_pioretry.effect = bug::BugEffect::kDropMessage;
    dropped_pioretry.target = design.pioretry;
    dropped_pioretry.symptom = "HANG: PIO retry abandoned";
    dropped_pioretry.trigger_session = 1;
    cases.push_back({"X3: PIO retry abandoned", dropped_pioretry});
  }

  util::Table table({"Case", "Symptom", "Anomalies observed",
                     "Plausible causes", "Pruned", "Diagnosis"});
  for (const auto& c : cases) {
    debug::WorkbenchConfig cfg;
    cfg.sessions = 12;
    const auto r = bench.run({c.bug}, cfg);
    std::string anomalies;
    for (const auto& [m, status] : r.observation.status) {
      if (status == debug::MsgStatus::kPresentCorrect) continue;
      if (!anomalies.empty()) anomalies += ' ';
      anomalies += design.catalog().get(m).name + '=' +
                   debug::to_string(status);
    }
    std::string diagnosis;
    for (const auto& cause : r.report.final_causes) {
      if (!diagnosis.empty()) diagnosis += " / ";
      diagnosis += cause.description;
    }
    table.add_row({c.name,
                   r.buggy.failed ? r.buggy.failure : "none",
                   anomalies.empty() ? "-" : anomalies,
                   std::to_string(r.report.final_causes.size()),
                   util::pct(r.report.pruned_fraction()), diagnosis});
  }
  std::cout << table << '\n';

  // --- DMA extension case studies (scenario 4, Sec. 5.7's DMA interplay) ---
  soc::T2Design t2;
  util::Table dma({"Case", "Symptom", "Plausible causes", "Pruned",
                   "Diagnosis"});
  for (const auto& cs : soc::extension_case_studies()) {
    const auto r = debug::run_case_study(t2, cs);
    std::string diagnosis;
    for (const auto& cause : r.report.final_causes) {
      if (!diagnosis.empty()) diagnosis += " / ";
      diagnosis += cause.description;
    }
    dma.add_row({"X" + std::to_string(cs.id) + ": " + cs.root_cause,
                 r.buggy.failed ? r.buggy.failure : "none",
                 std::to_string(r.report.final_causes.size()),
                 util::pct(r.report.pruned_fraction()), diagnosis});
  }
  std::cout << "DMA extension scenario (DMAR ||| DMAW ||| Mon):\n" << dma
            << '\n';

  bench::note("branch messages carry localization power: reqretry absent "
              "while mondonack present pins the loss to the DMU retry "
              "path, which a linear Mondo flow could not express");
  return 0;
}
