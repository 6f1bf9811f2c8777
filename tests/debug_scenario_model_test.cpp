// One ScenarioModel per scenario, shared by every case study on a design:
// a warm model answers byte for byte what a fresh one does, and one design
// serves concurrent case studies (scripts/check.sh runs this suite under
// ThreadSanitizer).

#include "soc/scenario_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "debug/case_study.hpp"
#include "debug/serialize.hpp"

namespace tracesel::debug {
namespace {

/// The `tracesel debug --json` bytes of one case study on `design`.
std::string report(const soc::T2Design& design, const soc::CaseStudy& cs,
                   std::uint64_t seed, std::uint32_t buffer_width) {
  CaseStudyOptions options;
  options.seed = seed;
  options.buffer_width = buffer_width;
  return report_text(design.catalog(), run_case_study(design, cs, options));
}

TEST(SharedScenarioModel, WarmDesignMatchesAFreshDesignPerRun) {
  // Every run on `shared` after the first of its scenario reads a warm
  // model, and from the second width on a warm selection memo too.
  const soc::T2Design shared;
  for (const soc::CaseStudy& cs : soc::standard_case_studies()) {
    for (const std::uint64_t seed : {2018u, 7u, 42u}) {
      for (const std::uint32_t width : {16u, 32u, 64u}) {
        const soc::T2Design fresh;
        EXPECT_EQ(report(shared, cs, seed, width),
                  report(fresh, cs, seed, width))
            << "case " << cs.id << " seed " << seed << " width " << width;
      }
    }
  }
}

TEST(SharedScenarioModel, ConcurrentCaseStudiesMatchTheirSerialRuns) {
  // Four threads run case studies 1-5 on one design, each at its own
  // buffer width and from its own first case, so they race to build the
  // scenario models and to fill their selection memos.
  constexpr std::uint32_t kWidths[] = {16, 32, 64, 32};
  constexpr std::size_t kThreads = std::size(kWidths);
  const std::vector<soc::CaseStudy> studies = soc::standard_case_studies();

  std::vector<std::vector<std::string>> serial(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const soc::CaseStudy& cs : studies) {
      const soc::T2Design own;
      serial[t].push_back(report(own, cs, 2018, kWidths[t]));
    }
  }

  const soc::T2Design shared;
  std::vector<std::vector<std::string>> got(
      kThreads, std::vector<std::string>(studies.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < studies.size(); ++i) {
        const std::size_t c = (i + t) % studies.size();
        got[t][c] = report(shared, studies[c], 2018, kWidths[t]);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t c = 0; c < studies.size(); ++c)
      EXPECT_EQ(got[t][c], serial[t][c])
          << "thread " << t << " case " << studies[c].id;
}

TEST(SharedScenarioModel, SelectionsPastTheCapAreComputedNotStored) {
  // Past kMaxSelections distinct (width, packing) pairs the model still
  // answers each one exactly as a fresh model does.
  const soc::T2Design design;
  const soc::ScenarioModel& model = design.scenario_model(1);
  const auto n =
      static_cast<std::uint32_t>(soc::ScenarioModel::kMaxSelections);
  constexpr std::uint32_t kFirst = 16;  // every scenario fits a message
  for (std::uint32_t width = kFirst; width < kFirst + n; ++width)
    (void)model.select(width, true);
  const soc::ScenarioModel fresh(model.catalog(), model.flows(),
                                 model.instances_per_flow());
  for (const std::uint32_t width : {kFirst + n, kFirst + n + 1, 32u}) {
    for (const bool packing : {true, false}) {
      const selection::SelectionResult a = model.select(width, packing);
      const selection::SelectionResult b = fresh.select(width, packing);
      EXPECT_EQ(report_text(model.catalog(), a),
                report_text(fresh.catalog(), b))
          << width << (packing ? " packed" : " unpacked");
    }
  }
}

TEST(SharedScenarioModel, UnknownScenarioIdIsOutOfRange) {
  const soc::T2Design design;
  EXPECT_THROW((void)design.scenario_model(0), std::out_of_range);
  EXPECT_THROW((void)design.scenario_model(5), std::out_of_range);
  EXPECT_EQ(&design.scenario_model(2), &design.scenario_model(2));
}

}  // namespace
}  // namespace tracesel::debug
