// The job-count contract of the facade and of the loops that fan out over
// a worker pool (multi-scenario coverage, Monte-Carlo trials): results are
// bit-identical for every SelectorConfig::jobs value. Also pins the serial
// Step 1 combination cap.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "debug/monte_carlo.hpp"
#include "flow/parser.hpp"
#include "netlist/usb_design.hpp"
#include "selection/multi_scenario.hpp"
#include "selection/selector.hpp"
#include "soc/scenario.hpp"
#include "testutil.hpp"
#include "tracesel/session.hpp"

namespace tracesel::selection {
namespace {

using test::CoherenceFixture;

void expect_identical(const SelectionResult& a, const SelectionResult& b) {
  EXPECT_EQ(a.combination.messages, b.combination.messages);
  EXPECT_EQ(a.combination.width, b.combination.width);
  EXPECT_EQ(a.packed, b.packed);
  // EXPECT_EQ on doubles is exact: the contract is bit-identity, not
  // tolerance.
  EXPECT_EQ(a.gain, b.gain);
  EXPECT_EQ(a.gain_unpacked, b.gain_unpacked);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.coverage_unpacked, b.coverage_unpacked);
  EXPECT_EQ(a.used_width, b.used_width);
  EXPECT_EQ(a.buffer_width, b.buffer_width);
}

TEST(SelectorCapTest, CombinationCapThrowsInBothPaths) {
  // The serial exhaustive search refuses to materialize past
  // max_combinations, whatever the worker count.
  netlist::UsbDesign usb;
  const auto u = usb.interleaving(2);
  const MessageSelector serial(usb.catalog(), u);
  SelectorConfig cfg;
  cfg.buffer_width = 32;
  cfg.mode = SearchMode::kExhaustive;
  cfg.max_combinations = 8;  // far below the real count
  cfg.jobs = 1;
  EXPECT_THROW(serial.select(cfg), std::length_error);
  cfg.jobs = 4;
  EXPECT_THROW(serial.select(cfg), std::length_error);
}

TEST(MultiScenarioParallelTest, ConfigOverloadMatchesDeprecated) {
  soc::T2Design design;
  std::vector<flow::ProductStats> stats;
  for (const int id : {1, 2})
    stats.push_back(flow::ProductStats::build(
        soc::scenario_instances(design, soc::scenario_by_id(id))));
  std::vector<WeightedScenario> scenarios;
  for (const auto& s : stats) scenarios.push_back({&s, 1.0});

  const MultiScenarioSelector serial(design.catalog(), scenarios);
  const auto reference = serial.select(32, true);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const MultiScenarioSelector parallel(design.catalog(), scenarios, jobs);
    SelectorConfig cfg;
    cfg.buffer_width = 32;
    cfg.jobs = jobs;
    const auto got = parallel.select(cfg);
    EXPECT_EQ(reference.combination.messages, got.combination.messages);
    EXPECT_EQ(reference.packed, got.packed);
    EXPECT_EQ(reference.weighted_gain, got.weighted_gain);
    EXPECT_EQ(reference.per_scenario_coverage, got.per_scenario_coverage);
    EXPECT_EQ(reference.used_width, got.used_width);
  }
}

TEST(MonteCarloParallelTest, TrialsIdenticalAcrossJobCounts) {
  soc::T2Design design;
  const auto cases = soc::standard_case_studies();
  debug::CaseStudyOptions base;
  const auto reference =
      debug::evaluate_case_study(design, cases[0], base, 4, /*jobs=*/1);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
    const auto got =
        debug::evaluate_case_study(design, cases[0], base, 4, jobs);
    EXPECT_EQ(reference.runs, got.runs);
    EXPECT_EQ(reference.failures_detected, got.failures_detected);
    EXPECT_EQ(reference.pruned_fraction.mean, got.pruned_fraction.mean);
    EXPECT_EQ(reference.pruned_fraction.stddev, got.pruned_fraction.stddev);
    EXPECT_EQ(reference.localization_fraction.mean,
              got.localization_fraction.mean);
    EXPECT_EQ(reference.messages_investigated.mean,
              got.messages_investigated.mean);
    EXPECT_EQ(reference.pairs_investigated.mean,
              got.pairs_investigated.mean);
  }
}

TEST(SessionTest, SpecSessionSelectsLikeSerialPath) {
  CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const MessageSelector selector(fx.catalog, u);
  SelectorConfig cfg;
  cfg.buffer_width = 2;
  cfg.mode = SearchMode::kMaximal;
  const auto reference = selector.select(cfg);

  // Build the same Fig. 2 pipeline through the facade.
  flow::ParsedSpec spec;
  const auto reqE = spec.catalog.add("ReqE", 1, "IP1", "Dir");
  const auto gntE = spec.catalog.add("GntE", 1, "Dir", "IP1");
  const auto ack = spec.catalog.add("Ack", 1, "IP1", "Dir");
  spec.flows.push_back(CoherenceFixture::make_flow(spec.catalog, reqE, gntE,
                                                   ack));
  auto fig2 = tracesel::Session::from_spec(std::move(spec));
  fig2.config().buffer_width = 2;
  fig2.config().mode = SearchMode::kMaximal;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    fig2.jobs(jobs);
    expect_identical(reference, fig2.interleave(2).select());
  }
  EXPECT_TRUE(fig2.last_selection().has_value());

  const std::vector<flow::IndexedMessage> observed{
      {reqE, 1}, {gntE, 1}, {reqE, 2}};
  const auto loc = fig2.localize(observed);
  EXPECT_EQ(loc.consistent_paths, 1.0);
}

TEST(SessionTest, T2SessionScenarioAndErrors) {
  auto session = tracesel::Session::t2();
  EXPECT_FALSE(session.has_interleaving());
  EXPECT_THROW(session.select(), std::logic_error);
  EXPECT_THROW(session.interleave(2), std::logic_error);  // not a spec session
  session.scenario(1);
  EXPECT_TRUE(session.has_interleaving());
  const auto serial = session.jobs(1).select();
  const auto parallel = session.jobs(4).select();
  expect_identical(serial, parallel);
  EXPECT_THROW(session.run_case_study(99), std::out_of_range);
}

}  // namespace
}  // namespace tracesel::selection
