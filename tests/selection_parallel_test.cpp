// Determinism contract of the parallel selection engine: for every job
// count the SelectionResult — winner, packing, and every floating-point
// metric — is bit-identical to the serial path, on the paper's Fig. 2
// example, the USB 2.0 controller flows, and the full T2 spec.

#include "selection/parallel_selector.hpp"

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

using flow::MessageId;
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

/// Serial reference vs ParallelSelector at jobs 1..8, both search modes,
/// packing on and off.
void check_all_job_counts(const flow::MessageCatalog& catalog,
                          const flow::InterleavedFlow& u,
                          std::uint32_t buffer_width) {
  const MessageSelector serial(catalog, u);
  const ParallelSelector parallel(serial);
  for (const SearchMode mode :
       {SearchMode::kMaximal, SearchMode::kExhaustive}) {
    for (const bool packing : {true, false}) {
      SelectorConfig cfg;
      cfg.buffer_width = buffer_width;
      cfg.mode = mode;
      cfg.packing = packing;
      cfg.jobs = 1;
      const auto reference = serial.select(cfg);
      for (std::size_t jobs = 1; jobs <= 8; ++jobs) {
        cfg.jobs = jobs;
        const auto got = parallel.select(cfg);
        SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                     " packing=" + std::to_string(packing) +
                     " jobs=" + std::to_string(jobs));
        expect_identical(reference, got);
      }
    }
  }
}

TEST(ParallelSelectorTest, Fig2BitIdenticalAcrossJobCounts) {
  CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  check_all_job_counts(fx.catalog, u, 2);
  check_all_job_counts(fx.catalog, u, 3);
}

TEST(ParallelSelectorTest, UsbBitIdenticalAcrossJobCounts) {
  netlist::UsbDesign usb;
  const auto u = usb.interleaving(2);
  check_all_job_counts(usb.catalog(), u, 32);
}

TEST(ParallelSelectorTest, T2SpecBitIdenticalAcrossJobCounts) {
  const auto spec =
      flow::parse_flow_spec_file(TRACESEL_DATA_DIR "/t2.flow");
  std::vector<const flow::Flow*> flows;
  for (const flow::Flow& f : spec.flows) flows.push_back(&f);
  const auto u =
      flow::InterleavedFlow::build(flow::make_instances(flows, 1));
  check_all_job_counts(spec.catalog, u, 32);
}

TEST(ParallelSelectorTest, SelectorDispatchesOnJobs) {
  // MessageSelector::select itself routes jobs != 1 through the parallel
  // engine; the result must match its own serial output.
  CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const MessageSelector selector(fx.catalog, u);
  SelectorConfig cfg;
  cfg.buffer_width = 2;
  cfg.mode = SearchMode::kMaximal;
  cfg.jobs = 1;
  const auto reference = selector.select(cfg);
  for (const std::size_t jobs : {std::size_t{0}, std::size_t{4}}) {
    cfg.jobs = jobs;
    expect_identical(reference, selector.select(cfg));
  }
}

TEST(ParallelSelectorTest, CombinationCapThrowsInBothPaths) {
  netlist::UsbDesign usb;
  const auto u = usb.interleaving(2);
  const MessageSelector serial(usb.catalog(), u);
  const ParallelSelector parallel(serial);
  SelectorConfig cfg;
  cfg.buffer_width = 32;
  cfg.mode = SearchMode::kExhaustive;
  cfg.max_combinations = 8;  // far below the real count
  cfg.jobs = 1;
  EXPECT_THROW(serial.select(cfg), std::length_error);
  cfg.jobs = 4;
  EXPECT_THROW(parallel.select(cfg), std::length_error);
  EXPECT_THROW(serial.select(cfg), std::length_error);  // dispatch path
}

TEST(ParallelSelectorTest, FlowConstraintHonoursJobs) {
  CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const MessageSelector selector(fx.catalog, u);
  SelectorConfig cfg;
  cfg.buffer_width = 3;
  cfg.mode = SearchMode::kMaximal;
  cfg.jobs = 1;
  const auto reference = selector.select_with_flow_constraint(cfg);
  cfg.jobs = 4;
  expect_identical(reference, selector.select_with_flow_constraint(cfg));
}

TEST(ParallelSelectorTest, GreedyAndKnapsackDelegateToSerial) {
  CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const MessageSelector serial(fx.catalog, u);
  const ParallelSelector parallel(serial);
  for (const SearchMode mode : {SearchMode::kGreedy, SearchMode::kKnapsack}) {
    SelectorConfig cfg;
    cfg.buffer_width = 2;
    cfg.mode = mode;
    cfg.jobs = 1;
    const auto reference = serial.select(cfg);
    cfg.jobs = 4;
    expect_identical(reference, parallel.select(cfg));
  }
}

TEST(ParallelSelectorTest, ExternalPoolIsReused) {
  CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const MessageSelector serial(fx.catalog, u);
  const ParallelSelector parallel(serial);
  util::ThreadPool pool(3);
  SelectorConfig cfg;
  cfg.buffer_width = 2;
  cfg.mode = SearchMode::kMaximal;
  cfg.jobs = 1;
  const auto reference = serial.select(cfg);
  cfg.jobs = 4;  // ignored for sizing when a pool is passed
  expect_identical(reference, parallel.select(cfg, &pool));
  EXPECT_GT(parallel.memo().size(), 0u);
}

TEST(GainMemoTest, MemoReturnsEngineValues) {
  CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const InfoGainEngine engine(u);
  GainMemo memo;
  const std::vector<MessageId> set{fx.reqE, fx.gntE};
  const double fresh = engine.info_gain(set);
  EXPECT_EQ(memo.gain(engine, set), fresh);  // miss: computed
  EXPECT_EQ(memo.gain(engine, set), fresh);  // hit: cached double
  EXPECT_EQ(memo.size(), 1u);
}

TEST(MultiScenarioParallelTest, ConfigOverloadMatchesDeprecated) {
  soc::T2Design design;
  std::vector<flow::InterleavedFlow> interleavings;
  for (const int id : {1, 2})
    interleavings.push_back(
        soc::build_interleaving(design, soc::scenario_by_id(id)));
  std::vector<WeightedScenario> scenarios;
  for (const auto& u : interleavings) scenarios.push_back({&u, 1.0});

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
