// The debug leg's state-grid DPs (DESIGN.md §14) against the memoized
// test oracle over the product (product_oracle.hpp, checked through
// stats_oracle.hpp): the grid's count_paths and count_consistent_paths and
// the product's every histogram class agree bit for bit on the named
// workloads, and the product-counted statistics select exactly what the
// closed form selects. Job envelopes carry no retired kernel line.

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <string>
#include <vector>

#include "debug/case_study.hpp"
#include "netlist/usb_design.hpp"
#include "soc/scenario.hpp"
#include "soc/t2_design.hpp"
#include "stats_oracle.hpp"
#include "testutil.hpp"
#include "tracesel/query_core.hpp"
#include "util/framing.hpp"
#include "util/obs.hpp"

namespace tracesel {
namespace {

using test::CoherenceFixture;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One named workload: its product and the catalog its labels index.
struct Workload {
  std::string name;
  std::function<flow::InterleavedFlow()> build;
  const flow::MessageCatalog* catalog;
};

/// Full-result equality, field by field and bitwise on the doubles.
void expect_identical(const selection::SelectionResult& a,
                      const selection::SelectionResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.combination.messages, b.combination.messages) << what;
  EXPECT_EQ(a.combination.width, b.combination.width) << what;
  EXPECT_EQ(a.packed, b.packed) << what;
  EXPECT_EQ(bits(a.gain), bits(b.gain)) << what;
  EXPECT_EQ(bits(a.gain_unpacked), bits(b.gain_unpacked)) << what;
  EXPECT_EQ(bits(a.coverage), bits(b.coverage)) << what;
  EXPECT_EQ(bits(a.coverage_unpacked), bits(b.coverage_unpacked)) << what;
  EXPECT_EQ(a.used_width, b.used_width) << what;
  EXPECT_EQ(a.buffer_width, b.buffer_width) << what;
}

/// The distinct message ids labeling u's edges, ascending.
std::vector<flow::MessageId> alphabet(const flow::InterleavedFlow& u) {
  std::vector<flow::MessageId> out;
  for (const flow::IndexedMessage& im : u.indexed_messages())
    if (out.empty() || out.back() != im.message) out.push_back(im.message);
  return out;
}

class ProductDifferentialTest : public ::testing::Test {
 protected:
  CoherenceFixture fx_;
  soc::T2Design t2_;
  netlist::UsbDesign usb_;

  /// Fig. 2 x2/x3, USB x2 and T2 scenarios 1-4.
  std::vector<Workload> matrix() {
    std::vector<Workload> w;
    for (std::uint32_t n = 2; n <= 3; ++n)
      w.push_back({"fig2@" + std::to_string(n),
                   [this, n] {
                     return flow::InterleavedFlow::build(
                         flow::make_instances({&fx_.flow_}, n));
                   },
                   &fx_.catalog});
    w.push_back({"usb@2", [this] { return usb_.interleaving(2); },
                 &usb_.catalog()});
    for (int id = 1; id <= 4; ++id)
      w.push_back({"t2-scenario" + std::to_string(id),
                   [this, id] {
                     return soc::build_interleaving(t2_,
                                                    soc::scenario_by_id(id));
                   },
                   &t2_.catalog()});
    return w;
  }
};

TEST_F(ProductDifferentialTest, CountsHistogramsAndGainsBitIdentical) {
  std::uint64_t seed = 1;
  for (const Workload& w : matrix()) {
    SCOPED_TRACE(w.name);
    const flow::InterleavedFlow u = w.build();
    test::expect_product_matches_oracle(u, alphabet(u), seed++, 16);

    // The gains read off the product's histograms are the closed form's.
    const selection::InfoGainEngine counted(flow::ProductStats::count(u));
    const selection::InfoGainEngine closed(
        flow::ProductStats::build(u.instances()));
    EXPECT_EQ(bits(counted.max_gain()), bits(closed.max_gain()));
    for (const flow::MessageId m : alphabet(u))
      EXPECT_EQ(bits(counted.message_contribution(m)),
                bits(closed.message_contribution(m)));
  }
}

/// T2 scenario 3 at the default 32-bit buffer.
JobRequest t2_request() {
  JobRequest req;
  req.spec = "t2";
  req.instances = 3;
  return req;
}

TEST_F(ProductDifferentialTest, FullSelectionBitIdenticalAcrossModesAndJobs) {
  // Selection over the product's own statistics against the closed form
  // QueryCore reads, for the exact and an exponential search mode (and the
  // ignored jobs field at two values).
  const flow::InterleavedFlow u =
      soc::build_interleaving(t2_, soc::scenario_by_id(3));
  const selection::MessageSelector product(t2_.catalog(), u);
  for (const auto mode :
       {selection::SearchMode::kKnapsack, selection::SearchMode::kMaximal}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      selection::SelectorConfig cfg;
      cfg.buffer_width = 32;
      cfg.mode = mode;
      cfg.jobs = jobs;
      JobRequest req = t2_request();
      req.mode = mode;
      const auto run = QueryCore::run(req, nullptr, {});
      ASSERT_TRUE(run.ok()) << run.error().to_string();
      expect_identical(product.select(cfg), *run.value().result,
                       "mode " + std::to_string(static_cast<int>(mode)) +
                           " jobs " + std::to_string(jobs));
    }
  }
}

TEST_F(ProductDifferentialTest, FlowConstraintSelectionBitIdentical) {
  selection::SelectorConfig cfg;
  cfg.buffer_width = 16;
  const flow::InterleavedFlow u = usb_.interleaving(1);
  const selection::MessageSelector product(usb_.catalog(), u);
  JobRequest req;
  req.spec = "usb";
  req.instances = 1;
  req.buffer_width = cfg.buffer_width;
  req.kind = JobRequest::Kind::kSelectFlowConstraint;
  const auto run = QueryCore::run(req, nullptr, {});
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  expect_identical(product.select_with_flow_constraint(cfg),
                   *run.value().result, "usb flow-constraint");
}

TEST(GridObservability, SweepsVisitOnlyTheSlotsTheyReach) {
  // interleave.grid.visited counts the slots the grid's sweeps visit: the
  // closed-form build visits none, an atomic start included, and an empty
  // observation visits exactly the reachable product states.
  obs::set_enabled(true);
  obs::reset();
  const soc::T2Design t2;
  for (int id = 1; id <= 3; ++id) {
    const soc::Scenario scenario = soc::scenario_by_id(id);
    ASSERT_EQ(scenario.instances_per_flow, 2u);
    (void)flow::ProductGrid::build(soc::scenario_instances(t2, scenario));
  }
  EXPECT_EQ(obs::registry().counter_value("interleave.grid.visited"), 0u);

  // So is a flow that starts in an atomic state.
  CoherenceFixture atomic_fx;
  const flow::Flow starts_atomic = atomic_fx.starts_atomic_flow();
  (void)flow::ProductGrid::build(
      {{&starts_atomic, 1}, {&atomic_fx.flow_, 1}, {&atomic_fx.flow_, 2}});
  EXPECT_EQ(obs::registry().counter_value("interleave.grid.visited"), 0u);

  // Fig. 2: the paper's 15 states of the two-instance interleaving, on a
  // grid of 16 slots.
  const CoherenceFixture fx;
  const flow::ProductGrid grid = fx.two_instance_grid();
  EXPECT_EQ(grid.num_slots(), 16u);
  (void)grid.count_consistent_paths({fx.reqE, fx.gntE, fx.ack}, {});
  EXPECT_EQ(obs::registry().counter_value("interleave.grid.visited"), 15u);
  obs::set_enabled(false);
  obs::reset();
}

TEST(GridObservability, CaseStudySweepsMatchTheOracleAndVisitPinnedSlots) {
  // The benchmark's own localization inputs: case studies 1-5 x trial
  // seeds {2018, 7, 42}, each with the workbench's selection and its
  // failing session's observation. The consistent-path count equals the
  // oracle's over the materialized product bit for bit, and the sweep
  // visits exactly the slots pinned here.
  const std::uint64_t seeds[] = {2018, 7, 42};
  const std::uint64_t visited[5][3] = {
      {106, 177, 122}, {98, 195, 120}, {34, 42, 45}, {47, 43, 43},
      {680, 657, 852}};
  const soc::T2Design t2;
  const auto studies = soc::standard_case_studies();
  ASSERT_EQ(studies.size(), 5u);
  for (std::size_t c = 0; c < studies.size(); ++c) {
    const soc::Scenario scenario = soc::scenario_by_id(studies[c].scenario_id);
    const std::vector<flow::IndexedFlow> instances =
        soc::scenario_instances(t2, scenario);
    const flow::ProductGrid grid = flow::ProductGrid::build(instances);
    const flow::InterleavedFlow product =
        flow::InterleavedFlow::build(instances);
    for (std::size_t s = 0; s < 3; ++s) {
      SCOPED_TRACE("case " + std::to_string(studies[c].id) + " seed " +
                   std::to_string(seeds[s]));
      debug::CaseStudyOptions options;
      options.seed = seeds[s];
      const debug::CaseStudyResult r =
          debug::run_case_study(t2, studies[c], options);
      std::vector<flow::IndexedMessage> observed;
      for (const soc::TraceRecord& rec : r.buggy_records)
        if (rec.session == r.buggy.fail_session) observed.push_back(rec.msg);
      const std::vector<flow::MessageId> selected = r.selection.observable();

      obs::set_enabled(true);
      obs::reset();
      const double count = grid.count_consistent_paths(selected, observed);
      const std::uint64_t slots =
          obs::registry().counter_value("interleave.grid.visited");
      obs::set_enabled(false);
      obs::reset();
      EXPECT_EQ(bits(count), bits(test::oracle::count_consistent_paths(
                                 product, selected, observed)));
      EXPECT_EQ(bits(count), bits(r.localization.consistent_paths));
      EXPECT_EQ(slots, visited[c][s]);
    }
  }
}

class Version2RecordTest : public ::testing::Test {};

TEST_F(Version2RecordTest, WireEncodingRoundTripsKernelMode) {
  // Today's envelope carries no kernel line and round-trips; a version-2
  // record, or a kernel line in today's envelope, fails with kParse.
  const std::string wire = serialize_job_request(t2_request());
  EXPECT_EQ(wire.rfind("tracesel-job " + std::to_string(JobRequest::kVersion) +
                           " ",
                       0),
            0u);
  EXPECT_EQ(wire.find("kernel"), std::string::npos);
  const auto parsed = parse_job_request(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(serialize_job_request(parsed.value()), wire);
  EXPECT_TRUE(parsed.value().same_computation(t2_request()));

  const auto body = util::decode_envelope(wire, "tracesel-job",
                                          JobRequest::kVersion, "job request");
  ASSERT_TRUE(body.ok());
  std::string with_kernel(body.value());
  with_kernel.insert(with_kernel.find("trace_id "), "kernel compiled\n");
  for (const std::string& record :
       {util::encode_envelope("tracesel-job", 2, with_kernel),
        util::encode_envelope("tracesel-job", JobRequest::kVersion,
                              with_kernel)}) {
    const auto old = parse_job_request(record);
    ASSERT_FALSE(old.ok());
    EXPECT_EQ(old.error().code, util::ErrorCode::kParse);
  }
}

}  // namespace
}  // namespace tracesel
