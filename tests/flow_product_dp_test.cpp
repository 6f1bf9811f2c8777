// The debug leg's state-grid DPs (DESIGN.md §14) against the memoized
// test oracle over the product (product_oracle.hpp, checked through
// stats_oracle.hpp): the grid's count_paths and count_consistent_paths and
// the product's every histogram class agree bit for bit on the named
// workloads, and the product-counted statistics select exactly what the
// closed form selects. The retired kernel knob of
// older job records still parses, replays to the same bytes and shares
// their cache entries, directly and through the daemon.

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "local_daemon.hpp"
#include "netlist/usb_design.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
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
      const auto w = QueryCore::workload_t2();
      QueryCore::interleave(*w, 3, {});
      expect_identical(product.select(cfg), QueryCore::select(*w, cfg, false),
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
  const auto w = QueryCore::workload_usb();
  QueryCore::interleave(*w, 1, {});
  expect_identical(product.select_with_flow_constraint(cfg),
                   QueryCore::select(*w, cfg, true), "usb flow-constraint");
}

// --- the retired kernel knob on the wire ---

/// `req` as a version-2 record whose kernel line reads `kernel`.
std::string version2_record(JobRequest req, const std::string& kernel) {
  req.version = 2;
  const std::string wire = serialize_job_request(req);
  const auto body =
      util::decode_envelope(wire, "tracesel-job", 2, "job request");
  EXPECT_TRUE(body.ok());
  std::string text(body.value());
  const std::size_t at = text.find("kernel compiled\n");
  EXPECT_NE(at, std::string::npos);
  text.replace(at, 15, "kernel " + kernel);
  return util::encode_envelope("tracesel-job", 2, text);
}

JobRequest t2_request() {
  JobRequest req;
  req.spec = "t2";
  req.instances = 3;
  return req;
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

class Version2RecordTest : public ::testing::Test {};

TEST_F(Version2RecordTest, QueryCoreSharesResultsAcrossModes) {
  // Records that named either engine are the same computation as today's
  // request: one result index entry serves all three.
  for (const std::string kernel : {"generic", "compiled"}) {
    SCOPED_TRACE(kernel);
    const auto old = parse_job_request(version2_record(t2_request(), kernel));
    ASSERT_TRUE(old.ok()) << old.error().to_string();
    test::expect_repeat_served_from_index(t2_request(), old.value());
  }
}

TEST_F(Version2RecordTest, WireEncodingRoundTripsKernelMode) {
  // Today's envelope carries no kernel line.
  const std::string wire = serialize_job_request(t2_request());
  EXPECT_EQ(wire.rfind("tracesel-job " + std::to_string(JobRequest::kVersion) +
                           " ",
                       0),
            0u);
  EXPECT_EQ(wire.find("kernel"), std::string::npos);

  // A version-2 record parses under either engine name and re-serializes
  // as version 2 with the line at its default, so journals round-trip.
  const std::string compiled = version2_record(t2_request(), "compiled");
  for (const std::string kernel : {"generic", "compiled"}) {
    const auto parsed = parse_job_request(version2_record(t2_request(), kernel));
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    EXPECT_EQ(parsed.value().version, 2u);
    EXPECT_EQ(serialize_job_request(parsed.value()), compiled);
    EXPECT_TRUE(parsed.value().same_computation(t2_request()));
  }
  EXPECT_FALSE(parse_job_request(version2_record(t2_request(), "fast")).ok());
}

TEST_F(Version2RecordTest, ServeProducesIdenticalReportsAcrossModes) {
  const std::string socket =
      "/tmp/tskern_" + std::to_string(::getpid()) + ".sock";
  service::ServerOptions opt;
  opt.socket_path = socket;
  opt.runners = 2;
  util::CancelToken shutdown = opt.shutdown;
  service::Server server(std::move(opt));
  ASSERT_TRUE(server.start().ok());
  std::thread serve([&] { server.serve(); });

  const auto submit = [&](const JobRequest& req) {
    auto client = service::Client::connect(socket);
    EXPECT_TRUE(client.ok());
    auto outcome = client.value().submit(req, util::CancelToken{}, nullptr);
    EXPECT_TRUE(outcome.ok());
    return std::move(outcome).value();
  };
  const service::JobOutcome current = submit(t2_request());
  const auto old = parse_job_request(version2_record(t2_request(), "generic"));
  ASSERT_TRUE(old.ok());
  const service::JobOutcome replayed = submit(old.value());
  EXPECT_EQ(current.status, "ok");
  EXPECT_EQ(replayed.status, "ok");
  // Byte-identical report JSON, and the old record is answered from the
  // entry today's request filled.
  EXPECT_EQ(current.report_json, replayed.report_json);
  EXPECT_TRUE(replayed.cache_hit);

  shutdown.cancel();
  serve.join();
}

}  // namespace
}  // namespace tracesel
