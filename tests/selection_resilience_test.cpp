// Resilience contract of the selection pipeline (DESIGN.md §11,
// docs/resilience.md): cooperative cancellation yields well-formed partial
// results in every search mode — promptly, even inside the exponential
// maximal walk — and the node cap of the closed form's product fallback
// fails with a typed error.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "flow/flow_builder.hpp"
#include "flow/parser.hpp"
#include "flow/product_stats.hpp"
#include "netlist/usb_design.hpp"
#include "selection/selector.hpp"
#include "testutil.hpp"
#include "tracesel/tracesel.hpp"
#include "util/cancel.hpp"
#include "util/obs.hpp"

namespace tracesel::selection {
namespace {

using test::CoherenceFixture;

void expect_identical(const SelectionResult& a, const SelectionResult& b) {
  EXPECT_EQ(a.combination.messages, b.combination.messages);
  EXPECT_EQ(a.combination.width, b.combination.width);
  EXPECT_EQ(a.packed, b.packed);
  // EXPECT_EQ on doubles is exact: the contract is bit-identity.
  EXPECT_EQ(a.gain, b.gain);
  EXPECT_EQ(a.gain_unpacked, b.gain_unpacked);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.coverage_unpacked, b.coverage_unpacked);
  EXPECT_EQ(a.used_width, b.used_width);
  EXPECT_EQ(a.buffer_width, b.buffer_width);
}

TEST(ResilienceTest, PreCancelledTokenYieldsEmptyPartialResult) {
  CoherenceFixture fx;
  const auto u = fx.two_instance_interleaving();
  const MessageSelector selector(fx.catalog, u);
  for (const SearchMode mode :
       {SearchMode::kMaximal, SearchMode::kExhaustive, SearchMode::kGreedy,
        SearchMode::kKnapsack}) {
    SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)));
    SelectorConfig cfg;
    cfg.buffer_width = 2;
    cfg.mode = mode;
    cfg.cancel = util::CancelToken::make();
    cfg.cancel.cancel();
    const auto r = selector.select(cfg);
    EXPECT_TRUE(r.partial);
    EXPECT_EQ(r.explored_fraction, 0.0);
    EXPECT_TRUE(r.combination.messages.empty());
    EXPECT_EQ(r.buffer_width, 2u);
  }
}

TEST(ResilienceTest, CancelMidSearchFromSecondThreadIsWellFormed) {
  // The TSan-visible race: cancel() fires from another thread while the
  // serial walk is running. Whatever the timing, select() must terminate
  // and return either the complete answer or a well-formed partial one.
  netlist::UsbDesign usb;
  const auto u = usb.interleaving(2);
  const MessageSelector selector(usb.catalog(), u);
  SelectorConfig ref_cfg;
  ref_cfg.buffer_width = 32;
  ref_cfg.mode = SearchMode::kExhaustive;
  const auto reference = selector.select(ref_cfg);
  for (const int delay_us : {0, 50, 200, 800}) {
    SCOPED_TRACE("delay_us=" + std::to_string(delay_us));
    SelectorConfig cfg = ref_cfg;
    cfg.cancel = util::CancelToken::make();
    std::thread killer([token = cfg.cancel, delay_us] {
      if (delay_us > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      token.cancel();
    });
    const auto r = selector.select(cfg);
    killer.join();
    if (r.partial) {
      EXPECT_GE(r.explored_fraction, 0.0);
      EXPECT_LT(r.explored_fraction, 1.0);
      if (!r.combination.messages.empty()) {
        EXPECT_LE(r.combination.width, 32u);
      }
    } else {
      expect_identical(reference, r);
    }
  }
}

TEST(ResilienceTest, CancelDuringWideMaximalWalkReturnsWithinASecond) {
  // t2.flow at 256 bits: the maximal walk visits ~2^24 nodes, seconds of
  // work. A cancel landing mid-walk must stop it within the poll stride.
  const auto spec = flow::parse_flow_spec_file(TRACESEL_DATA_DIR "/t2.flow");
  std::vector<const flow::Flow*> flows;
  for (const flow::Flow& f : spec.flows) flows.push_back(&f);
  const auto u = flow::InterleavedFlow::build(flow::make_instances(flows, 1));
  const MessageSelector selector(spec.catalog, u);
  SelectorConfig cfg;
  cfg.buffer_width = 256;
  cfg.mode = SearchMode::kMaximal;
  cfg.cancel = util::CancelToken::make();
  using Clock = std::chrono::steady_clock;
  Clock::time_point fired;
  std::thread killer([token = cfg.cancel, &fired] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    fired = Clock::now();
    token.cancel();
  });
  const auto r = selector.select(cfg);
  const auto returned = Clock::now();
  killer.join();
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.explored_fraction, 0.0);
  EXPECT_LE(r.combination.width, 256u);
  EXPECT_LT(returned - fired, std::chrono::seconds(1));
}

TEST(ResilienceTest, AtomicStartBuildsNoProductAndHonoursCancel) {
  // A flow that starts in an atomic state beside 12 Fig. 2 instances:
  // 2 * 3^12 + 12 * 2 * 3^11 + 1 = 5,314,411 product states, more than a
  // product build's default node cap. The closed form counts them without
  // building one, and still checks the cancel token on entry.
  CoherenceFixture fx;
  const flow::Flow f = fx.starts_atomic_flow();
  std::vector<flow::IndexedFlow> instances{{&f, 1}};
  for (std::uint32_t i = 1; i <= 12; ++i) instances.push_back({&fx.flow_, i});

  obs::set_enabled(true);
  obs::reset();
  const auto stats = flow::ProductStats::build(instances);
  EXPECT_EQ(obs::registry().counter_value("interleave.builds"), 0u);
  obs::set_enabled(false);
  obs::reset();
  EXPECT_TRUE(stats.closed_form());
  EXPECT_EQ(stats.num_product_states(), 5'314'411u);

  const util::CancelToken cancelled = util::CancelToken::make();
  cancelled.cancel();
  EXPECT_THROW((void)flow::ProductStats::build(instances, cancelled),
               util::CancelledError);
}

TEST(ResilienceTest, MonteCarloCancelYieldsPartialAggregate) {
  const soc::T2Design design;
  const util::CancelToken cancel = util::CancelToken::make();
  cancel.cancel();
  const auto r = debug::evaluate_case_study(
      design, soc::standard_case_studies()[0], {}, 4, &cancel);
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.runs, 0u);
  EXPECT_EQ(r.requested_runs, 4u);
}

}  // namespace
}  // namespace tracesel::selection
