// Pins the simulator's output bytes: one FNV-1a digest per run over every
// TimedMessage field and every SimResult scalar. The constants were
// recorded from the signal-level simulator (five signal events per message
// beat, reassembled by the Fig. 4 Monitor); the message-level emission
// must reproduce each one.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "debug/case_study.hpp"
#include "flow/parser.hpp"
#include "soc/simulator.hpp"
#include "soc/t2_bugs.hpp"
#include "soc/t2_extended.hpp"

namespace tracesel::soc {
namespace {

class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001B3ull;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::uint64_t digest(const SimResult& r) {
  Fnv h;
  h.u64(r.messages.size());
  for (const TimedMessage& tm : r.messages) {
    h.u64(tm.msg.message);
    h.u64(tm.msg.index);
    h.u64(tm.cycle);
    h.u64(tm.value);
    h.str(tm.src);
    h.str(tm.dst);
    h.u64(tm.session);
  }
  h.u64(r.failed ? 1 : 0);
  h.str(r.failure);
  h.u64(r.fail_session);
  h.u64(r.fail_cycle);
  h.u64(r.total_cycles);
  h.u64(r.messages_to_symptom);
  return h.value();
}

// Case study c (1..5), trial seeds {2018, 7, 42} x sessions {1, 4}: golden
// then buggy digest, in that loop order.
constexpr std::uint64_t kCaseStudyDigests[5][3][2][2] = {
    {  // case 1
        {{0xe9a18170fb9b358dull, 0xe9a18170fb9b358dull},  // seed 2018
         {0xbd2af064c4728e56ull, 0xed090a706fa831caull}},
        {{0xab6e6ad763b1f43full, 0xab6e6ad763b1f43full},  // seed 7
         {0x4c83ca27fb3b2d2eull, 0xb6c7c23deb225abeull}},
        {{0x6aa62c523d5f664cull, 0x6aa62c523d5f664cull},  // seed 42
         {0xafe346d9ea9f16e2ull, 0xde90190252355f37ull}},
    },
    {  // case 2
        {{0xe9a18170fb9b358dull, 0xe9a18170fb9b358dull},  // seed 2018
         {0xbd2af064c4728e56ull, 0xe1e5026bf0b5a8a8ull}},
        {{0xab6e6ad763b1f43full, 0xab6e6ad763b1f43full},  // seed 7
         {0x4c83ca27fb3b2d2eull, 0x87f598d26f8c0eeaull}},
        {{0x6aa62c523d5f664cull, 0x6aa62c523d5f664cull},  // seed 42
         {0xafe346d9ea9f16e2ull, 0xada0e363d2a18b29ull}},
    },
    {  // case 3
        {{0xffd78275b9514f13ull, 0xffd78275b9514f13ull},  // seed 2018
         {0x93615690b00f9be6ull, 0xfcd3e1c1a0f43df5ull}},
        {{0x2696ed0f5b09d541ull, 0x2696ed0f5b09d541ull},  // seed 7
         {0xc3c6204f0895e334ull, 0xef8b81d97bbcd794ull}},
        {{0x8e4cafd572d5ef57ull, 0x8e4cafd572d5ef57ull},  // seed 42
         {0xb37940a06392265bull, 0xbfe1b7b1b8cbaa2full}},
    },
    {  // case 4
        {{0xffd78275b9514f13ull, 0xffd78275b9514f13ull},  // seed 2018
         {0x93615690b00f9be6ull, 0x0361e1e9bd2703dfull}},
        {{0x2696ed0f5b09d541ull, 0x2696ed0f5b09d541ull},  // seed 7
         {0xc3c6204f0895e334ull, 0x77d2ab237ea5dc67ull}},
        {{0x8e4cafd572d5ef57ull, 0x8e4cafd572d5ef57ull},  // seed 42
         {0xb37940a06392265bull, 0x8722bf0e75b9ee83ull}},
    },
    {  // case 5
        {{0xdec393c789c22389ull, 0xdec393c789c22389ull},  // seed 2018
         {0x5bf3835a1fc33e14ull, 0x77c42b73f812bba8ull}},
        {{0x326244198db4ce6bull, 0x326244198db4ce6bull},  // seed 7
         {0xfb7371532c30abe8ull, 0xe579cfbdd0e9ce36ull}},
        {{0xbf1bd04638ba302cull, 0xbf1bd04638ba302cull},  // seed 42
         {0x415902600be2c948ull, 0x6baee240064e2640ull}},
    },
};

TEST(SimulatorGolden, CaseStudyRunsMatchRecordedDigests) {
  const T2Design design;
  const std::vector<CaseStudy> cases = standard_case_studies();
  ASSERT_EQ(cases.size(), 5u);
  const std::uint64_t seeds[3] = {2018, 7, 42};
  const std::uint32_t sessions[2] = {1, 4};
  for (std::size_t c = 0; c < 5; ++c) {
    for (std::size_t s = 0; s < 3; ++s) {
      for (std::size_t n = 0; n < 2; ++n) {
        debug::CaseStudyOptions options;
        options.seed = seeds[s];
        options.sessions = sessions[n];
        const debug::CaseStudyResult r =
            debug::run_case_study(design, cases[c], options);
        SCOPED_TRACE("case " + std::to_string(cases[c].id) + " seed " +
                     std::to_string(seeds[s]) + " sessions " +
                     std::to_string(sessions[n]));
        EXPECT_EQ(digest(r.golden), kCaseStudyDigests[c][s][n][0]);
        EXPECT_EQ(digest(r.buggy), kCaseStudyDigests[c][s][n][1]);
      }
    }
  }
}

TEST(SimulatorGolden, BranchingFlowsMatchRecordedDigests) {
  const T2ExtendedDesign design;
  SocSimulator sim(design.catalog(),
                   {&design.mondo_nack(), &design.pior_retry()}, 2);
  SimOptions options;
  options.sessions = 6;
  options.seed = 5;
  EXPECT_EQ(digest(sim.run(options)), 0xe5897205691bfaffull);

  // A misroute onto a real IP, a corruption and a drop on the branches.
  bug::Bug misroute;
  misroute.id = 1;
  misroute.effect = bug::BugEffect::kMisroute;
  misroute.target = design.reqretry;
  misroute.misroute_dest = "MCU";
  sim.inject(misroute);
  bug::Bug corrupt;
  corrupt.id = 2;
  corrupt.effect = bug::BugEffect::kCorruptValue;
  corrupt.target = design.dmurd;
  corrupt.trigger_session = 2;
  corrupt.trigger_probability = 0.5;
  sim.inject(corrupt);
  bug::Bug drop;
  drop.id = 3;
  drop.effect = bug::BugEffect::kDropMessage;
  drop.target = design.pioretry;
  drop.trigger_session = 4;
  drop.symptom = "HANG: retry lost";
  sim.inject(drop);
  EXPECT_EQ(digest(sim.run(options)), 0xe17f772ccc78ea66ull);
}

// IPs outside the six T2 names: every routed destination reads "?".
constexpr std::string_view kForeignIpSpec = R"(
message ReqE 1 IP1 -> Dir
message GntE 1 Dir -> IP1
message Ack  1 IP1 -> Dir
message Log  8 Dir -> ImageSignalProcessor

flow CacheCoherence {
  state n initial
  state w
  state c atomic
  state d stop
  n -> w on ReqE
  w -> c on GntE
  c -> d on Ack
}

flow Logger {
  state a initial
  state b stop
  a -> b on Log
}
)";

TEST(SimulatorGolden, ForeignIpSpecMatchesRecordedDigests) {
  const flow::ParsedSpec spec = flow::parse_flow_spec(kForeignIpSpec);
  std::vector<const flow::Flow*> flows;
  for (const flow::Flow& f : spec.flows) flows.push_back(&f);
  SocSimulator sim(spec.catalog, flows, 2);
  SimOptions options;
  options.sessions = 4;
  options.seed = 2018;
  const SimResult golden = sim.run(options);
  EXPECT_EQ(digest(golden), 0xc27c3da8d8deaf5cull);
  ASSERT_FALSE(golden.messages.empty());
  for (const TimedMessage& tm : golden.messages) EXPECT_EQ(tm.dst, "?");

  // Misroutes onto a T2 name (kept) and onto a foreign one ("?").
  bug::Bug to_cpu;
  to_cpu.id = 1;
  to_cpu.effect = bug::BugEffect::kMisroute;
  to_cpu.target = spec.catalog.require("GntE");
  to_cpu.misroute_dest = "CPU";
  sim.inject(to_cpu);
  bug::Bug to_foreign;
  to_foreign.id = 2;
  to_foreign.effect = bug::BugEffect::kMisroute;
  to_foreign.target = spec.catalog.require("Log");
  to_foreign.misroute_dest = "DisplayController";
  to_foreign.trigger_session = 1;
  sim.inject(to_foreign);
  EXPECT_EQ(digest(sim.run(options)), 0x47f16c1bf9bf809bull);
}

}  // namespace
}  // namespace tracesel::soc
