#include "soc/simulator.hpp"

#include <gtest/gtest.h>

#include <map>

#include "soc/t2_bugs.hpp"

namespace tracesel::soc {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  T2Design design_;
  Scenario scenario_ = scenario1();
  SocSimulator sim_{design_, scenario_};
};

TEST_F(SimulatorTest, GoldenRunCompletesWithoutFailure) {
  SimOptions opt;
  opt.sessions = 3;
  const SimResult r = sim_.run(opt);
  EXPECT_FALSE(r.failed);
  EXPECT_TRUE(r.failure.empty());
  // Scenario 1 has 3 flows x 2 instances x (5+2+5 messages)/flow-pair:
  // per session 2*(5+2+5) = 24 messages.
  EXPECT_EQ(r.messages.size(), 3u * 24u);
}

TEST_F(SimulatorTest, DeterministicAcrossRuns) {
  SimOptions opt;
  opt.sessions = 2;
  opt.seed = 99;
  const SimResult a = sim_.run(opt);
  const SimResult b = sim_.run(opt);
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i)
    EXPECT_EQ(a.messages[i], b.messages[i]);
}

TEST_F(SimulatorTest, DifferentSeedsChangeInterleaving) {
  SimOptions a, b;
  a.sessions = b.sessions = 2;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(sim_.run(a).messages, sim_.run(b).messages);
}

TEST_F(SimulatorTest, CyclesIncreaseMonotonically) {
  const SimResult r = sim_.run({});
  for (std::size_t i = 1; i < r.messages.size(); ++i)
    EXPECT_GT(r.messages[i].cycle, r.messages[i - 1].cycle);
}

TEST_F(SimulatorTest, GoldenValueIsDeterministicAndWidthMasked) {
  const auto v1 = SocSimulator::golden_value(3, 1, 0, 0, 6);
  const auto v2 = SocSimulator::golden_value(3, 1, 0, 0, 6);
  EXPECT_EQ(v1, v2);
  EXPECT_LE(v1, 63u);
  EXPECT_NE(SocSimulator::golden_value(3, 1, 0, 0, 20),
            SocSimulator::golden_value(3, 2, 0, 0, 20));
  EXPECT_NE(SocSimulator::golden_value(3, 1, 0, 0, 20),
            SocSimulator::golden_value(3, 1, 1, 0, 20));
}

TEST_F(SimulatorTest, MessageValuesMatchGoldenFunction) {
  SimOptions opt;
  opt.sessions = 1;
  const SimResult r = sim_.run(opt);
  std::map<std::pair<flow::MessageId, std::uint32_t>, std::uint32_t> occ;
  for (const TimedMessage& tm : r.messages) {
    const std::uint32_t occurrence = occ[{tm.msg.message, tm.msg.index}]++;
    const auto& m = design_.catalog().get(tm.msg.message);
    EXPECT_EQ(tm.value,
              SocSimulator::golden_value(tm.msg.message, tm.msg.index,
                                         tm.session, occurrence, m.width))
        << m.name;
  }
}

TEST_F(SimulatorTest, AtomicSchedulingRespected) {
  // While a flow instance sits in an atomic state no other instance may
  // emit. In scenario 1, PIOR's atomic "Return" is entered on siurtn and
  // left on dmuncud: those two must be adjacent for the same instance.
  SimOptions opt;
  opt.sessions = 4;
  const SimResult r = sim_.run(opt);
  for (std::size_t i = 0; i < r.messages.size(); ++i) {
    if (r.messages[i].msg.message == design_.siurtn) {
      ASSERT_LT(i + 1, r.messages.size());
      EXPECT_EQ(r.messages[i + 1].msg.message, design_.dmuncud);
      EXPECT_EQ(r.messages[i + 1].msg.index, r.messages[i].msg.index);
      EXPECT_EQ(r.messages[i + 1].session, r.messages[i].session);
    }
  }
}

TEST_F(SimulatorTest, CorruptBugChangesValueAndFails) {
  bug::Bug b = bug_by_id(design_, 8);  // corrupt ncupiow
  b.trigger_session = 0;
  sim_.inject(b);
  SimOptions opt;
  opt.sessions = 2;
  const SimResult buggy = sim_.run(opt);
  sim_.clear_bugs();
  const SimResult golden = sim_.run(opt);

  EXPECT_TRUE(buggy.failed);
  EXPECT_EQ(buggy.failure, "FAIL: Bad Trap");
  bool diff = false;
  ASSERT_EQ(buggy.messages.size(), golden.messages.size());
  for (std::size_t i = 0; i < buggy.messages.size(); ++i) {
    if (buggy.messages[i].msg.message == design_.ncupiow &&
        buggy.messages[i].value != golden.messages[i].value)
      diff = true;
  }
  EXPECT_TRUE(diff);
}

TEST_F(SimulatorTest, DropBugSuppressesMessageAndDownstream) {
  bug::Bug b = bug_by_id(design_, 21);  // drop dmusiidata
  b.trigger_session = 0;
  sim_.inject(b);
  SimOptions opt;
  opt.sessions = 1;
  const SimResult r = sim_.run(opt);
  EXPECT_TRUE(r.failed);
  for (const TimedMessage& tm : r.messages) {
    EXPECT_NE(tm.msg.message, design_.dmusiidata);
    EXPECT_NE(tm.msg.message, design_.siincu);        // downstream of drop
    EXPECT_NE(tm.msg.message, design_.mondoacknack);  // downstream of drop
  }
}

TEST_F(SimulatorTest, MisrouteBugChangesDestination) {
  bug::Bug b = bug_by_id(design_, 11);  // misroute piowcrd
  b.misroute_dest = "SIU";
  b.trigger_session = 0;
  sim_.inject(b);
  const SimResult r = sim_.run({});
  bool misrouted = false;
  for (const TimedMessage& tm : r.messages) {
    if (tm.msg.message == design_.piowcrd) {
      EXPECT_EQ(tm.dst, "SIU");
      misrouted = true;
    }
  }
  EXPECT_TRUE(misrouted);
}

TEST_F(SimulatorTest, WrongDecodePoisonsDownstreamMessages) {
  SocSimulator sim(design_, scenario2());
  bug::Bug b = bug_by_id(design_, 27);  // wrong decode ncuupreq
  b.trigger_session = 0;
  sim.inject(b);
  SimOptions opt;
  opt.sessions = 1;
  const SimResult buggy = sim.run(opt);
  sim.clear_bugs();
  const SimResult golden = sim.run(opt);
  ASSERT_EQ(buggy.messages.size(), golden.messages.size());
  bool upd_diff = false;
  for (std::size_t i = 0; i < buggy.messages.size(); ++i) {
    if (buggy.messages[i].msg.message == design_.ncuupd &&
        buggy.messages[i].value != golden.messages[i].value)
      upd_diff = true;
  }
  EXPECT_TRUE(upd_diff) << "wrong-decode must poison downstream ncuupd";
  EXPECT_TRUE(buggy.failed);
}

TEST_F(SimulatorTest, TriggerSessionDelaysManifestation) {
  bug::Bug b = bug_by_id(design_, 8);
  b.trigger_session = 2;
  sim_.inject(b);
  SimOptions opt;
  opt.sessions = 4;
  const SimResult r = sim_.run(opt);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.fail_session, 2u);
  // Sessions before the trigger behave golden.
  sim_.clear_bugs();
  const SimResult g = sim_.run(opt);
  for (std::size_t i = 0; i < r.messages.size(); ++i) {
    if (r.messages[i].session < 2)
      EXPECT_EQ(r.messages[i], g.messages[i]);
  }
}

TEST_F(SimulatorTest, MessagesToSymptomPositiveOnFailure) {
  bug::Bug b = bug_by_id(design_, 21);
  b.trigger_session = 1;
  sim_.inject(b);
  SimOptions opt;
  opt.sessions = 3;
  const SimResult r = sim_.run(opt);
  EXPECT_TRUE(r.failed);
  EXPECT_GT(r.messages_to_symptom, 0u);
  EXPECT_LE(r.messages_to_symptom, r.messages.size());
}

TEST_F(SimulatorTest, SignalStreamMatchesMonitorReconstruction) {
  const SimResult r = sim_.run({});
  Monitor monitor(design_.catalog());
  for (const SignalEvent& ev : signal_trace(design_.catalog(), r.messages))
    monitor.on_event(ev);
  EXPECT_EQ(monitor.messages(), r.messages);
}

// Monitor over the re-expanded signal stream rebuilds `r.messages`.
void expect_round_trip(const flow::MessageCatalog& catalog,
                       const SimResult& r) {
  Monitor monitor(catalog);
  for (const SignalEvent& ev : signal_trace(catalog, r.messages))
    monitor.on_event(ev);
  EXPECT_EQ(monitor.ignored_events(), 0u);
  EXPECT_EQ(monitor.messages(), r.messages);
}

TEST_F(SimulatorTest, MisroutedMessageSurvivesTheSignalRoundTrip) {
  bug::Bug b = bug_by_id(design_, 11);  // dmu_crd_misroute on piowcrd
  b.misroute_dest = "SIU";
  b.trigger_session = 0;
  sim_.inject(b);
  SimOptions opt;
  opt.sessions = 2;
  const SimResult r = sim_.run(opt);
  std::size_t misrouted = 0;
  for (const TimedMessage& tm : r.messages)
    misrouted += tm.msg.message == design_.piowcrd && tm.dst == "SIU";
  EXPECT_GT(misrouted, 0u);
  expect_round_trip(design_.catalog(), r);
}

TEST_F(SimulatorTest, UnknownIpDestinationReadsAsTheMonitorDecodesIt) {
  // The *_dst wire has no code for a name outside the six T2 IPs: the
  // emitted message already carries the "?" the monitor decodes.
  bug::Bug b = bug_by_id(design_, 11);
  b.misroute_dest = "PCIE_ROOT";
  b.trigger_session = 0;
  sim_.inject(b);
  const SimResult r = sim_.run({});
  std::size_t unknown = 0;
  for (const TimedMessage& tm : r.messages) {
    if (tm.msg.message != design_.piowcrd) continue;
    EXPECT_EQ(tm.dst, "?");
    ++unknown;
  }
  EXPECT_GT(unknown, 0u);
  expect_round_trip(design_.catalog(), r);
}

}  // namespace
}  // namespace tracesel::soc
