#include "soc/vcd.hpp"

#include <gtest/gtest.h>

#include "soc/simulator.hpp"

namespace tracesel::soc {
namespace {

class VcdTest : public ::testing::Test {
 protected:
  T2Design design_;
};

TEST_F(VcdTest, HeaderAndDefinitionsPresent) {
  const std::vector<SignalEvent> events{
      {"siincu_data", 5, 10}, {"siincu_valid", 1, 10}};
  const std::string vcd = to_vcd(design_.catalog(), events);
  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module soc $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("siincu_data"), std::string::npos);
  EXPECT_NE(vcd.find("siincu_valid"), std::string::npos);
}

TEST_F(VcdTest, DataWireUsesCatalogWidth) {
  const std::vector<SignalEvent> events{{"dmusiidata_data", 7, 3}};
  const std::string vcd = to_vcd(design_.catalog(), events);
  // dmusiidata is 20 bits wide.
  EXPECT_NE(vcd.find("$var wire 20 "), std::string::npos);
  // 20-bit binary dump of value 7.
  EXPECT_NE(vcd.find("b00000000000000000111 "), std::string::npos);
}

TEST_F(VcdTest, ValidStrobePulses) {
  const std::vector<SignalEvent> events{{"siincu_valid", 1, 10}};
  const std::string vcd = to_vcd(design_.catalog(), events);
  const auto t10 = vcd.find("#10");
  const auto t11 = vcd.find("#11");
  ASSERT_NE(t10, std::string::npos);
  ASSERT_NE(t11, std::string::npos);
  EXPECT_LT(t10, t11);
  // Asserted at 10, deasserted at 11.
  EXPECT_NE(vcd.find('1', t10), std::string::npos);
}

TEST_F(VcdTest, TimesAreSortedAscending) {
  const std::vector<SignalEvent> events{
      {"grant_data", 1, 30}, {"grant_data", 2, 10}, {"grant_data", 3, 20}};
  const std::string vcd = to_vcd(design_.catalog(), events);
  const auto a = vcd.find("#10");
  const auto b = vcd.find("#20");
  const auto c = vcd.find("#30");
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST_F(VcdTest, FullSimulationDumpIsNonTrivial) {
  SocSimulator sim(design_, scenario1());
  const auto r = sim.run({});
  const std::string vcd = to_vcd(
      design_.catalog(), signal_trace(design_.catalog(), r.messages), "t2");
  EXPECT_NE(vcd.find("$scope module t2 $end"), std::string::npos);
  // Every emitted message type should appear as a _valid wire.
  EXPECT_NE(vcd.find("reqtot_valid"), std::string::npos);
  EXPECT_NE(vcd.find("dmusiidata_valid"), std::string::npos);
  EXPECT_GT(std::count(vcd.begin(), vcd.end(), '#'), 20);
}

TEST_F(VcdTest, TraceBufferDumpListsTracedMessagesOnly) {
  std::vector<TraceRecord> records;
  TraceRecord r;
  r.msg = {design_.mondoacknack, 1};
  r.cycle = 42;
  r.value = 3;
  records.push_back(r);
  const std::string vcd = trace_to_vcd(design_.catalog(), records);
  EXPECT_NE(vcd.find("mondoacknack"), std::string::npos);
  EXPECT_NE(vcd.find("mondoacknack_capture"), std::string::npos);
  EXPECT_EQ(vcd.find("siincu"), std::string::npos);
  EXPECT_NE(vcd.find("#42"), std::string::npos);
  EXPECT_NE(vcd.find("#43"), std::string::npos);  // strobe deassert
}

TEST_F(VcdTest, EmptyEventsStillValidDocument) {
  const std::string vcd = to_vcd(design_.catalog(), {});
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
}

TEST_F(VcdTest, IdentifiersAreUniquePerVar) {
  const std::vector<SignalEvent> events{
      {"grant_data", 1, 1},  {"grant_valid", 1, 1}, {"siincu_data", 1, 2},
      {"siincu_valid", 1, 2}, {"reqtot_data", 1, 3}};
  const std::string vcd = to_vcd(design_.catalog(), events);
  // Parse $var lines and collect identifiers.
  std::vector<std::string> ids;
  std::istringstream is(vcd);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("$var", 0) == 0) {
      std::istringstream ls(line);
      std::string var, wire, width, id;
      ls >> var >> wire >> width >> id;
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids.size(), 5u);
}

}  // namespace
}  // namespace tracesel::soc
