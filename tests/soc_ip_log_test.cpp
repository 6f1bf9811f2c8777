#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "soc/ip.hpp"
#include "util/log.hpp"

namespace tracesel {
namespace {

TEST(Ip, NamesAllBlocks) {
  EXPECT_EQ(soc::to_string(soc::Ip::kNcu), "NCU");
  EXPECT_EQ(soc::to_string(soc::Ip::kDmu), "DMU");
  EXPECT_EQ(soc::to_string(soc::Ip::kSiu), "SIU");
  EXPECT_EQ(soc::to_string(soc::Ip::kMcu), "MCU");
  EXPECT_EQ(soc::to_string(soc::Ip::kCcx), "CCX");
  EXPECT_EQ(soc::to_string(soc::Ip::kCpu), "CPU");
  EXPECT_EQ(soc::ip_name(soc::Ip::kNcu), "NCU");
}

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override { old_ = util::log_threshold(); }
  void TearDown() override { util::set_log_threshold(old_); }

  /// Captures std::clog for the duration of a callback.
  template <typename F>
  std::string capture(F&& fn) {
    std::ostringstream sink;
    auto* old_buf = std::clog.rdbuf(sink.rdbuf());
    fn();
    std::clog.rdbuf(old_buf);
    return sink.str();
  }

  util::LogLevel old_ = util::LogLevel::kWarn;
};

TEST_F(LogTest, EmitsAtOrAboveThreshold) {
  util::set_log_threshold(util::LogLevel::kInfo);
  const std::string out = capture([] {
    util::Log(util::LogLevel::kInfo) << "visible " << 42;
    util::Log(util::LogLevel::kDebug) << "hidden";
  });
  EXPECT_NE(out.find("[info ] "), std::string::npos);
  EXPECT_NE(out.find("visible 42"), std::string::npos);
  EXPECT_EQ(out.find("hidden"), std::string::npos);
}

TEST_F(LogTest, ErrorAlwaysAboveWarnThreshold) {
  util::set_log_threshold(util::LogLevel::kWarn);
  const std::string out = capture([] {
    util::Log(util::LogLevel::kError) << "boom";
  });
  EXPECT_NE(out.find("[error] "), std::string::npos);
  EXPECT_NE(out.find("boom"), std::string::npos);
}

TEST_F(LogTest, PrefixCarriesTimestampAndThreadId) {
  util::set_log_threshold(util::LogLevel::kInfo);
  const std::string out = capture([] {
    util::Log(util::LogLevel::kInfo) << "stamped";
  });
  // "[info ] <elapsed seconds> t<NN> stamped" — elapsed has 6 decimals and
  // the thread id is zero-padded decimal.
  EXPECT_NE(out.find(" t"), std::string::npos);
  EXPECT_NE(out.find('.'), std::string::npos);
  const std::size_t dot = out.find('.');
  ASSERT_GE(out.size(), dot + 7);
  for (std::size_t i = dot + 1; i < dot + 7; ++i)
    EXPECT_TRUE(out[i] >= '0' && out[i] <= '9') << out;
  EXPECT_NE(out.find("stamped"), std::string::npos);
}

TEST_F(LogTest, ConcurrentLinesNeverInterleave) {
  util::set_log_threshold(util::LogLevel::kInfo);
  const std::string payload(64, 'x');
  const std::string out = capture([&] {
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w)
      workers.emplace_back([&] {
        for (int i = 0; i < 16; ++i) util::Log(util::LogLevel::kInfo) << payload;
      });
    for (std::thread& t : workers) t.join();
  });
  // Every emitted line must carry the full payload unbroken.
  std::istringstream lines(out);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find(payload), std::string::npos) << line;
    ++count;
  }
  EXPECT_EQ(count, 64u);
}

TEST_F(LogTest, ThresholdRoundTrips) {
  util::set_log_threshold(util::LogLevel::kDebug);
  EXPECT_EQ(util::log_threshold(), util::LogLevel::kDebug);
  util::set_log_threshold(util::LogLevel::kError);
  EXPECT_EQ(util::log_threshold(), util::LogLevel::kError);
}

}  // namespace
}  // namespace tracesel
