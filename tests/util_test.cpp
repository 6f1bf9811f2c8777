#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "util/bits.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace tracesel::util {
namespace {

TEST(Rng, Deterministic) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r{7};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BelowZeroThrows) {
  Rng r{1};
  EXPECT_THROW(r.below(0), std::invalid_argument);
}

TEST(Rng, BetweenInclusive) {
  Rng r{9};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = r.between(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_THROW(r.between(6, 3), std::invalid_argument);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng r{11};
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r{5};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ShufflePermutes) {
  Rng r{21};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  r.shuffle(w);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), w.begin()));
}

TEST(Rng, ForkIsIndependentStream) {
  Rng a{3};
  Rng child = a.fork();
  Rng b{3};
  (void)b.fork();
  // The parent stream after fork() matches a reference that also forked.
  EXPECT_EQ(a(), b());
  // And the child differs from the parent.
  EXPECT_NE(child(), a());
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.13809, 1e-5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{1.0}), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVarianceIsZero) {
  const std::vector<double> xs{1, 1, 1};
  const std::vector<double> ys{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, PearsonLengthMismatchThrows) {
  const std::vector<double> xs{1, 2};
  const std::vector<double> ys{1, 2, 3};
  EXPECT_THROW(pearson(xs, ys), std::invalid_argument);
}

TEST(Stats, RanksHandleTies) {
  const std::vector<double> xs{10, 20, 20, 30};
  EXPECT_EQ(ranks(xs), (std::vector<double>{1.0, 2.5, 2.5, 4.0}));
}

TEST(Stats, SpearmanMonotoneNonlinear) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{1, 4, 9, 16, 25};  // nonlinear but monotone
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Stats, MonotoneFraction) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> inc{1, 2, 3, 4};
  const std::vector<double> dec{4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(monotone_fraction(xs, inc), 1.0);
  EXPECT_DOUBLE_EQ(monotone_fraction(xs, dec), 0.0);
  const std::vector<double> mixed{1, 3, 2, 4};
  EXPECT_NEAR(monotone_fraction(xs, mixed), 2.0 / 3.0, 1e-12);
}

TEST(Table, RendersHeaderAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "200"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("200"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 2u);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, WideRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.add_row({"x", "y"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, AlignmentOverride) {
  Table t({"name", "value"});
  t.set_align(0, Align::kRight);
  t.set_align(1, Align::kLeft);
  t.add_row({"ab", "1"});
  const std::string s = t.to_string();
  // Column 0 right-aligned under a 4-char header; column 1 left-aligned.
  EXPECT_NE(s.find("|   ab | 1     |"), std::string::npos) << s;
  EXPECT_THROW(t.set_align(5, Align::kLeft), std::out_of_range);
}

TEST(Table, PctAndFixedFormat) {
  EXPECT_EQ(pct(0.9896), "98.96%");
  EXPECT_EQ(pct(1.0), "100.00%");
  EXPECT_EQ(pct(0.943, 1), "94.3%");
  EXPECT_EQ(fixed(1.0734, 3), "1.073");
}

TEST(Bits, BitsForValues) {
  EXPECT_EQ(bits_for_values(0), 1u);
  EXPECT_EQ(bits_for_values(2), 1u);
  EXPECT_EQ(bits_for_values(3), 2u);
  EXPECT_EQ(bits_for_values(4), 2u);
  EXPECT_EQ(bits_for_values(5), 3u);
  EXPECT_EQ(bits_for_values(256), 8u);
  EXPECT_EQ(bits_for_values(257), 9u);
}

TEST(Bits, MaxValueForWidth) {
  EXPECT_EQ(max_value_for_width(1), 1ull);
  EXPECT_EQ(max_value_for_width(6), 63ull);
  EXPECT_EQ(max_value_for_width(64), ~0ull);
}

TEST(CancelTokenTest, InertTokenNeverCancels) {
  const CancelToken inert;
  EXPECT_FALSE(inert.valid());
  inert.cancel();  // no-op, must not crash
  EXPECT_FALSE(inert.cancelled());
  EXPECT_FALSE(inert.cancel_requested());
}

TEST(CancelTokenTest, CancelIsIdempotentAndSharedAcrossCopies) {
  const CancelToken token = CancelToken::make();
  const CancelToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  token.cancel();
  token.cancel();  // double-cancel is fine
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(copy.cancel_requested());
}

TEST(CancelTokenTest, DeadlineExpiryLatches) {
  const CancelToken token = CancelToken::after(std::chrono::nanoseconds(1));
  // The deadline is in the past by the time we poll; expiry must latch.
  while (!token.cancelled()) std::this_thread::yield();
  EXPECT_TRUE(token.cancelled());
  // Deadline expiry is not a cancel() call, but the latch records it in
  // the same flag, so cancel_requested() reports true afterwards.
  EXPECT_TRUE(token.cancel_requested());
}

TEST(CancelTokenTest, TimeoutTooLargeForTheClockArmsNoDeadline) {
  // A millisecond count read from a request or argv may not fit the
  // clock's nanoseconds; it must not wrap into a deadline in the past.
  const CancelToken token = CancelToken::make();
  for (const std::uint64_t ms :
       {std::uint64_t{0}, std::uint64_t{9223372036854775},
        std::uint64_t{18446744073709551615u}}) {
    token.set_timeout_ms(ms);
    EXPECT_FALSE(token.cancelled()) << ms;
  }
  token.set_timeout_ms(1);
  while (!token.cancelled()) std::this_thread::yield();
}

}  // namespace
}  // namespace tracesel::util
