#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace capman::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, NegativeValues) {
  RunningStats s;
  s.add(-5.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(TimeSeries, MinMax) {
  TimeSeries ts;
  ts.add(0.0, 2.0);
  ts.add(1.0, -1.0);
  ts.add(2.0, 5.0);
  EXPECT_DOUBLE_EQ(ts.max_value(), 5.0);
  EXPECT_DOUBLE_EQ(ts.min_value(), -1.0);
}

TEST(TimeSeries, EmptyBehaviour) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_DOUBLE_EQ(ts.max_value(), 0.0);
  EXPECT_DOUBLE_EQ(ts.fraction_above(0.0), 0.0);
  EXPECT_TRUE(ts.decimate(4).empty());
}

TEST(TimeSeries, DecimateKeepsEndpoints) {
  TimeSeries ts;
  for (int i = 0; i <= 100; ++i) ts.add(i, 2.0 * i);
  const TimeSeries d = ts.decimate(11);
  ASSERT_EQ(d.size(), 11u);
  EXPECT_DOUBLE_EQ(d.time_at(0), 0.0);
  EXPECT_DOUBLE_EQ(d.time_at(10), 100.0);
  EXPECT_DOUBLE_EQ(d.value_at(10), 200.0);
}

TEST(TimeSeries, DecimateNoOpWhenSmall) {
  TimeSeries ts;
  ts.add(0.0, 1.0);
  ts.add(1.0, 2.0);
  EXPECT_EQ(ts.decimate(10).size(), 2u);
}

TEST(TimeSeries, FractionAbove) {
  TimeSeries ts;
  ts.add(0.0, 1.0);  // holds during [0,1): below
  ts.add(1.0, 5.0);  // holds during [1,3): above
  ts.add(3.0, 1.0);
  EXPECT_NEAR(ts.fraction_above(3.0), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(ts.fraction_above(10.0), 0.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h{0.0, 10.0, 10};
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(100.0);  // clamps to bin 9
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, Quantile) {
  Histogram h{0.0, 100.0, 100};
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
}

TEST(Histogram, BinLow) {
  Histogram h{10.0, 20.0, 5};
  EXPECT_DOUBLE_EQ(h.bin_low(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_low(4), 18.0);
}

}  // namespace
}  // namespace capman::util
