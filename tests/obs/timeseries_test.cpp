// TimeSeries / MetricsSampler contracts (src/obs/timeseries.h): the
// stride-downsampling ring keeps bounded memory with a retained set that
// is a pure function of the add() sequence, an unbounded series keeps
// everything, and the sampler keeps every channel on one shared cadence
// so exported CSV rows align by column. The append/decimate/fraction_above
// cases of the same class run in tests/util/stats_test.cpp.
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config_error_message.h"

namespace capman::obs {
namespace {

TEST(TimeSeries, CapacityBelowTwoThrows) {
  EXPECT_THROW(TimeSeries{0}, std::invalid_argument);
  EXPECT_THROW(TimeSeries{1}, std::invalid_argument);
  EXPECT_NO_THROW(TimeSeries{2});
}

TEST(TimeSeries, KeepsEverySampleUntilFull) {
  TimeSeries series{4};
  for (int i = 0; i < 4; ++i) {
    series.add(static_cast<double>(i), 10.0 * i);
  }
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.stride(), 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(series.time_at(i), static_cast<double>(i));
    EXPECT_DOUBLE_EQ(series.value_at(i), 10.0 * static_cast<double>(i));
  }
}

TEST(TimeSeries, OverflowCompactsAndDoublesStride) {
  // Capacity 4, offer indices 0..6 with t = index: the 5th offer (index
  // 4) finds the ring full, keeps every other retained sample ([0, 2]),
  // doubles the stride to 2, and appends index 4 (4 % 2 == 0).
  TimeSeries series{4};
  for (int i = 0; i <= 6; ++i) {
    series.add(static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_EQ(series.stride(), 2u);
  EXPECT_EQ(series.times(), (std::vector<double>{0.0, 2.0, 4.0, 6.0}));
}

TEST(TimeSeries, RepeatedOverflowKeepsStrideMultiples) {
  // Continue through two more compactions: retained offer indices are
  // always multiples of the current stride, oldest sample is index 0.
  TimeSeries series{4};
  for (int i = 0; i <= 16; ++i) {
    series.add(static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_EQ(series.stride(), 8u);
  EXPECT_EQ(series.times(), (std::vector<double>{0.0, 8.0, 16.0}));
  // Never exceeded capacity along the way.
  EXPECT_LE(series.size(), series.capacity());
}

TEST(TimeSeries, RetainedSetIsAPureFunctionOfTheAddSequence) {
  // Two rings fed the identical sequence hold bit-identical state — the
  // determinism clause fleet/telemetry bit-identity tests lean on.
  TimeSeries a{8};
  TimeSeries b{8};
  for (int i = 0; i < 1000; ++i) {
    const double t = 0.25 * i;
    const double v = (i * 7919) % 104729;  // deterministic, non-monotonic
    a.add(t, v);
    b.add(t, v);
  }
  EXPECT_EQ(a.stride(), b.stride());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.time_at(i), b.time_at(i));
    EXPECT_EQ(a.value_at(i), b.value_at(i));
  }
}

TEST(TimeSeries, SummaryHelpersTrackRetainedSamples) {
  TimeSeries series{8};
  EXPECT_DOUBLE_EQ(series.min_value(), 0.0);
  series.add(1.0, 5.0);
  series.add(2.0, -3.0);
  series.add(3.0, 9.0);
  EXPECT_DOUBLE_EQ(series.min_value(), -3.0);
  EXPECT_DOUBLE_EQ(series.max_value(), 9.0);
}

TEST(TimeSeries, UnboundedSeriesNeverCompacts) {
  // The default-constructed shape (the figure series): every sample is
  // kept, in order, however long the run.
  TimeSeries series;
  EXPECT_EQ(series.capacity(), TimeSeries::kUnbounded);
  constexpr std::size_t kSamples = 100000;
  for (std::size_t i = 0; i < kSamples; ++i) {
    series.add(0.5 * static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_EQ(series.size(), kSamples);
  EXPECT_EQ(series.stride(), 1u);
  EXPECT_DOUBLE_EQ(series.time_at(kSamples - 1), 0.5 * (kSamples - 1));
  EXPECT_DOUBLE_EQ(series.value_at(kSamples - 1), kSamples - 1.0);
}

SamplerConfig enabled_config() {
  SamplerConfig config;
  config.enabled = true;
  return config;
}

TEST(SamplerConfigValidate, FieldMessagesAreLocked) {
  SamplerConfig config;
  config.period_s = 0.0;
  config.capacity = 1;
  config.csv_path = "x.csv";  // without enabled
  const auto errors = config.validate();
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[0], "period_s must be > 0");
  EXPECT_EQ(errors[1], "capacity must be >= 2");
  EXPECT_EQ(errors[2], "csv_path requires enabled to be true");
}

TEST(MetricsSampler, CtorRejectsInvalidConfig) {
  SamplerConfig config = enabled_config();
  config.period_s = -1.0;
  EXPECT_THROW(MetricsSampler{config}, std::invalid_argument);
  config.capacity = 1;
  const auto errors = config.validate();
  ASSERT_GE(errors.size(), 2u);
  EXPECT_EQ(thrown_config_message([&] { (void)MetricsSampler{config}; }),
            expected_config_message("SamplerConfig", errors));
}

TEST(MetricsSampler, DuplicateChannelNamesThrow) {
  MetricsSampler sampler{enabled_config()};
  sampler.channel("soc");
  EXPECT_THROW(sampler.channel("soc"), std::invalid_argument);
}

TEST(MetricsSampler, ChannelsShareOneCadence) {
  SamplerConfig config = enabled_config();
  config.period_s = 2.0;
  MetricsSampler sampler{config};
  const std::size_t soc = sampler.channel("soc");
  const std::size_t power = sampler.channel("power_w");

  EXPECT_TRUE(sampler.due(util::Seconds{0.0}));  // first tick fires immediately
  double t = 0.0;
  for (int step = 0; step < 100; ++step) {
    t = 0.1 * step;
    sampler.set(soc, 1.0 - 0.001 * step);
    sampler.set(power, 2.0);
    if (sampler.due(util::Seconds{t})) sampler.sample(util::Seconds{t});
  }
  EXPECT_FALSE(sampler.due(util::Seconds{t}));
  EXPECT_EQ(sampler.samples_taken(), 5u);  // t = 0, 2, 4, 6, 8
  EXPECT_EQ(sampler.series(soc).size(), sampler.series(power).size());
  EXPECT_EQ(sampler.series(soc).times(), sampler.series(power).times());
}

TEST(MetricsSampler, FindLocatesChannelsByName) {
  MetricsSampler sampler{enabled_config()};
  sampler.channel("soc");
  EXPECT_NE(sampler.find("soc"), nullptr);
  EXPECT_EQ(sampler.find("nope"), nullptr);
}

TEST(MetricsSampler, CsvRowsAlignAcrossDownsampledChannels) {
  SamplerConfig config = enabled_config();
  config.capacity = 4;  // force downsampling
  MetricsSampler sampler{config};
  const std::size_t a = sampler.channel("a");
  const std::size_t b = sampler.channel("b");
  for (int i = 0; i <= 6; ++i) {
    sampler.set(a, 1.0 * i);
    sampler.set(b, -1.0 * i);
    sampler.sample(util::Seconds{static_cast<double>(i)});
  }

  std::ostringstream out;
  sampler.write_csv(out);
  std::istringstream in{out.str()};
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  ASSERT_EQ(lines.size(), 1u + sampler.series(a).size());
  EXPECT_EQ(lines[0], "t_s,a,b");
  // Post-overflow retained ticks (see OverflowCompactsAndDoublesStride).
  EXPECT_EQ(lines[1], "0.000,0,-0");
  EXPECT_EQ(lines[2], "2.000,2,-2");
  EXPECT_EQ(lines[3], "4.000,4,-4");
  EXPECT_EQ(lines[4], "6.000,6,-6");
}

}  // namespace
}  // namespace capman::obs
