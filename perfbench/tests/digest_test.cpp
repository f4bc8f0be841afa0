// The output digests are stable: equal inputs give equal digests across
// calls and builds (pinned values), and any changed statistic changes them.
#include "digest.h"

#include <gtest/gtest.h>

#include <cmath>

#include "obs/metrics.h"

namespace {

capman::sim::SimResult sample_result() {
  capman::sim::SimResult result;
  result.workload = "Video";
  result.policy = "CAPMAN";
  result.phone = "Nexus";
  result.service_time_s = 1234.5;
  result.switch_count = 17;
  result.energy_delivered_j = 9876.25;
  capman::obs::MetricsRegistry registry;
  registry.counter("engine/steps").add(24690);
  result.metrics = registry.snapshot();
  return result;
}

TEST(Digest, FnvOfKnownBytes) {
  // FNV-1a 64 over the little-endian length prefix, then the bytes.
  EXPECT_EQ(perfbench::Digest{}.add(std::string_view{}).value(),
            0xa8c7f832281a39c5ULL);
  EXPECT_EQ(perfbench::Digest{}.add(std::string_view{"a"}).value(),
            0x529a4ddc8ff56bbfULL);
  EXPECT_NE(perfbench::Digest{}.add("a").value(),
            perfbench::Digest{}.add("b").value());
}

TEST(Digest, StableForEqualResults) {
  const auto a = sample_result();
  const auto b = sample_result();
  EXPECT_EQ(perfbench::cycle_digest(a), perfbench::cycle_digest(b));
  EXPECT_EQ(perfbench::result_digest(a), perfbench::result_digest(b));
  EXPECT_EQ(perfbench::snapshot_digest(a.metrics),
            perfbench::snapshot_digest(b.metrics));
}

TEST(Digest, CycleDigestCoversServiceSwitchesAndSteps) {
  const auto base = sample_result();
  auto service = base;
  service.service_time_s = std::nextafter(service.service_time_s, 2e3);
  auto switches = base;
  switches.switch_count += 1;
  auto steps = base;
  capman::obs::MetricsRegistry registry;
  registry.counter("engine/steps").add(24691);
  steps.metrics = registry.snapshot();
  for (const auto* changed : {&service, &switches, &steps}) {
    EXPECT_NE(perfbench::cycle_digest(base), perfbench::cycle_digest(*changed));
  }
  // Energy is outside the cycle digest but inside the full result digest.
  auto energy = base;
  energy.energy_delivered_j += 1.0;
  EXPECT_EQ(perfbench::cycle_digest(base), perfbench::cycle_digest(energy));
  EXPECT_NE(perfbench::result_digest(base), perfbench::result_digest(energy));
}

TEST(Digest, SeriesChangeTheResultDigest) {
  const auto base = sample_result();
  auto series = base;
  series.soc_series.add(0.0, 1.0);
  EXPECT_NE(perfbench::result_digest(base), perfbench::result_digest(series));
}

}  // namespace
