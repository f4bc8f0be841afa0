// Small timing and order-statistics helpers shared by the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Host seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host nanoseconds on the monotonic clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

/// The median of `values`; 0 when empty.
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Sum of `values`.
double sum(const std::vector<double>& values);

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mib();

}  // namespace perfbench
