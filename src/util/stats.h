// Streaming statistics for simulation metrics, plus the re-exported
// obs::TimeSeries.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "obs/timeseries.h"

namespace capman::util {

/// Welford online mean/variance plus min/max. O(1) per sample.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// The stack's one (time, value) series type lives in obs (the bottom
/// layer, so the sampler and the figure series share it); util re-exports
/// it for the simulation-facing callers.
using TimeSeries = obs::TimeSeries;

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp into the
/// edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::size_t bin_count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double bin_low(std::size_t i) const;
  [[nodiscard]] double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace capman::util
