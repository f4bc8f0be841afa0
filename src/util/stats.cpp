#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace capman::util {

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  const double frac = (x - lo_) / (hi_ - lo_);
  auto i = static_cast<std::ptrdiff_t>(frac * static_cast<double>(counts_.size()));
  i = std::clamp<std::ptrdiff_t>(i, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(i)];
  ++total_;
}

double Histogram::bin_low(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  const auto target = static_cast<std::size_t>(q * static_cast<double>(total_));
  std::size_t acc = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    acc += counts_[i];
    if (acc >= target) return bin_low(i);
  }
  return hi_;
}

}  // namespace capman::util
