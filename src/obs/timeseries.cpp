#include "obs/timeseries.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/json_append.h"
#include "util/config_check.h"

namespace capman::obs {

TimeSeries::TimeSeries(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ < 2) {
    throw std::invalid_argument("TimeSeries capacity must be >= 2");
  }
}

void TimeSeries::add(double t, double v) {
  assert(t_.empty() || t >= t_.back());
  const std::uint64_t index = offered_++;
  if (index % stride_ != 0) return;
  if (t_.size() == capacity_) {
    // Halve resolution: keep every other retained sample. Retained offer
    // indices become multiples of the doubled stride, so the acceptance
    // test below stays consistent with what survived the compaction.
    std::size_t w = 0;
    for (std::size_t r = 0; r < t_.size(); r += 2, ++w) {
      t_[w] = t_[r];
      v_[w] = v_[r];
    }
    t_.resize(w);
    v_.resize(w);
    stride_ *= 2;
    if (index % stride_ != 0) return;
  }
  t_.push_back(t);
  v_.push_back(v);
}

double TimeSeries::min_value() const {
  return v_.empty() ? 0.0 : *std::min_element(v_.begin(), v_.end());
}

double TimeSeries::max_value() const {
  return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end());
}

TimeSeries TimeSeries::decimate(std::size_t n) const {
  TimeSeries out;
  if (t_.empty() || n == 0) return out;
  if (t_.size() <= n) return *this;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = i * (t_.size() - 1) / (n - 1 > 0 ? n - 1 : 1);
    out.add(t_[idx], v_[idx]);
  }
  return out;
}

double TimeSeries::fraction_above(double threshold) const {
  if (t_.size() < 2) return 0.0;
  double above = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
    const double dt = t_[i + 1] - t_[i];
    total += dt;
    if (v_[i] > threshold) above += dt;
  }
  return total > 0.0 ? above / total : 0.0;
}

std::vector<std::string> SamplerConfig::validate() const {
  std::vector<std::string> errors;
  if (!(period_s > 0.0)) {
    errors.emplace_back("period_s must be > 0");
  }
  if (capacity < 2) {
    errors.emplace_back("capacity must be >= 2");
  }
  if (!enabled && !csv_path.empty()) {
    errors.emplace_back("csv_path requires enabled to be true");
  }
  return errors;
}

MetricsSampler::MetricsSampler(const SamplerConfig& config) : config_(config) {
  util::throw_if_invalid("SamplerConfig", config_.validate());
}

std::size_t MetricsSampler::channel(std::string name) {
  for (const auto& existing : channels_) {
    if (existing.name == name) {
      throw std::invalid_argument("MetricsSampler: duplicate channel '" +
                                  name + "'");
    }
  }
  channels_.push_back({std::move(name), TimeSeries{config_.capacity}, 0.0});
  return channels_.size() - 1;
}

void MetricsSampler::sample(util::Seconds t) {
  for (auto& ch : channels_) {
    ch.series.add(t.value(), ch.last);
  }
  ++samples_;
  next_sample_s_ = t.value() + config_.period_s;
}

const TimeSeries* MetricsSampler::find(std::string_view name) const {
  for (const auto& ch : channels_) {
    if (ch.name == name) return &ch.series;
  }
  return nullptr;
}

void MetricsSampler::write_csv(std::ostream& out) const {
  // Hand-rolled (util::CsvWriter lives above obs in the link order):
  // locale-free to_chars cells, one buffered write.
  std::string buf;
  buf.reserve(4096);
  buf += "t_s";
  for (const auto& ch : channels_) {
    buf += ',';
    buf += ch.name;
  }
  buf += '\n';
  const std::size_t rows =
      channels_.empty() ? 0 : channels_.front().series.size();
  for (std::size_t i = 0; i < rows; ++i) {
    detail::append_fixed(buf, channels_.front().series.time_at(i), 3);
    for (const auto& ch : channels_) {
      buf += ',';
      detail::append_double(buf, ch.series.value_at(i));
    }
    buf += '\n';
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

}  // namespace capman::obs
