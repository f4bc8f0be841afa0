// The one (time, value) series type of the stack, and the sampler that
// feeds it on a sim-clock cadence.
//
// obs::TimeSeries comes in two shapes:
//  * unbounded (default-constructed): every add() is kept and nothing is
//    reserved up front — the figure series on sim::SimResult, the V-edge
//    pulse recordings;
//  * bounded (explicit capacity >= 2): a ring with *stride downsampling*.
//    When the buffer fills, every other retained sample is dropped and
//    the acceptance stride doubles, so a series that outlives its
//    capacity degrades resolution instead of memory.
// Either way the retained set is a pure function of the add() sequence —
// never of wall clock or allocation pressure — which is what lets two
// identical runs carry bit-identical history (tests/obs/timeseries_test.cpp
// pins wrap and downsample).
//
// obs::MetricsSampler bundles one TimeSeries per named channel behind a
// single sim-clock cadence: the caller feeds the latest value of each
// channel and calls sample(t) on the shared tick, so every channel sees
// the same add() sequence, stays on the same stride, and the exported CSV
// rows align column-for-column. Sampling is driven by *simulation* time
// only — the sampler never reads a clock — so enabling it cannot perturb
// determinism.
//
// Determinism contract (matches obs/telemetry.h): a disabled sampler is
// never constructed, and a constructed sampler only observes — it writes
// no simulation state, so runs with and without sampling are bit-identical
// (tests/sim/telemetry_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/units.h"

namespace capman::obs {

/// (time, value) series, unbounded or a stride-downsampling ring (see the
/// file comment).
class TimeSeries {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  TimeSeries() = default;
  /// Bounded ring; capacity must be >= 2 (throws std::invalid_argument).
  explicit TimeSeries(std::size_t capacity);

  /// Offer one sample at time `t` (seconds, non-decreasing). Samples are
  /// accepted when their offer index is a multiple of the current stride;
  /// a full ring compacts (drops every other retained sample) and doubles
  /// the stride first. An unbounded series never compacts.
  void add(double t, double v);

  [[nodiscard]] std::size_t size() const { return t_.size(); }
  [[nodiscard]] bool empty() const { return t_.empty(); }
  /// kUnbounded for a default-constructed series.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Current acceptance stride (1 until the first overflow, then 2, 4...).
  [[nodiscard]] std::uint64_t stride() const { return stride_; }

  [[nodiscard]] double time_at(std::size_t i) const { return t_[i]; }
  [[nodiscard]] double value_at(std::size_t i) const { return v_[i]; }
  [[nodiscard]] const std::vector<double>& times() const { return t_; }
  [[nodiscard]] const std::vector<double>& values() const { return v_; }

  [[nodiscard]] double min_value() const;  // over retained samples; 0 if empty
  [[nodiscard]] double max_value() const;

  /// Uniformly subsample to at most n points (keeps first and last).
  [[nodiscard]] TimeSeries decimate(std::size_t n) const;

  /// Fraction of time the value exceeds `threshold` (piecewise-constant
  /// interpretation: each sample holds until the next).
  [[nodiscard]] double fraction_above(double threshold) const;

 private:
  std::size_t capacity_ = kUnbounded;
  std::uint64_t stride_ = 1;
  std::uint64_t offered_ = 0;
  std::vector<double> t_;
  std::vector<double> v_;
};

/// Configuration of the periodic sampler (nested in obs::TelemetryConfig).
/// Disabled by default: the engine then never constructs a sampler and the
/// run is bit-identical to a sampler-free build.
struct SamplerConfig {
  bool enabled = false;
  /// Sampling period on the simulation clock, seconds.
  double period_s = 2.0;
  /// Ring capacity per channel (stride doubles on overflow);
  /// TimeSeries::kUnbounded keeps every tick.
  std::size_t capacity = 512;
  /// Wide CSV of the sampled history ("" = don't write): one t_s column
  /// plus one column per channel, rows aligned on the shared cadence.
  std::string csv_path;

  /// Human-readable configuration errors; empty means valid. Aggregated
  /// by TelemetryConfig::validate() under "sampler.".
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Named-channel periodic sampler (see the file comment). Channels are
/// registered up front, fed via set(), and recorded together by sample(t)
/// whenever the caller's clock passes due().
class MetricsSampler {
 public:
  explicit MetricsSampler(const SamplerConfig& config);

  /// Register a value channel; returns its id. Registration order is the
  /// CSV column order. Duplicate names throw std::invalid_argument.
  std::size_t channel(std::string name);

  /// Update the latest value of a channel (cheap; no recording).
  void set(std::size_t id, double v) { channels_[id].last = v; }

  /// True when simulation time `t` has reached the next sampling tick.
  [[nodiscard]] bool due(util::Seconds t) const {
    return t.value() >= next_sample_s_;
  }
  /// Simulation time of the next sampling tick.
  [[nodiscard]] double next_sample_s() const { return next_sample_s_; }
  /// Record every channel at time `t` and advance the cadence.
  void sample(util::Seconds t);

  [[nodiscard]] const SamplerConfig& config() const { return config_; }
  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }
  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }
  [[nodiscard]] const TimeSeries& series(std::size_t id) const {
    return channels_[id].series;
  }
  /// Move a channel's history out (the channel is left empty).
  [[nodiscard]] TimeSeries take(std::size_t id) {
    return std::move(channels_[id].series);
  }
  [[nodiscard]] const std::string& name(std::size_t id) const {
    return channels_[id].name;
  }
  /// Series by channel name; nullptr when absent.
  [[nodiscard]] const TimeSeries* find(std::string_view name) const;

  /// Wide CSV: header "t_s,<ch0>,<ch1>,...", one row per retained tick.
  /// Every channel shares the cadence, so rows align by construction.
  void write_csv(std::ostream& out) const;

 private:
  struct Channel {
    std::string name;
    TimeSeries series;
    double last = 0.0;
  };

  SamplerConfig config_;
  std::vector<Channel> channels_;
  double next_sample_s_ = 0.0;
  std::uint64_t samples_ = 0;
};

}  // namespace capman::obs
