// Declarative health watchdogs over the sampled time dimension.
//
// CAPMAN's failure modes are *trajectories*, not snapshots: a skin
// temperature ramping at degrees-per-minute, a budget grant collapsing
// under demand for minutes, a comparator thrashing the pack, a pack whose
// time-to-empty first passes a low watermark. The HealthMonitor evaluates
// a fixed rule set over trailing windows of the engine's step samples
// (obs/step_sample.h) at a sim-clock cadence and emits structured alert
// records:
//
//  * kThermalRunaway   — max(skin, cell) temperature slope over
//                        thermal_window_s exceeds thermal_slope_c_per_min
//                        while above thermal_floor_c (runaway, not warmup).
//  * kBudgetStarvation — the arbiter grant covers less than
//                        starvation_ratio of demand for
//                        starvation_windows consecutive evaluations
//                        (FastCap-style fairness floor).
//  * kSwitchThrash     — switch rate over thrash_window_s exceeds
//                        thrash_rate_per_min (a thrashing comparator eats
//                        its own switching energy).
//  * kGuardEngaged     — the DegradationGuard entered fallback (the
//                        actuator is suspect).
//  * kTimeToEmpty      — the first-passage-style time-to-empty estimate
//                        (SoC over its trailing discharge slope) first
//                        drops below tte_watermark_s.
//
// Rules are edge-triggered: one alert per episode, re-armed when the
// condition clears. Alerts land in three places: the in-memory alert log
// (surfaced on SimResult), the health/* registry counters, and — when a
// FlightRecorder is attached — a black-box dump trigger.
//
// Determinism contract: evaluation is a pure function of the step-sample
// sequence — no wall clock, no RNG, no allocation surprises — and
// the monitor never feeds anything back into the simulation, so runs with
// the monitor on are bit-identical to runs with it off, and fleet alert
// counts merge deterministically across shard/thread layouts
// (tests/sim/fleet_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/step_sample.h"

namespace capman::obs {

enum class HealthRule : std::uint8_t {
  kThermalRunaway = 0,
  kBudgetStarvation,
  kSwitchThrash,
  kGuardEngaged,
  kTimeToEmpty,
};

inline constexpr std::size_t kHealthRuleCount = 5;

/// Stable rule slug ("thermal_runaway", ...): alert JSONL field, metric
/// name suffix and fleet aggregate key. Pinned by tests and
/// scripts/check_trace_schema.py.
const char* to_string(HealthRule rule);

/// Nested in obs::TelemetryConfig (and on sim::FleetConfig for per-device
/// fleet monitoring). Disabled by default: no monitor is constructed and
/// runs are bit-identical to a monitor-free build.
struct HealthConfig {
  bool enabled = false;
  /// Evaluation cadence on the simulation clock, seconds.
  double period_s = 2.0;

  // kThermalRunaway
  double thermal_slope_c_per_min = 3.0;
  double thermal_window_s = 30.0;
  /// Slopes only count once the hotter of skin/cell passes this floor —
  /// every device ramps while warming up from ambient.
  double thermal_floor_c = 40.0;

  // kBudgetStarvation (evaluated only while an arbiter grant is in force)
  double starvation_ratio = 0.5;
  std::uint32_t starvation_windows = 3;

  // kSwitchThrash
  double thrash_rate_per_min = 12.0;
  double thrash_window_s = 60.0;

  // kGuardEngaged
  bool alert_on_guard = true;

  // kTimeToEmpty
  double tte_watermark_s = 120.0;
  double tte_window_s = 60.0;

  /// Alert JSONL ("" = keep alerts in memory/metrics only).
  std::string alerts_path;

  /// Human-readable configuration errors; empty means valid. Aggregated
  /// by TelemetryConfig::validate() under "health.".
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// One fired alert. Schema of the JSONL form (write_json_line;
/// scripts/check_trace_schema.py is the source of truth): seq, t_s, rule,
/// value, threshold, detail.
struct HealthAlert {
  std::uint64_t seq = 0;
  double t_s = 0.0;
  HealthRule rule = HealthRule::kThermalRunaway;
  double value = 0.0;      // the measurement that crossed
  double threshold = 0.0;  // the configured limit it crossed
  std::string detail;
};

/// Per-rule alert counters — plain data, exact to merge (fleet shards sum
/// these in shard order, the alert-count bit-identity substrate).
struct HealthStats {
  std::uint64_t evaluations = 0;
  std::array<std::uint64_t, kHealthRuleCount> alerts{};

  [[nodiscard]] std::uint64_t total_alerts() const;
  void merge(const HealthStats& other);

  /// Publish under health/* (health/evaluations, health/alerts_total,
  /// health/alerts/<rule>). Cumulative over a run; publish once at end.
  void publish(MetricsRegistry& registry) const;
};

class HealthMonitor {
 public:
  /// Validates `config` (throws std::invalid_argument).
  explicit HealthMonitor(const HealthConfig& config);

  [[nodiscard]] const HealthConfig& config() const { return config_; }

  /// Simulation time of the next evaluation tick (0 before the first).
  [[nodiscard]] double next_eval_s() const { return next_eval_s_; }

  /// Evaluate every rule on one step's ground truth (at sample.t_s);
  /// returns the alerts fired by THIS evaluation (empty on quiet ticks).
  /// Call in sim-time order.
  const std::vector<HealthAlert>& evaluate(const StepSample& sample);

  [[nodiscard]] const std::vector<HealthAlert>& alerts() const {
    return alerts_;
  }
  [[nodiscard]] const HealthStats& stats() const { return stats_; }

  /// Latest first-passage time-to-empty estimate in seconds (infinity
  /// until a discharge slope is observable).
  [[nodiscard]] double time_to_empty_s() const { return tte_s_; }

  /// Write every alert fired so far as JSONL.
  void write_alerts(std::ostream& out) const;

  /// The serialisation itself, exposed for schema round-trip tests.
  static void write_json_line(std::ostream& out, const HealthAlert& alert);

 private:
  /// Trailing (t, v) window: push keeps samples within `window_s` of the
  /// newest. Bounded by window_s / period_s samples.
  struct Window {
    std::vector<double> t;
    std::vector<double> v;
    void push(double now, double value, double window_s);
    [[nodiscard]] double span() const;
    [[nodiscard]] double slope_per_s() const;  // endpoint slope; 0 if <2
  };

  void fire(double t, HealthRule rule, double value, double threshold,
            std::string detail);

  HealthConfig config_;
  double next_eval_s_ = 0.0;
  std::vector<HealthAlert> alerts_;
  std::vector<HealthAlert> fired_;  // alerts of the current evaluation
  HealthStats stats_;

  Window thermal_window_;
  Window soc_window_;
  Window switch_window_;
  std::uint32_t starved_windows_ = 0;
  double tte_s_ = 0.0;
  bool tte_valid_ = false;
  std::array<bool, kHealthRuleCount> active_{};  // edge-trigger latches
};

}  // namespace capman::obs
