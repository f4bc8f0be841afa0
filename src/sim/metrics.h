// Simulation outputs: everything the paper's evaluation section reads off
// the testbed (service time, energy, temperatures, switch counts, battery
// activation ratios, time series for the figures).
#pragma once

#include <string>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"
#include "util/stats.h"

namespace capman::sim {

/// Fault-episode telemetry for one run, populated only when a FaultPlan is
/// active (all-zero otherwise). Actuator/sensor fields come from the
/// injection layer (sim/faults.h); the detected_*/fallback_* fields come
/// from the scheduler's DegradationGuard (core/degradation.h).
struct FaultStats {
  std::size_t stuck_episodes = 0;      // comparator stuck windows entered
  double stuck_time_s = 0.0;           // total stuck dwell
  std::size_t dropped_requests = 0;    // switch requests eaten while stuck
  std::size_t transient_failures = 0;  // requests lost to glitches
  std::size_t transient_retries = 0;   // board-level bounded retries
  std::size_t jittered_switches = 0;   // flips with perturbed latency
  std::size_t latency_spikes = 0;
  std::size_t droop_episodes = 0;      // supercap ride-through droops
  std::size_t sensor_dropouts = 0;     // reads served last-known-good
  std::size_t corrupted_reads = 0;     // reads with bias/noise applied

  // Scheduler-side graceful degradation (CAPMAN's DegradationGuard).
  std::size_t detected_switch_failures = 0;
  std::size_t fallback_episodes = 0;
  std::size_t fallback_retries = 0;

  /// True when any fault fired or any degradation response engaged.
  [[nodiscard]] bool any() const {
    return stuck_episodes || dropped_requests || transient_failures ||
           transient_retries || jittered_switches || latency_spikes ||
           droop_episodes || sensor_dropouts || corrupted_reads ||
           detected_switch_failures || fallback_episodes || fallback_retries;
  }

  /// Publish the counters into `registry` under faults/*. Cumulative over
  /// a run; publish once, when the run is over (the engine does).
  void publish(obs::MetricsRegistry& registry) const;
};

struct SimResult {
  std::string workload;
  std::string policy;
  std::string phone;

  double service_time_s = 0.0;       // discharge-cycle length
  bool truncated = false;            // hit max_duration before dying
  bool died_of_brownout = false;     // sustained unmet demand (vs exhausted)

  double energy_delivered_j = 0.0;
  double energy_lost_j = 0.0;
  double tec_energy_j = 0.0;
  double tec_on_fraction = 0.0;

  double avg_power_w = 0.0;          // average total draw while alive
  double avg_cpu_temp_c = 0.0;
  double max_cpu_temp_c = 0.0;
  double avg_surface_temp_c = 0.0;
  double max_surface_temp_c = 0.0;

  // Power-budget arbiter telemetry (all zero when SimConfig::budget is
  // disabled). "Shed" is demand power the caps refused to serve;
  // throttled steps are steps where any shedding happened at all.
  double avg_budget_mw = 0.0;           // time-weighted effective budget
  double budget_shed_j = 0.0;           // energy trimmed off the demand
  std::size_t budget_throttled_steps = 0;
  std::size_t budget_rebudgets = 0;     // arbiter redistribution count
  std::size_t budget_tec_vetoes = 0;    // TEC turn-ons refused by the grant

  std::size_t switch_count = 0;
  double big_active_s = 0.0;
  double little_active_s = 0.0;
  double end_big_soc = 0.0;     // state of charge when the cycle ended
  double end_little_soc = 0.0;  // (stranded charge is the 'rate-capacity' cost)

  FaultStats faults;  // all-zero unless the run had an active FaultPlan

  /// Health-watchdog telemetry (obs/health.h): per-rule alert counts plus
  /// the full alert log. All-zero/empty unless TelemetryConfig::health was
  /// enabled for the run.
  obs::HealthStats health;
  std::vector<obs::HealthAlert> health_alerts;

  /// Deterministic end-of-run registry snapshot (src/obs): decision-ladder
  /// counters, Algorithm 1 pair counters, switch/fault/guard counters,
  /// engine step counts. Always populated (the registry is cheap); wall-
  /// clock timings appear only when TelemetryConfig::timing_metrics asked
  /// for them.
  obs::MetricsSnapshot metrics;

  // Sampled series for figure reproduction.
  util::TimeSeries soc_series;          // combined SoC vs time (Fig. 12)
  util::TimeSeries power_series;        // total active power vs time (13/15)
  util::TimeSeries cpu_temp_series;     // hot-spot temperature (Fig. 13)
  util::TimeSeries surface_temp_series;
  util::TimeSeries tec_power_series;

  /// Overall energy efficiency delivered / (delivered + lost).
  [[nodiscard]] double efficiency() const {
    const double total = energy_delivered_j + energy_lost_j;
    return total > 0.0 ? energy_delivered_j / total : 0.0;
  }
  /// Fig. 14's x-axis: big activation time / LITTLE activation time.
  [[nodiscard]] double big_little_ratio() const {
    return little_active_s > 0.0 ? big_active_s / little_active_s : 0.0;
  }
};

}  // namespace capman::sim
