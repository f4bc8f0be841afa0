// Graceful degradation of the actuator path (the robustness companion to
// the scheduler): the battery switch facility is real hardware that can
// stick, glitch or answer late, and a scheduler that keeps trusting a
// broken actuator browns the phone out. The DegradationGuard sits between
// the scheduler's *desired* battery and the request actually issued:
//
//  1. Detection — after every consultation the guard compares the cell the
//     scheduler asked for against the cell the comparator actually latched
//     (`PolicyContext::active`). A request that has not landed within
//     `detect_after` (orders of magnitude beyond the ms-scale switch
//     latency) is a failed or late switch.
//  2. Fallback — while the actuator is suspect the guard pins the decision
//     to the currently active cell (the safe policy for whichever battery
//     the phone actually has: stuck on big behaves like Practice, stuck on
//     LITTLE like Dual) instead of letting the scheduler thrash a dead
//     select line.
//  3. Retry with exponential backoff — the desired switch is re-issued at
//     `retry_initial`, doubling (`retry_backoff`) up to `retry_max`.
//     Rail-monitor emergencies bypass the backoff: a sagging rail is worth
//     a retry immediately (the engine already rate-limits emergencies).
//
// The guard is pure bookkeeping — no RNG, no allocation — and is disabled
// by default so fault-free runs are bit-identical to a guard-less build.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "battery/switcher.h"
#include "obs/metrics.h"
#include "util/units.h"

namespace capman::core {

struct DegradationConfig {
  bool enabled = false;
  // How long a requested switch may stay un-latched before it counts as
  // failed. Must dwarf the facility's ms-scale latency.
  util::Seconds detect_after{0.3};
  util::Seconds retry_initial{0.5};
  double retry_backoff = 2.0;
  util::Seconds retry_max{16.0};

  /// Human-readable configuration errors; empty means valid. Checked by
  /// the DegradationGuard constructor (throws std::invalid_argument when
  /// the guard is enabled).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Telemetry of the guard; threaded into sim::FaultStats by the engine.
struct DegradationStats {
  std::size_t failures_detected = 0;  // switches that never latched
  std::size_t fallback_episodes = 0;  // times the guard took over
  std::size_t retries = 0;            // backed-off re-requests issued
  bool in_fallback = false;           // currently riding the safe policy

  /// Publish the counters into `registry` under guard/*. Cumulative over a
  /// run; publish once when the run is over (the engine does).
  void publish(obs::MetricsRegistry& registry) const;
};

class DegradationGuard {
 public:
  explicit DegradationGuard(const DegradationConfig& config);

  /// Map the scheduler's desired selection to the request actually issued,
  /// given the cell the comparator reports active. Call once per
  /// consultation, in simulation-time order. `feasible` tells the guard
  /// whether the management facility would accept the desired switch at
  /// all (a drained target cell is refused by design — see
  /// DualBatteryPack::request); infeasible switches park the watchdog
  /// instead of arming it, so legitimate refusals are never misread as
  /// actuator faults.
  battery::BatterySelection filter(util::Seconds now,
                                   battery::BatterySelection observed,
                                   battery::BatterySelection desired,
                                   bool emergency, bool feasible = true);

  [[nodiscard]] const DegradationStats& stats() const { return stats_; }
  [[nodiscard]] bool in_fallback() const { return fallback_; }

 private:
  DegradationConfig config_;
  DegradationStats stats_;
  // Normal mode: the selection we asked the facility for and when, so a
  // switch that never lands can be detected.
  std::optional<battery::BatterySelection> expected_;
  double expected_since_s_ = 0.0;
  // Fallback mode: retry schedule for the stuck transition.
  bool fallback_ = false;
  double next_retry_s_ = 0.0;
  double retry_interval_s_ = 0.0;
};

}  // namespace capman::core
