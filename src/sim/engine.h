// Discrete-time simulation engine: workload trace -> device power models ->
// scheduling policy -> battery pack -> thermal network + TEC, stepped on a
// fixed clock until the pack dies (one discharge cycle). This replaces the
// paper's physical testbed (phones + multimeter + switch board).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "battery/pack.h"
#include "core/power_budget.h"
#include "device/phone.h"
#include "obs/telemetry.h"
#include "policy/policy.h"
#include "sim/faults.h"
#include "sim/metrics.h"
#include "thermal/controller.h"
#include "thermal/phone_thermal.h"
#include "workload/trace.h"

namespace capman::sim {

struct SimConfig {
  util::Seconds dt{0.05};  // fixed step; 50 ms resolves surge trains while
                           // keeping multi-day toggle runs tractable
  util::Seconds max_duration = util::hours(400.0);  // hard stop for runs
                                                    // that never deplete
  bool enable_tec = true;  // false: cooling plate only (Fig. 14 baseline)
  // Net unmet demand (leaky integrator, slow forgiveness) beyond this
  // kills the phone: one voltage-sag stutter rides through on the rail
  // capacitance, repeated or sustained sag shuts the phone down.
  util::Seconds death_grace{2.5};

  // Figure series capture (SimResult::*_series): obs::Telemetry samples
  // the step at roughly this period into unbounded series.
  bool record_series = true;
  util::Seconds series_period{2.0};

  // The big.LITTLE pack under test, and the single stock cell swapped in
  // for policies with wants_single_pack() (the paper's Practice phone).
  battery::DualPackConfig pack_config{};
  battery::Chemistry practice_chemistry = battery::Chemistry::kLCO;
  double practice_capacity_mah = 2500.0;

  // Thermal stack: RC network, Peltier element, 45 C threshold controller.
  thermal::PhoneThermalConfig thermal_config{};
  thermal::TecParams tec_params{};
  thermal::CoolingControllerConfig cooling_config{};

  // Actuator/sensor fault plan (sim/faults.h). All-zero by default: the
  // engine then runs the ideal path and produces bit-identical results to
  // a fault-free build.
  FaultPlanConfig faults{};

  // Power-budget arbiter (core/power_budget.h). Disabled by default: the
  // engine then never builds consumers or shapes demand, so runs are
  // bit-identical to the pre-arbiter engine.
  core::PowerBudgetArbiterConfig budget{};

  // Telemetry sinks (src/obs): decision-trace JSONL, Chrome-trace spans,
  // metrics JSON/OpenMetrics, sampler, flight recorder, health monitor.
  // The engine feeds them only through obs::Telemetry (one StepSample per
  // observed step, one DecisionEvent per consultation). All off by
  // default; the deterministic registry snapshot still lands in
  // SimResult::metrics, and runs with everything disabled are
  // bit-identical to a telemetry-free build (tests/sim/telemetry_test.cpp).
  obs::TelemetryConfig telemetry{};

  /// Human-readable configuration errors; empty means the config is valid.
  /// Checks this struct plus the nested switch-facility and fault plans.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// The testbed. Stateless between runs: every run() builds a fresh pack,
/// thermal stack and metrics pipeline from the config, so one engine can
/// race many policies on the same trace (sim::ExperimentRunner::compare).
class SimEngine {
 public:
  /// Throws std::invalid_argument listing every problem when
  /// `config.validate()` is non-empty (negative dt, non-positive
  /// death_grace, zero oscillator_hz, malformed fault plan, ...).
  explicit SimEngine(const SimConfig& config = {});

  /// Run one full discharge cycle of `policy` on `trace` with `phone`:
  /// steps the clock by dt until the pack can no longer serve the demand
  /// (sustained unmet demand beyond death_grace) or max_duration passes.
  /// Deterministic: identical inputs give identical SimResults.
  SimResult run(const workload::Trace& trace, policy::BatteryPolicy& policy,
                const device::PhoneModel& phone) const;

  [[nodiscard]] const SimConfig& config() const { return config_; }

 private:
  SimConfig config_;
};

}  // namespace capman::sim
