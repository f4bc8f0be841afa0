// Battery scheduling policy interface shared by CAPMAN and all baselines
// (paper Section V): Oracle, Practice, Dual, Heuristic, CAPMAN.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "battery/pack.h"
#include "core/budget_level.h"
#include "core/degradation.h"
#include "device/power_state.h"
#include "obs/decision_trace.h"
#include "obs/instrumented.h"
#include "obs/metrics.h"
#include "util/units.h"
#include "workload/event.h"

namespace capman::policy {

/// Everything a policy may observe when consulted. The engine fills it
/// per event; policies must treat it as read-only and keep any learned
/// state internal.
struct PolicyContext {
  double now_s = 0.0;  // simulation time of the consultation
  device::DeviceStateVector device;  // CPU/screen/WiFi power states (Fig. 7)
  double demand_w = 0.0;  // instantaneous component power demand
  battery::BatterySelection active = battery::BatterySelection::kBig;
  double big_soc = 1.0;     // state of charge in [0, 1]; online policies
  double little_soc = 1.0;  // may read these (a fuel gauge exists in
                            // practice), the MDP state deliberately omits
                            // them (see EXPERIMENTS.md D1)
  double hotspot_c = 25.0;  // CPU hot-spot temperature, deg C
  // True when this consultation was triggered by the rail monitor (the
  // previous step's demand went unmet), not by a trace event.
  bool emergency = false;
  // Power-budget arbiter observables (zero / kFull when no arbiter runs):
  // the total mW the arbiter granted at its last rebudget and the budget
  // level currently in force.
  double granted_budget_mw = 0.0;
  core::BudgetLevel budget_level = core::BudgetLevel::kFull;

  // Clairvoyant fields, filled by the engine from the (known) trace. Only
  // the offline Oracle may read them; online policies must ignore them.
  double interval_avg_w = 0.0;
  double interval_duration_s = 0.0;
  const battery::DualBatteryPack* pack = nullptr;  // null on single packs
};

/// A battery-selection policy racing in the Fig. 12 comparison. One
/// instance lives for exactly one discharge cycle; the engine consults it
/// on every trace event and on every rail emergency, applies the returned
/// selection to the switch facility, and feeds accounting back through
/// record_step/maintenance.
/// Policies inherit obs::Instrumented: bind_metrics attaches a registry
/// for internal machinery (solver counters etc.) and publish_metrics is
/// the one-shot end-of-run publication the engine triggers after the last
/// step. Policies must never *read* the registry: decisions are
/// bit-identical with or without one.
class BatteryPolicy : public obs::Instrumented {
 public:
  /// Display name used in tables and series files ("CAPMAN", "Dual", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Battery decision when trace event `event` fires. Called again with
  /// `context.emergency` set when the previous selection failed to serve
  /// the demand; the answer is applied before the next engine step.
  virtual battery::BatterySelection on_event(
      const PolicyContext& context, const workload::Action& event) = 0;

  /// Per-step energy accounting feedback (used by learning policies).
  virtual void record_step(util::Joules /*delivered*/, util::Joules /*losses*/,
                           bool /*demand_met*/) {}

  /// Per-step upkeep; returns extra CPU power the policy itself costs.
  virtual util::Watts maintenance(util::Seconds /*now*/) {
    return util::Watts{0.0};
  }

  /// True when the policy runs on the original single-battery phone
  /// (the paper's Practice baseline).
  [[nodiscard]] virtual bool wants_single_pack() const { return false; }

  /// Actuator-degradation telemetry (detected switch failures, fallback
  /// episodes, retries). All zeros for policies without a guard; the
  /// engine threads it into sim::FaultStats.
  [[nodiscard]] virtual core::DegradationStats degradation() const {
    return {};
  }

  /// Budget level the policy would like the arbiter to enforce next
  /// (consulted after every on_event). Non-learning policies accept
  /// whatever the arbiter derives (kFull = no voluntary derate).
  [[nodiscard]] virtual core::BudgetLevel preferred_budget_level() const {
    return core::BudgetLevel::kFull;
  }

  /// Provenance of the most recent on_event() answer for the decision
  /// trace, or nullopt for policies without decision machinery (or before
  /// the first consultation reaches it).
  [[nodiscard]] virtual std::optional<obs::DecisionDetail>
  last_decision_detail() const {
    return std::nullopt;
  }
};

}  // namespace capman::policy
