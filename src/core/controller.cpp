#include "core/controller.h"

#include <algorithm>

#include "util/config_check.h"

namespace capman::core {

namespace {
// Recalibration backoff: early discharge learns quickly, late discharge
// barely changes the model, so intervals stretch (the paper runs the solve
// "when the device is not busy at the background").
constexpr double kBackoffFactor = 1.6;
constexpr double kMaxIntervalS = 300.0;
}  // namespace

CapmanController::CapmanController(const CapmanConfig& config,
                                   std::uint64_t seed)
    : config_(config),
      scheduler_(config, seed),
      next_recalibration_s_(config.recalibration_interval.value()),
      recal_interval_s_(config.recalibration_interval.value()) {
  util::throw_if_invalid("CapmanConfig", config_.validate());
}

battery::BatterySelection CapmanController::on_event(
    const workload::Action& event, const device::DeviceStateVector& device,
    battery::BatterySelection current, util::Seconds now, bool emergency,
    BudgetLevel granted) {
  // Close the previous interval and learn from it.
  const CapmanState arrived{device, current};
  if (auto obs = profiler_.close_interval(arrived)) {
    scheduler_.observe(*obs);
  }

  scheduler_.advance_time(now.value());
  DecideRequest req;
  req.event = event;
  req.device = device;
  req.current = current;
  req.budget = granted;
  req.allow_exploration = !emergency;
  const DecideResult decision = scheduler_.decide(req);
  battery::BatterySelection choice = decision.battery;
  BudgetLevel budget = decision.budget;
  if (emergency) {
    if (choice == current) {
      // The rail is sagging under the current cell; staying put means dying.
      choice = current == battery::BatterySelection::kBig
                   ? battery::BatterySelection::kLittle
                   : battery::BatterySelection::kBig;
    }
    // Comparator-relax semantics: a tripped comparator drops the budget to
    // the lean level until a calm consultation raises it again.
    if (config_.learn_budget) budget = BudgetLevel::kEco;
  }
  // Dwell control: honor the minimum time between voluntary switches
  // (except in emergencies).
  if (!emergency && choice != current &&
      now.value() - last_switch_s_ < config_.min_switch_dwell.value()) {
    choice = current;
  }
  if (choice != current) last_switch_s_ = now.value();
  last_budget_level_ = budget;

  // Without budget learning the MDP only allocates the level-kFull plane,
  // so the recorded action must stay inside it.
  profiler_.begin_interval(
      CapmanState{device, choice},
      DecisionAction{event, choice,
                     config_.learn_budget ? budget : BudgetLevel::kFull});
  return choice;
}

void CapmanController::record_step(util::Joules delivered, util::Joules losses,
                                   bool demand_met) {
  profiler_.record(delivered, losses, demand_met);
}

util::Watts CapmanController::maintenance(util::Seconds now) {
  if (now.value() >= next_recalibration_s_) {
    solve_seconds_ += scheduler_.recalibrate();
    recal_interval_s_ = std::min(recal_interval_s_ * kBackoffFactor,
                                 kMaxIntervalS);
    next_recalibration_s_ = now.value() + recal_interval_s_;
  }
  return config_.maintenance_power;
}

}  // namespace capman::core
