#include "battery/pack.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/config_check.h"

namespace capman::battery {

// ---- SingleBatteryPack --------------------------------------------------

SingleBatteryPack::SingleBatteryPack(Chemistry chemistry,
                                     double labeled_capacity_mah)
    : cell_(chemistry, labeled_capacity_mah) {}

void SingleBatteryPack::request(BatterySelection /*target*/,
                                util::Seconds /*now*/) {}

util::Seconds SingleBatteryPack::activation_time(BatterySelection sel) const {
  return sel == BatterySelection::kBig ? util::Seconds{active_time_s_}
                                       : util::Seconds{0.0};
}

PackStepResult SingleBatteryPack::step(util::Watts load, util::Seconds dt,
                                       util::Seconds /*now*/) {
  PackStepResult result{};
  const auto draw = cell_.draw(load, dt);
  result.delivered = draw.delivered;
  result.losses = draw.losses;
  result.heat = draw.heat;
  result.demand_met = !draw.brownout;
  result.exhausted = cell_.exhausted();
  result.rail_voltage = draw.terminal_voltage;
  if (load.value() > 0.0) active_time_s_ += dt.value();
  return result;
}

// ---- DualBatteryPack ----------------------------------------------------

std::vector<std::string> DualPackConfig::validate() const {
  std::vector<std::string> errors;
  if (!(big_capacity_mah > 0.0)) {
    errors.push_back("big_capacity_mah must be > 0");
  }
  if (!(little_capacity_mah > 0.0)) {
    errors.push_back("little_capacity_mah must be > 0");
  }
  if (!(supercap_capacitance.value() > 0.0)) {
    errors.push_back("supercap_capacitance must be > 0");
  }
  if (!(supercap_voltage.value() > 0.0)) {
    errors.push_back("supercap_voltage must be > 0");
  }
  if (!(supercap_esr.value() >= 0.0)) {
    errors.push_back("supercap_esr must be >= 0");
  }
  if (!(baseline_tau.value() > 0.0)) {
    errors.push_back("baseline_tau must be > 0");
  }
  util::append_errors(errors, "switch_config: ", switch_config.validate());
  return errors;
}

DualBatteryPack::DualBatteryPack(const DualPackConfig& config)
    : DualBatteryPack(config, nullptr) {}

DualBatteryPack::DualBatteryPack(const DualPackConfig& config,
                                 std::unique_ptr<SwitchFacility> switcher)
    : config_(config),
      big_(config.big_chemistry, config.big_capacity_mah),
      little_(config.little_chemistry, config.little_capacity_mah),
      switch_(switcher != nullptr
                  ? std::move(switcher)
                  : std::make_unique<SwitchFacility>(config.switch_config,
                                                     BatterySelection::kBig)),
      supercap_(config.supercap_capacitance, config.supercap_voltage,
                config.supercap_esr) {}

void DualBatteryPack::request(BatterySelection target, util::Seconds now) {
  // Comparator-side validation: the switch will not latch onto a rail that
  // is already collapsed under the present load (the LM339 compares rail
  // voltages, so a dead or sagging cell never wins the comparison). There
  // is deliberately NO autonomous mid-interval fallback: if the selected
  // cell sags later, the phone stutters until the scheduler reacts - that
  // is exactly the failure mode bad scheduling produces on the prototype.
  Cell& cell = cell_for(target);
  if (!cell.can_supply(util::Watts{last_load_w_})) return;
  switch_->request(target, now);
}

bool DualBatteryPack::exhausted() const {
  return big_.exhausted() && little_.exhausted();
}

double DualBatteryPack::soc() const {
  const double big_cap = big_.capacity_ah();
  const double little_cap = little_.capacity_ah();
  return (big_.soc() * big_cap + little_.soc() * little_cap) /
         (big_cap + little_cap);
}

util::Seconds DualBatteryPack::activation_time(BatterySelection sel) const {
  return sel == BatterySelection::kBig ? util::Seconds{active_time_big_s_}
                                       : util::Seconds{active_time_little_s_};
}

util::Joules DualBatteryPack::energy_remaining() const {
  return big_.energy_remaining() + little_.energy_remaining();
}

void DualBatteryPack::recharge() {
  big_.recharge();
  little_.recharge();
  baseline_w_ = 0.0;
}

Cell::DrawResult DualBatteryPack::draw_from(BatterySelection sel,
                                            util::Watts load,
                                            util::Seconds dt,
                                            util::Seconds now) {
  if (sel == BatterySelection::kLittle) {
    // The supercapacitor shaves surges above the smoothed baseline so the
    // LITTLE rail stays stable (paper Fig. 10). A drooping electrical path
    // (switch transient under fault injection) raises the effective
    // baseline toward the load, so only `ride` of the surge is shaved.
    double base_w = baseline_w_;
    const double ride = switch_->surge_ride_through(now);
    if (ride < 1.0) {
      base_w += (1.0 - ride) * std::max(0.0, load.value() - base_w);
    }
    const util::Watts cell_load =
        supercap_.filter(load, util::Watts{base_w}, dt);
    auto draw = little_.draw(cell_load, dt);
    if (!draw.brownout) {
      // The load saw its full power even though the cell supplied less.
      draw.delivered = load * dt;
    }
    return draw;
  }
  return big_.draw(load, dt);
}

PackStepResult DualBatteryPack::step(util::Watts load, util::Seconds dt,
                                     util::Seconds now) {
  PackStepResult result{};
  last_load_w_ = load.value();
  // A completing switch does not dissipate instantly; its loss becomes a
  // debt drained from the newly active cell as a parasitic load over the
  // following steps (energy conservation: "frequently switching batteries
  // may cause additional energy loss").
  switch_debt_j_ += switch_->advance(now).value();

  // Track the smoothed load baseline for the supercap filter.
  const auto dt_bits = std::bit_cast<std::uint64_t>(dt.value());
  if (dt_bits != baseline_dt_bits_) {
    baseline_dt_bits_ = dt_bits;
    baseline_alpha_ =
        1.0 - std::exp(-dt.value() / config_.baseline_tau.value());
  }
  baseline_w_ += baseline_alpha_ * (load.value() - baseline_w_);

  const double parasitic_w =
      std::min(kSwitchDrainWatts, switch_debt_j_ / dt.value());
  const util::Watts effective = load + util::Watts{parasitic_w};

  const BatterySelection sel = switch_->active();
  auto draw = draw_from(sel, effective, dt, now);

  const double parasitic_j = draw.brownout ? 0.0 : parasitic_w * dt.value();
  if (!draw.brownout) switch_debt_j_ -= parasitic_j;
  result.delivered = util::Joules{draw.delivered.value() - parasitic_j};
  result.losses = draw.losses + util::Joules{parasitic_j};
  result.heat = result.losses / dt;
  result.demand_met = !draw.brownout;
  result.exhausted = exhausted();
  result.supplied_by = sel;
  result.rail_voltage = draw.terminal_voltage;
  if (load.value() > 0.0 && !draw.brownout) {
    if (sel == BatterySelection::kBig) {
      active_time_big_s_ += dt.value();
    } else {
      active_time_little_s_ += dt.value();
    }
  }
  return result;
}

}  // namespace capman::battery
