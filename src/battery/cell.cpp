#include "battery/cell.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace capman::battery {

namespace {
constexpr double kSecondsPerHour = 3600.0;
constexpr double kSecondsPerDay = 86400.0;
// Below this fraction of full charge the cell counts as exhausted.
constexpr double kExhaustedFraction = 0.005;
}  // namespace

Cell::Cell(Chemistry chemistry, double labeled_capacity_mah)
    : profile_(&chemistry_profile(chemistry)),
      labeled_capacity_ah_(labeled_capacity_mah / 1000.0) {
  assert(labeled_capacity_mah > 0.0);
  full_charge_c_ =
      labeled_capacity_ah_ * kSecondsPerHour * profile_->usable_capacity_factor;
  y1_ = profile_->kibam_c * full_charge_c_;
  y2_ = (1.0 - profile_->kibam_c) * full_charge_c_;
  r0_ = profile_->series_resistance_ohm_at_1ah / labeled_capacity_ah_;
  r1_ = profile_->surge_resistance_ohm_at_1ah / labeled_capacity_ah_;
}

void Cell::recharge() {
  y1_ = profile_->kibam_c * full_charge_c_;
  y2_ = (1.0 - profile_->kibam_c) * full_charge_c_;
  v_rc_ = 0.0;
  i_ref_ = 0.0;
}

double Cell::soc() const {
  return std::max(0.0, (y1_ + y2_) / full_charge_c_);
}

double Cell::available_fill() const {
  return std::clamp(y1_ / (profile_->kibam_c * full_charge_c_), 0.0, 1.0);
}

double Cell::ocv_at(double fill) const {
  // Linear plateau plus a steep exponential droop near empty; both features
  // of real Li-ion discharge curves that matter here (steady voltage while
  // charged, sharp sag that triggers cutoff near depletion).
  const double swing = profile_->voltage_swing_v;
  return profile_->nominal_voltage_v + swing * (fill - 0.5) -
         0.6 * swing * std::exp(-10.0 * fill);
}

util::Volts Cell::open_circuit_voltage() const {
  return util::Volts{ocv_at(available_fill())};
}

double Cell::solve_current(double v_eff, double load_w) const {
  const double disc = v_eff * v_eff - 4.0 * r0_ * load_w;
  if (disc < 0.0) return -1.0;
  return (v_eff - std::sqrt(disc)) / (2.0 * r0_);
}

util::Volts Cell::terminal_voltage(util::Watts load) const {
  const double v_eff = ocv_at(available_fill()) - v_rc_;
  if (load.value() <= 0.0) return util::Volts{v_eff};
  const double i = solve_current(v_eff, load.value());
  if (i < 0.0) return util::Volts{0.0};
  return util::Volts{v_eff - i * r0_};
}

bool Cell::exhausted() const {
  return (y1_ + y2_) < kExhaustedFraction * full_charge_c_ || y1_ <= 0.0;
}

bool Cell::can_supply(util::Watts load, util::Volts voltage_margin) const {
  if (exhausted()) return false;
  if (load.value() <= 0.0) return true;
  const double v_eff = ocv_at(available_fill()) - v_rc_;
  const double i = solve_current(v_eff, load.value());
  if (i < 0.0) return false;
  if (v_eff - i * r0_ < profile_->cutoff_voltage_v + voltage_margin.value()) {
    return false;
  }
  const double c_rate = i / labeled_capacity_ah_;
  return c_rate <= 0.9 * profile_->max_c_rate;
}

util::Joules Cell::energy_remaining() const {
  // Price the remaining charge at the *mean* OCV it will be released at
  // (linear plateau from the current fill down to empty), not the current
  // OCV - otherwise every coulomb drawn "devalues" the whole reservoir and
  // marginal-cost comparisons (the Oracle baseline) get distorted.
  const double fill = available_fill();
  const double mean_ocv = profile_->nominal_voltage_v +
                          profile_->voltage_swing_v * (0.5 * fill - 0.5);
  return util::Joules{std::max(0.0, (y1_ + y2_) * mean_ocv)};
}

util::Coulombs Cell::bound_charge() const { return util::Coulombs{std::max(0.0, y2_)}; }
util::Coulombs Cell::available_charge() const {
  return util::Coulombs{std::max(0.0, y1_)};
}

const Cell::StepCoefficients& Cell::coefficients(double dt_s) {
  const auto bits = std::bit_cast<std::uint64_t>(dt_s);
  if (bits != coefficients_.dt_bits) {
    coefficients_.dt_bits = bits;
    coefficients_.kibam_decay = std::exp(-profile_->kibam_k_per_s * dt_s);
    coefficients_.surge_alpha = 1.0 - std::exp(-dt_s / profile_->surge_tau_s);
    coefficients_.leak =
        (profile_->self_discharge_per_day / kSecondsPerDay) * dt_s;
  }
  return coefficients_;
}

void Cell::kibam_step(double i_amps, double dt_s) {
  const double k = profile_->kibam_k_per_s;
  const double c = profile_->kibam_c;
  const double y0 = y1_ + y2_;
  const double e = coefficients(dt_s).kibam_decay;
  const double kdt = k * dt_s;
  const double y1_next = y1_ * e + (y0 * k * c - i_amps) * (1.0 - e) / k -
                         i_amps * c * (kdt - 1.0 + e) / k;
  const double y2_next = y2_ * e + y0 * (1.0 - c) * (1.0 - e) -
                         i_amps * (1.0 - c) * (kdt - 1.0 + e) / k;
  y1_ = y1_next;
  y2_ = std::max(0.0, y2_next);
}

Cell::DrawResult Cell::draw(util::Watts load, util::Seconds dt) {
  DrawResult result{};
  const double dt_s = dt.value();
  assert(dt_s > 0.0);

  // Self-discharge applies in every step, loaded or not.
  const StepCoefficients& per_dt = coefficients(dt_s);
  const double leak = per_dt.leak;
  const double leaked_charge = (y1_ + y2_) * leak;
  y1_ *= (1.0 - leak);
  y2_ *= (1.0 - leak);
  // The wells do not move again until kibam_step, so this one OCV prices
  // the leak, sets the load's effective voltage and prices the chemical
  // energy a delivered step releases.
  const double ocv = ocv_at(available_fill());
  result.losses = util::Joules{leaked_charge * ocv};

  const double alpha = per_dt.surge_alpha;
  if (load.value() <= 0.0 || exhausted()) {
    // Rest: wells redistribute (recovery), the overpotential relaxes.
    kibam_step(0.0, dt_s);
    i_ref_ *= 1.0 - alpha;
    v_rc_ = 0.0;
    result.terminal_voltage = open_circuit_voltage();
    result.heat = result.losses / dt;
    result.brownout = load.value() > 0.0;  // loaded but exhausted
    return result;
  }

  const double v_eff = ocv - v_rc_;
  const double i = solve_current(v_eff, load.value());
  const double v_terminal = i >= 0.0 ? v_eff - i * r0_ : 0.0;
  const double c_rate = i >= 0.0 ? i / labeled_capacity_ah_ : 0.0;
  if (i < 0.0 || v_terminal < profile_->cutoff_voltage_v ||
      c_rate > profile_->max_c_rate) {
    // Brownout: demand not met. The wells rest, but the overpotential only
    // relaxes with its time constant - the load keeps hammering the sagged
    // rail, so there is no instant recovery.
    kibam_step(0.0, dt_s);
    v_rc_ *= 1.0 - alpha;
    result.brownout = true;
    result.terminal_voltage = util::Volts{v_terminal};
    result.heat = result.losses / dt;
    return result;
  }

  // Coulombic delivery efficiency: drawing I at the terminals consumes
  // I/eta from the wells; the shortfall is heat.
  const double eta = delivery_efficiency(*profile_, c_rate);
  const double well_current = i / eta;
  const double charge_needed = well_current * dt_s;
  if (charge_needed > y1_) {
    // Available well cannot cover the step: brownout (the pack may switch;
    // at rest the bound well will refill y1).
    kibam_step(0.0, dt_s);
    v_rc_ *= 1.0 - alpha;
    result.brownout = true;
    result.terminal_voltage = util::Volts{v_terminal};
    result.heat = result.losses / dt;
    return result;
  }

  kibam_step(well_current, dt_s);
  // V-edge dynamics: the reference current trails the load current, so a
  // step spikes the overpotential by R1 * dI and the dip then relaxes as
  // the reference catches up. The dissipated area is the D1 loss of Fig. 3.
  i_ref_ += alpha * (i - i_ref_);
  v_rc_ = std::min(r1_ * std::max(i - i_ref_, 0.0), 0.45 * ocv);

  result.delivered = load * dt;
  // Chemical energy released = OCV * charge drawn from wells; everything
  // beyond the delivered energy is loss (I^2 R0 + surge overpotential +
  // coulombic inefficiency).
  const double chemical = ocv * charge_needed;
  result.losses += util::Joules{std::max(0.0, chemical - result.delivered.value())};
  result.heat = result.losses / dt;
  result.terminal_voltage = util::Volts{v_terminal};
  result.current = util::Amperes{i};
  return result;
}

}  // namespace capman::battery
