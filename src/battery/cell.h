// Single-cell battery simulator.
//
// Combines three classic models so that every phenomenon the paper's
// motivation section measures on physical cells emerges from the same code
// path the scheduler exercises:
//
//  * Kinetic Battery Model (KiBaM, two-well): rate-capacity effect (heavy
//    sustained draw strands bound charge) and charge recovery at rest.
//  * Equivalent circuit: OCV(state-of-charge) + series resistance R0 +
//    first-order RC surge overpotential -> the V-edge voltage dip/recovery
//    of paper Fig. 3, with I^2*R and overpotential losses turning into heat.
//  * Chemistry-calibrated coulombic delivery efficiency vs C-rate
//    (battery/chemistry.h) for the steady-state differences of Fig. 2.
//
// All losses are reported as heat so the thermal network (src/thermal) sees
// exactly the energy the battery wastes.
#pragma once

#include <cstdint>

#include "battery/chemistry.h"
#include "util/units.h"

namespace capman::battery {

struct CellTestAccess;

class Cell {
 public:
  /// A cell of `chemistry` with the given labeled capacity, fully charged.
  Cell(Chemistry chemistry, double labeled_capacity_mah);

  struct DrawResult {
    util::Joules delivered;       // energy delivered to the load
    util::Joules losses;          // energy wasted (heat)
    util::Watts heat;             // losses / dt
    util::Volts terminal_voltage; // under load at end of step
    util::Amperes current;        // load current during the step
    bool brownout = false;        // demand could not be met this step
  };

  /// Supply `load` for `dt`. If the cell cannot sustain the load (voltage
  /// sag below cutoff, C-rate limit, or empty available well) the result is
  /// a brownout with zero delivery; the caller (pack) may fall back to the
  /// sibling cell. A zero/negative load is a rest step (recovery +
  /// self-discharge only).
  DrawResult draw(util::Watts load, util::Seconds dt);

  /// Convenience: rest for dt.
  void rest(util::Seconds dt) { (void)draw(util::Watts{0.0}, dt); }

  // --- Telemetry ---
  /// Total state of charge (available + bound wells) in [0, 1].
  [[nodiscard]] double soc() const;
  /// Fill level of the available well in [0, 1]; this is what the terminal
  /// voltage tracks, so it dips under load and recovers at rest.
  [[nodiscard]] double available_fill() const;
  [[nodiscard]] util::Volts open_circuit_voltage() const;
  /// Quasi-static terminal voltage the cell would show under `load` now.
  [[nodiscard]] util::Volts terminal_voltage(util::Watts load) const;
  /// True once the cell can no longer power anything (charge exhausted).
  [[nodiscard]] bool exhausted() const;
  /// Whether the cell could sustain `load` right now without brownout,
  /// with a safety margin (a rail within `voltage_margin` of cutoff or a
  /// current within 10% of the C-rate limit is not considered serviceable;
  /// the comparator needs headroom to latch).
  [[nodiscard]] bool can_supply(util::Watts load,
                                util::Volts voltage_margin = util::Volts{
                                    0.08}) const;
  /// Remaining chemical energy (both wells, at current OCV).
  [[nodiscard]] util::Joules energy_remaining() const;
  /// Charge stranded in the bound well when delivery stops (rate-capacity
  /// penalty observable at end of discharge).
  [[nodiscard]] util::Coulombs bound_charge() const;
  [[nodiscard]] util::Coulombs available_charge() const;

  [[nodiscard]] const ChemistryProfile& profile() const { return *profile_; }
  [[nodiscard]] double capacity_ah() const { return labeled_capacity_ah_; }
  [[nodiscard]] util::Volts surge_overpotential() const {
    return util::Volts{v_rc_};
  }
  [[nodiscard]] util::Ohms series_resistance() const {
    return util::Ohms{r0_};
  }

  /// Reset to full charge (fresh discharge cycle).
  void recharge();

 private:
  friend struct CellTestAccess;  // tests/battery/cell_test.cpp

  /// The per-dt coefficients of one step: the exp() terms and the
  /// self-discharge fraction. The engine steps at a few fixed dts, so they
  /// are recomputed only when dt changes (compared bitwise); the same
  /// argument gives the same bits, so the cache cannot move a result. The
  /// initial key, +0.0 s, holds the exact dt = 0 values.
  struct StepCoefficients {
    std::uint64_t dt_bits = 0;
    double kibam_decay = 1.0;  // exp(-k * dt)
    double surge_alpha = 0.0;  // 1 - exp(-dt / surge_tau): I_ref's EWMA
    double leak = 0.0;         // self-discharge fraction lost per step
  };
  const StepCoefficients& coefficients(double dt_s);

  /// Closed-form KiBaM update for constant well current `i_amps` over dt.
  void kibam_step(double i_amps, double dt_s);
  [[nodiscard]] double ocv_at(double fill) const;
  /// Load current solving P = (V_eff - I*R0) * I; negative if infeasible.
  [[nodiscard]] double solve_current(double v_eff, double load_w) const;

  const ChemistryProfile* profile_;
  double labeled_capacity_ah_;
  double full_charge_c_;  // coulombs when full (label * usable factor)
  double y1_;             // available well, coulombs
  double y2_;             // bound well, coulombs
  // Surge overpotential (V-edge): v_rc = R1 * max(I - I_ref, 0) where
  // I_ref is a slow EWMA of the load current (time constant = the
  // chemistry's surge tau). A load step spikes the overpotential by
  // R1 * dI; under steady load I_ref catches up and the dip relaxes ("the
  // voltage first quickly drops, then rises up at a relative lower
  // level"); at rest it vanishes. Big chemistries (large R1, slow tau) pay
  // a large D1 area on every power step; LITTLE ones barely notice.
  double v_rc_ = 0.0;     // surge overpotential, volts
  double i_ref_ = 0.0;    // slow reference current, amps
  double r0_;             // series resistance, ohms
  double r1_;             // surge resistance, ohms
  StepCoefficients coefficients_;
};

}  // namespace capman::battery
