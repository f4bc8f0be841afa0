// The standard smartphone thermal stack used across all experiments
// (paper Fig. 6 top: CPU is the hot spot; TEC sits on the CPU and rejects
// into the back cover; the surface is what the 45 C skin-temperature limit
// guards).
//
// One fixed lumped-parameter (RC) network: cpu, board, battery and surface
// carry a heat capacity C_i [J/K]; ambient is isothermal; six conductances
// [W/K] join them (cpu-board, cpu-surface, board-surface, battery-board,
// battery-surface, surface-ambient). Integration is explicit Euler. Each
// step() splits dt into the fewest equal substeps no longer than
// 0.05 * min_i C_i / sum_j G_ij, i.e. 0.05x the explicit-Euler stability
// bound: small steps for accuracy, not just stability (about 2% error per
// time constant). The network never changes, so that bound is computed
// once, at construction. Heat injected in a step is held over its substeps.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "thermal/tec.h"
#include "util/units.h"

namespace capman::thermal {

struct PhoneThermalConfig {
  util::Celsius ambient{26.0};
  // Heat capacities [J/K]
  double cpu_capacity = 4.0;
  double board_capacity = 20.0;
  double battery_capacity = 40.0;
  double surface_capacity = 15.0;
  // Conductances [W/K]; 0 disconnects a pair. The CPU is deliberately a
  // high-resistance hot spot (die-to-sink ~11 K/W) while the surface sheds
  // to ambient easily; spot cooling with a COP~0.5 TEC only pays off in
  // exactly this regime, which is the situation paper Fig. 6 (top) depicts.
  double cpu_board = 0.07;
  double cpu_surface = 0.02;
  double board_surface = 0.35;
  double battery_board = 0.20;
  double battery_surface = 0.15;
  double surface_ambient = 0.30;

  /// Human-readable configuration errors; empty means valid. Aggregated by
  /// sim::SimConfig::validate() under "thermal_config.".
  [[nodiscard]] std::vector<std::string> validate() const;
};

struct PhoneThermalTestAccess;

/// The phone's thermal network plus the TEC mounted across CPU (cold side)
/// and surface (hot side).
class PhoneThermal {
 public:
  /// The network's nodes in storage order; ambient holds a temperature
  /// but no heat capacity.
  enum Node : std::size_t { kCpu, kBoard, kBattery, kSurface, kAmbient };

  explicit PhoneThermal(const PhoneThermalConfig& config = {},
                        const TecParams& tec_params = {});

  /// One simulation step: inject CPU power and battery losses, run the TEC
  /// at its operating current, integrate. Returns the TEC electric power
  /// drawn this step (a load the battery must additionally supply).
  util::Watts step(util::Watts cpu_power, util::Watts battery_heat,
                   util::Watts other_power, util::Seconds dt);

  [[nodiscard]] util::Celsius cpu_temperature() const {
    return util::Celsius{temperature_c_[kCpu]};
  }
  [[nodiscard]] util::Celsius surface_temperature() const {
    return util::Celsius{temperature_c_[kSurface]};
  }
  [[nodiscard]] util::Celsius battery_temperature() const {
    return util::Celsius{temperature_c_[kBattery]};
  }

  [[nodiscard]] Tec& tec() { return tec_; }
  [[nodiscard]] const Tec& tec() const { return tec_; }

  /// Sets cpu, board, battery and surface to `temperature` and turns the
  /// TEC off; ambient keeps its configured value.
  void reset(util::Celsius temperature);

 private:
  friend struct PhoneThermalTestAccess;  // tests/thermal/phone_thermal_test.cpp

  // Indexed by Node; ambient has no heat capacity.
  std::array<double, 5> temperature_c_{};
  std::array<double, 4> capacity_j_per_k_{};
  // Indexed like the edge table in phone_thermal.cpp.
  std::array<double, 6> conductance_w_per_k_{};
  double max_substep_s_ = 0.0;
  // Substep count and length of the last dt (compared bitwise, like
  // battery::Cell's coefficients); the initial key, +0.0 s, holds the
  // dt = 0 values. The engine steps at one fixed dt.
  std::uint64_t substep_dt_bits_ = 0;
  int substeps_ = 1;
  double substep_h_ = 0.0;
  Tec tec_;
};

}  // namespace capman::thermal
