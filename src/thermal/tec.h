// Thermoelectric cooler (Peltier) model — paper Eq. (1) and Table II row 4.
//
//   Q_c = S_T * T_c * I - 1/2 * I^2 * R - K * (T_h - T_c)     (heat pumped)
//   P   = S_T * I * (T_h - T_c) + I^2 * R                      (electric power)
//
// The heat-pumping rate is non-monotone in current: it peaks at the rated
// operating current I* = S_T * T_c / R (paper Fig. 6 shows the resulting
// unimodal dT-vs-I curve with the maximum near 1.0 A), so CAPMAN always
// drives the TEC at its rated current — an on/off actuator.
#pragma once

#include "util/units.h"

namespace capman::thermal {

struct TecParams {
  double seebeck_v_per_k = 0.005;     // S_T
  util::Ohms resistance{1.5};         // R
  double conductance_w_per_k = 0.012;  // K (parasitic hot->cold conduction)
  util::Amperes rated_current{1.0};    // I* for the default parameters
};

class Tec {
 public:
  explicit Tec(const TecParams& params = {});

  /// Heat pumped from the cold side at current I (can be negative when
  /// conduction and Joule heating overwhelm the Peltier effect).
  [[nodiscard]] util::Watts heat_pumped(util::Celsius cold,
                                        util::Celsius hot,
                                        util::Amperes current) const;

  /// Electric power drawn at current I with the given side temperatures.
  [[nodiscard]] util::Watts electric_power(util::Celsius cold,
                                           util::Celsius hot,
                                           util::Amperes current) const;

  /// Heat rejected on the hot side = pumped heat + electric power.
  [[nodiscard]] util::Watts heat_rejected(util::Celsius cold,
                                          util::Celsius hot,
                                          util::Amperes current) const;

  /// Steady-state temperature difference the TEC can hold at current I with
  /// zero heat load (Q_c = 0): dT = (S_T*T_c*I - I^2 R / 2) / K. This is the
  /// curve of paper Fig. 6 (unimodal, maximal at the rated current).
  [[nodiscard]] util::KelvinDiff max_delta_t(util::Celsius cold,
                                             util::Amperes current) const;

  /// The analytically optimal operating current S_T * T_c / R.
  [[nodiscard]] util::Amperes optimal_current(util::Celsius cold) const;

  [[nodiscard]] const TecParams& params() const { return params_; }

  // --- On/off actuation (CAPMAN drives the TEC at rated current) ---
  void turn_on() { on_ = true; }
  void turn_off() { on_ = false; }
  [[nodiscard]] bool is_on() const { return on_; }
  /// Operating current right now (rated when on, zero when off).
  [[nodiscard]] util::Amperes operating_current() const {
    return on_ ? params_.rated_current : util::Amperes{0.0};
  }

 private:
  TecParams params_;
  bool on_ = false;
};

}  // namespace capman::thermal
