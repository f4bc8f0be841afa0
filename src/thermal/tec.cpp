#include "thermal/tec.h"

namespace capman::thermal {

Tec::Tec(const TecParams& params) : params_(params) {}

util::Watts Tec::heat_pumped(util::Celsius cold, util::Celsius hot,
                             util::Amperes current) const {
  const double i = current.value();
  const double tc = util::kelvin(cold);
  const double dt = hot.value() - cold.value();
  const double qc = params_.seebeck_v_per_k * tc * i -
                    0.5 * i * i * params_.resistance.value() -
                    params_.conductance_w_per_k * dt;
  return util::Watts{qc};
}

util::Watts Tec::electric_power(util::Celsius cold, util::Celsius hot,
                                util::Amperes current) const {
  const double i = current.value();
  const double dt = hot.value() - cold.value();
  return util::Watts{params_.seebeck_v_per_k * i * dt +
                     i * i * params_.resistance.value()};
}

util::Watts Tec::heat_rejected(util::Celsius cold, util::Celsius hot,
                               util::Amperes current) const {
  return heat_pumped(cold, hot, current) +
         electric_power(cold, hot, current);
}

util::KelvinDiff Tec::max_delta_t(util::Celsius cold,
                                  util::Amperes current) const {
  const double i = current.value();
  const double tc = util::kelvin(cold);
  const double numerator = params_.seebeck_v_per_k * tc * i -
                           0.5 * i * i * params_.resistance.value();
  return util::KelvinDiff{numerator / params_.conductance_w_per_k};
}

util::Amperes Tec::optimal_current(util::Celsius cold) const {
  return util::Amperes{params_.seebeck_v_per_k * util::kelvin(cold) /
                       params_.resistance.value()};
}

}  // namespace capman::thermal
