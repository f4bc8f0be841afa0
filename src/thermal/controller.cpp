#include "thermal/controller.h"

#include "util/config_check.h"

namespace capman::thermal {

std::vector<std::string> CoolingControllerConfig::validate() const {
  std::vector<std::string> errors;
  if (!(threshold.value() > -273.15)) {
    errors.push_back("threshold must be above absolute zero");
  }
  if (!(hysteresis.value() >= 0.0)) {
    errors.push_back("hysteresis must be >= 0");
  }
  return errors;
}

CoolingController::CoolingController(const CoolingControllerConfig& config)
    : config_(config) {
  util::throw_if_invalid("CoolingControllerConfig", config_.validate());
}

bool CoolingController::update(PhoneThermal& thermal) {
  const util::Celsius hot_spot = thermal.cpu_temperature();
  Tec& tec = thermal.tec();
  if (!tec.is_on() && hot_spot > config_.threshold) {
    tec.turn_on();
    ++activations_;
  } else if (tec.is_on() &&
             hot_spot < config_.threshold - config_.hysteresis) {
    tec.turn_off();
  }
  return tec.is_on();
}

}  // namespace capman::thermal
