#include "policy/oracle.h"

#include <algorithm>
#include <cmath>

#include "util/config_check.h"

namespace capman::policy {

std::vector<std::string> OracleConfig::validate() const {
  std::vector<std::string> errors;
  if (!(little_reserve_soc >= 0.0 && little_reserve_soc < 1.0)) {
    errors.push_back("little_reserve_soc must be in [0, 1)");
  }
  if (!(scarcity_weight >= 0.0)) {
    errors.push_back("scarcity_weight must be >= 0");
  }
  if (!(lookahead_cap_s > 0.0)) {
    errors.push_back("lookahead_cap_s must be > 0");
  }
  return errors;
}

OraclePolicy::OraclePolicy(const OracleConfig& config) : config_(config) {
  util::throw_if_invalid("OracleConfig", config_.validate());
}

double OraclePolicy::interval_cost(battery::Cell cell, double avg_w,
                                   double duration_s) const {
  const double charge_before =
      cell.available_charge().value() + cell.bound_charge().value();
  if (charge_before <= 0.0) return 1e18;
  const double horizon = std::min(duration_s, config_.lookahead_cap_s);
  // Serve the interval's average draw in 100 ms steps, which keep the
  // cell's surge transient visible.
  const util::Seconds dt{0.1};
  double t = 0.0;
  bool browned_out = false;
  while (t < horizon) {
    const auto r = cell.draw(util::Watts{avg_w}, dt);
    if (r.brownout) browned_out = true;
    t += dt.value();
  }
  if (browned_out) return 1e18;  // never pick a cell that cannot serve
  // Marginal cost = chemical charge spent, priced at the nominal voltage
  // (isolates resistive/coulombic overheads from open-circuit bookkeeping).
  const double charge_after =
      cell.available_charge().value() + cell.bound_charge().value();
  const double consumed =
      (charge_before - charge_after) * cell.profile().nominal_voltage_v;
  // Scarcity weighting: spending from a nearly-empty cell costs more.
  const double scarcity =
      1.0 + config_.scarcity_weight * (1.0 - std::clamp(cell.soc(), 0.0, 1.0));
  return consumed * scarcity;
}

battery::BatterySelection OraclePolicy::on_event(
    const PolicyContext& context, const workload::Action& /*event*/) {
  if (context.pack == nullptr) return battery::BatterySelection::kBig;
  const auto& pack = *context.pack;

  if (pack.little_cell().exhausted()) return battery::BatterySelection::kBig;
  if (pack.big_cell().exhausted()) return battery::BatterySelection::kLittle;

  const double avg = context.interval_avg_w;
  const double dur = std::max(context.interval_duration_s, 0.2);

  double cost_big = interval_cost(pack.big_cell(), avg, dur);
  double cost_little = interval_cost(pack.little_cell(), avg, dur);

  // Reserve LITTLE headroom for future surges unless big cannot serve.
  if (pack.little_cell().soc() < config_.little_reserve_soc &&
      cost_big < 1e17) {
    return battery::BatterySelection::kBig;
  }
  return cost_big <= cost_little ? battery::BatterySelection::kBig
                                 : battery::BatterySelection::kLittle;
}

}  // namespace capman::policy
