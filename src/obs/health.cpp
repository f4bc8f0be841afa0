#include "obs/health.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/json_append.h"
#include "util/config_check.h"

namespace capman::obs {

namespace {

/// Fixed-point double as a string, for alert detail fields.
std::string format_fixed(double v, int decimals) {
  std::string out;
  detail::append_fixed(out, v, decimals);
  return out;
}

}  // namespace

const char* to_string(HealthRule rule) {
  switch (rule) {
    case HealthRule::kThermalRunaway: return "thermal_runaway";
    case HealthRule::kBudgetStarvation: return "budget_starvation";
    case HealthRule::kSwitchThrash: return "switch_thrash";
    case HealthRule::kGuardEngaged: return "guard_engaged";
    case HealthRule::kTimeToEmpty: return "time_to_empty";
  }
  return "?";
}

std::vector<std::string> HealthConfig::validate() const {
  std::vector<std::string> errors;
  if (period_s <= 0.0) {
    errors.emplace_back("period_s must be > 0");
  }
  if (thermal_slope_c_per_min <= 0.0) {
    errors.emplace_back("thermal_slope_c_per_min must be > 0");
  }
  if (thermal_window_s <= 0.0) {
    errors.emplace_back("thermal_window_s must be > 0");
  }
  if (starvation_ratio <= 0.0 || starvation_ratio >= 1.0) {
    errors.emplace_back("starvation_ratio must be in (0, 1)");
  }
  if (starvation_windows == 0) {
    errors.emplace_back("starvation_windows must be >= 1");
  }
  if (thrash_rate_per_min <= 0.0) {
    errors.emplace_back("thrash_rate_per_min must be > 0");
  }
  if (thrash_window_s <= 0.0) {
    errors.emplace_back("thrash_window_s must be > 0");
  }
  if (tte_watermark_s <= 0.0) {
    errors.emplace_back("tte_watermark_s must be > 0");
  }
  if (tte_window_s <= 0.0) {
    errors.emplace_back("tte_window_s must be > 0");
  }
  if (!enabled && !alerts_path.empty()) {
    errors.emplace_back("alerts_path requires enabled to be true");
  }
  return errors;
}

std::uint64_t HealthStats::total_alerts() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : alerts) total += n;
  return total;
}

void HealthStats::merge(const HealthStats& other) {
  evaluations += other.evaluations;
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    alerts[i] += other.alerts[i];
  }
}

void HealthStats::publish(MetricsRegistry& registry) const {
  registry.counter("health/evaluations").add(evaluations);
  registry.counter("health/alerts_total").add(total_alerts());
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const auto rule = static_cast<HealthRule>(i);
    registry.counter(std::string("health/alerts/") + to_string(rule))
        .add(alerts[i]);
  }
}

void HealthMonitor::Window::push(double now, double value, double window_s) {
  t.push_back(now);
  v.push_back(value);
  std::size_t first = 0;
  while (first < t.size() && t[first] < now - window_s) ++first;
  if (first > 0) {
    t.erase(t.begin(),
            t.begin() + static_cast<std::vector<double>::difference_type>(first));
    v.erase(v.begin(),
            v.begin() + static_cast<std::vector<double>::difference_type>(first));
  }
}

double HealthMonitor::Window::span() const {
  return t.size() < 2 ? 0.0 : t.back() - t.front();
}

double HealthMonitor::Window::slope_per_s() const {
  if (t.size() < 2) return 0.0;
  const double dt = t.back() - t.front();
  if (dt <= 0.0) return 0.0;
  return (v.back() - v.front()) / dt;
}

HealthMonitor::HealthMonitor(const HealthConfig& config) : config_(config) {
  util::throw_if_invalid("HealthConfig", config_.validate());
  tte_s_ = std::numeric_limits<double>::infinity();
}

void HealthMonitor::fire(double t, HealthRule rule, double value,
                         double threshold, std::string detail) {
  HealthAlert alert;
  alert.seq = static_cast<std::uint64_t>(alerts_.size());
  alert.t_s = t;
  alert.rule = rule;
  alert.value = value;
  alert.threshold = threshold;
  alert.detail = std::move(detail);
  stats_.alerts[static_cast<std::size_t>(rule)] += 1;
  fired_.push_back(alert);
  alerts_.push_back(std::move(alert));
}

const std::vector<HealthAlert>& HealthMonitor::evaluate(
    const StepSample& sample) {
  const double t = sample.t_s;
  fired_.clear();
  next_eval_s_ = t + config_.period_s;
  stats_.evaluations += 1;

  // --- kThermalRunaway: endpoint slope of the hotter surface/cell trace.
  const double hot_c = std::max(sample.skin_c, sample.cell_c);
  thermal_window_.push(t, hot_c, config_.thermal_window_s);
  {
    const auto index = static_cast<std::size_t>(HealthRule::kThermalRunaway);
    const double slope_c_per_min = thermal_window_.slope_per_s() * 60.0;
    const bool hot_enough = hot_c >= config_.thermal_floor_c;
    const bool window_full =
        thermal_window_.span() >= 0.5 * config_.thermal_window_s;
    const bool runaway = hot_enough && window_full &&
                         slope_c_per_min > config_.thermal_slope_c_per_min;
    if (runaway && !active_[index]) {
      fire(t, HealthRule::kThermalRunaway, slope_c_per_min,
           config_.thermal_slope_c_per_min, "hot_c=" + format_fixed(hot_c, 2));
    }
    active_[index] = runaway;
  }

  // --- kBudgetStarvation: grant covers < ratio of demand for K windows.
  {
    const auto index = static_cast<std::size_t>(HealthRule::kBudgetStarvation);
    const double demand = sample.demand_w * 1000.0;  // mW, like the grant
    const bool starved =
        sample.budget_active && demand > 0.0 &&
        sample.granted_mw < config_.starvation_ratio * demand;
    starved_windows_ = starved ? starved_windows_ + 1 : 0;
    const bool sustained = starved_windows_ >= config_.starvation_windows;
    if (sustained && !active_[index]) {
      fire(t, HealthRule::kBudgetStarvation,
           demand > 0.0 ? sample.granted_mw / demand : 0.0,
           config_.starvation_ratio,
           "granted_mw=" + format_fixed(sample.granted_mw, 1) +
               " demand_mw=" + format_fixed(demand, 1));
    }
    active_[index] = sustained;
  }

  // --- kSwitchThrash: cumulative switch count differenced over the window.
  switch_window_.push(t, static_cast<double>(sample.switch_count),
                      config_.thrash_window_s);
  {
    const auto index = static_cast<std::size_t>(HealthRule::kSwitchThrash);
    const double span = switch_window_.span();
    double rate_per_min = 0.0;
    if (span > 0.0) {
      const double switches =
          switch_window_.v.back() - switch_window_.v.front();
      rate_per_min = switches / span * 60.0;
    }
    const bool window_full = span >= 0.5 * config_.thrash_window_s;
    const bool thrashing =
        window_full && rate_per_min > config_.thrash_rate_per_min;
    if (thrashing && !active_[index]) {
      fire(t, HealthRule::kSwitchThrash, rate_per_min,
           config_.thrash_rate_per_min,
           "switches=" + format_fixed(switch_window_.v.back() -
                                          switch_window_.v.front(), 1));
    }
    active_[index] = thrashing;
  }

  // --- kGuardEngaged: level-triggered input, edge-triggered alert.
  {
    const auto index = static_cast<std::size_t>(HealthRule::kGuardEngaged);
    const bool engaged = config_.alert_on_guard && sample.guard;
    if (engaged && !active_[index]) {
      fire(t, HealthRule::kGuardEngaged, 1.0, 0.0, "fallback engaged");
    }
    active_[index] = engaged;
  }

  // --- kTimeToEmpty: SoC over its trailing discharge slope.
  soc_window_.push(t, sample.soc, config_.tte_window_s);
  {
    const auto index = static_cast<std::size_t>(HealthRule::kTimeToEmpty);
    const double slope = soc_window_.slope_per_s();  // soc per second
    const bool window_full = soc_window_.span() >= 0.5 * config_.tte_window_s;
    if (window_full && slope < 0.0) {
      tte_s_ = sample.soc / -slope;
      tte_valid_ = true;
    } else if (!tte_valid_) {
      tte_s_ = std::numeric_limits<double>::infinity();
    }
    const bool low = tte_valid_ && tte_s_ < config_.tte_watermark_s;
    if (low && !active_[index]) {
      fire(t, HealthRule::kTimeToEmpty, tte_s_, config_.tte_watermark_s,
           "soc=" + format_fixed(sample.soc, 4));
    }
    active_[index] = low;
  }

  return fired_;
}

void HealthMonitor::write_alerts(std::ostream& out) const {
  for (const auto& alert : alerts_) {
    write_json_line(out, alert);
  }
}

void HealthMonitor::write_json_line(std::ostream& out,
                                    const HealthAlert& alert) {
  std::string buf;
  buf.reserve(160);
  buf += "{\"seq\":";
  detail::append_u64(buf, alert.seq);
  buf += ",\"t_s\":";
  detail::append_fixed(buf, alert.t_s, 3);
  buf += ",\"rule\":";
  detail::append_string(buf, to_string(alert.rule));
  buf += ",\"value\":";
  detail::append_double(buf, alert.value);
  buf += ",\"threshold\":";
  detail::append_double(buf, alert.threshold);
  buf += ",\"detail\":";
  detail::append_string(buf, alert.detail);
  buf += "}\n";
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

}  // namespace capman::obs
