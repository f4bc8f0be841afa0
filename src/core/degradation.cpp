#include "core/degradation.h"

#include <algorithm>

#include "util/config_check.h"

namespace capman::core {

std::vector<std::string> DegradationConfig::validate() const {
  std::vector<std::string> errors;
  if (!(detect_after.value() > 0.0)) {
    errors.push_back("detect_after must be > 0");
  }
  if (!(retry_initial.value() > 0.0)) {
    errors.push_back("retry_initial must be > 0");
  }
  if (!(retry_backoff >= 1.0)) {
    errors.push_back("retry_backoff must be >= 1");
  }
  if (!(retry_max >= retry_initial)) {
    errors.push_back("retry_max must be >= retry_initial");
  }
  return errors;
}

void DegradationStats::publish(obs::MetricsRegistry& registry) const {
  registry.counter("guard/failures_detected").add(failures_detected);
  registry.counter("guard/fallback_episodes").add(fallback_episodes);
  registry.counter("guard/retries").add(retries);
  registry.gauge("guard/in_fallback").set(in_fallback ? 1.0 : 0.0);
}

DegradationGuard::DegradationGuard(const DegradationConfig& config)
    : config_(config) {
  if (!config_.enabled) return;  // disabled guard never reads its knobs
  util::throw_if_invalid("DegradationConfig", config_.validate());
}

battery::BatterySelection DegradationGuard::filter(
    util::Seconds now, battery::BatterySelection observed,
    battery::BatterySelection desired, bool emergency, bool feasible) {
  if (!config_.enabled) return desired;
  const double t = now.value();

  if (!feasible) {
    // The management facility itself would refuse this switch (the target
    // cell cannot carry the present load). That is a protection feature,
    // not an actuator fault: park the watchdog and keep legacy behavior —
    // hold the safe cell while in fallback, otherwise let the request go
    // out and be refused as it always was.
    expected_.reset();
    return fallback_ ? observed : desired;
  }

  if (fallback_) {
    if (observed != desired) {
      // Still stuck on the wrong cell. Ride the active battery's safe
      // policy between retries; re-issue the switch on the backoff
      // schedule (or immediately when the rail monitor is screaming).
      if (emergency || t >= next_retry_s_) {
        ++stats_.retries;
        retry_interval_s_ = std::min(retry_interval_s_ * config_.retry_backoff,
                                     config_.retry_max.value());
        next_retry_s_ = t + retry_interval_s_;
        return desired;
      }
      return observed;
    }
    // The comparator latched what the scheduler wants (a retry landed, the
    // fault cleared, or the scheduler stopped wanting the stuck
    // transition): resume normal operation.
    fallback_ = false;
    stats_.in_fallback = false;
    expected_.reset();
  }

  if (desired == observed) {
    // Nothing in flight; clear any switch expectation.
    expected_.reset();
    return desired;
  }
  if (!expected_ || *expected_ != desired) {
    // A new switch is being initiated; start the watchdog.
    expected_ = desired;
    expected_since_s_ = t;
    return desired;
  }
  if (t - expected_since_s_ > config_.detect_after.value()) {
    // The facility had orders of magnitude more time than its latency and
    // the comparator never flipped: the switch failed (stuck comparator,
    // dropped request, dead target rail). Degrade gracefully.
    ++stats_.failures_detected;
    ++stats_.fallback_episodes;
    stats_.in_fallback = true;
    fallback_ = true;
    retry_interval_s_ = config_.retry_initial.value();
    next_retry_s_ = t + retry_interval_s_;
    return observed;
  }
  return desired;
}

}  // namespace capman::core
