#include "traced_policy.h"

#include "stats.h"

namespace perfbench {

namespace policy = capman::policy;

double SpanLog::on_event_total_s() const { return sum(on_event_s); }

TracedPolicy::TracedPolicy(std::unique_ptr<policy::BatteryPolicy> inner,
                           SpanLog& log, GraphSink on_recalibration)
    : inner_(std::move(inner)),
      log_(log),
      on_recalibration_(std::move(on_recalibration)),
      capman_(dynamic_cast<const policy::CapmanPolicy*>(inner_.get())) {}

std::string TracedPolicy::name() const { return inner_->name(); }

capman::battery::BatterySelection TracedPolicy::on_event(
    const policy::PolicyContext& context,
    const capman::workload::Action& event) {
  const std::int64_t start = now_ns();
  const auto selection = inner_->on_event(context, event);
  log_.on_event_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  return selection;
}

void TracedPolicy::record_step(capman::util::Joules delivered,
                               capman::util::Joules losses, bool demand_met) {
  inner_->record_step(delivered, losses, demand_met);
}

capman::util::Watts TracedPolicy::maintenance(capman::util::Seconds now) {
  const std::size_t recals_before =
      capman_ ? capman_->controller().scheduler().recalibration_count() : 0;
  const std::int64_t start = now_ns();
  const auto watts = inner_->maintenance(now);
  const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
  log_.maintenance_total_s += seconds;
  ++log_.maintenance_calls;
  if (capman_ &&
      capman_->controller().scheduler().recalibration_count() !=
          recals_before) {
    log_.recalibration_s.push_back(seconds);
    if (on_recalibration_) {
      on_recalibration_(capman_->controller().scheduler().graph());
    }
  }
  return watts;
}

bool TracedPolicy::wants_single_pack() const {
  return inner_->wants_single_pack();
}

capman::core::DegradationStats TracedPolicy::degradation() const {
  return inner_->degradation();
}

capman::core::BudgetLevel TracedPolicy::preferred_budget_level() const {
  return inner_->preferred_budget_level();
}

std::optional<capman::obs::DecisionDetail>
TracedPolicy::last_decision_detail() const {
  return inner_->last_decision_detail();
}

void TracedPolicy::bind_metrics(capman::obs::MetricsRegistry* registry,
                                bool publish_timings) {
  inner_->bind_metrics(registry, publish_timings);
}

void TracedPolicy::publish_metrics(
    capman::obs::MetricsRegistry& registry) const {
  inner_->publish_metrics(registry);
}

}  // namespace perfbench
