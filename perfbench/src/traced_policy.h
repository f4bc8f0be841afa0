// TracedPolicy: a BatteryPolicy decorator that times the engine's calls
// into a policy from outside the simulator.
//
// The engine consults a policy on every trace event (on_event) and asks it
// for upkeep on every step (maintenance). Wrapping the policy built by
// ExperimentRunner::build_policy gives two child spans under the run span
// the caller times around ExperimentRunner::run, without touching the
// program. Every virtual is forwarded unchanged, so a decorated run
// returns a SimResult identical to an undecorated one.
//
// For CAPMAN, a maintenance call that ran a recalibration (the scheduler's
// recalibration count moved) is additionally logged as a recalibration
// span, and the freshly solved MDP graph is handed to an optional sink so
// the ledger can replay Algorithm 1 and value iteration on it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/mdp_graph.h"
#include "policy/capman_policy.h"
#include "policy/policy.h"

namespace perfbench {

/// Span durations collected by one or more TracedPolicy instances.
struct SpanLog {
  std::vector<double> on_event_s;       // one per on_event call
  double maintenance_total_s = 0.0;     // sum over every maintenance call
  std::uint64_t maintenance_calls = 0;
  std::vector<double> recalibration_s;  // maintenance calls that recalibrated

  [[nodiscard]] double on_event_total_s() const;
};

class TracedPolicy final : public capman::policy::BatteryPolicy {
 public:
  using GraphSink = std::function<void(const capman::core::MdpGraph&)>;

  TracedPolicy(std::unique_ptr<capman::policy::BatteryPolicy> inner,
               SpanLog& log, GraphSink on_recalibration = {});

  [[nodiscard]] std::string name() const override;
  capman::battery::BatterySelection on_event(
      const capman::policy::PolicyContext& context,
      const capman::workload::Action& event) override;
  void record_step(capman::util::Joules delivered,
                   capman::util::Joules losses, bool demand_met) override;
  capman::util::Watts maintenance(capman::util::Seconds now) override;
  [[nodiscard]] bool wants_single_pack() const override;
  [[nodiscard]] capman::core::DegradationStats degradation() const override;
  [[nodiscard]] capman::core::BudgetLevel preferred_budget_level()
      const override;
  [[nodiscard]] std::optional<capman::obs::DecisionDetail>
  last_decision_detail() const override;
  void bind_metrics(capman::obs::MetricsRegistry* registry,
                    bool publish_timings) override;
  void publish_metrics(capman::obs::MetricsRegistry& registry) const override;

 private:
  std::unique_ptr<capman::policy::BatteryPolicy> inner_;
  SpanLog& log_;
  GraphSink on_recalibration_;
  // Non-null when the inner policy is CAPMAN (recalibration detection).
  const capman::policy::CapmanPolicy* capman_ = nullptr;
};

}  // namespace perfbench
