// TracedPolicy must forward every BatteryPolicy and obs::Instrumented
// virtual to the policy it wraps, unchanged, and log its spans.
#include "traced_policy.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sim/experiment.h"
#include "workload/generators.h"

namespace {

namespace policy = capman::policy;
namespace util = capman::util;
using capman::battery::BatterySelection;

/// Records every call and answers each query with a distinctive value.
class RecordingPolicy final : public policy::BatteryPolicy {
 public:
  struct Calls {
    int on_event = 0;
    int record_step = 0;
    int maintenance = 0;
    int bind = 0;
    int publish = 0;
    double delivered_j = 0.0;
    double losses_j = 0.0;
    bool demand_met = true;
    double now_s = 0.0;
    double context_time_s = 0.0;
    capman::workload::Action event{};
    capman::obs::MetricsRegistry* bound = nullptr;
    bool timings = false;
    capman::obs::MetricsRegistry* published = nullptr;
  };

  explicit RecordingPolicy(Calls& calls) : calls_(calls) {}

  [[nodiscard]] std::string name() const override { return "Recording"; }
  BatterySelection on_event(const policy::PolicyContext& context,
                            const capman::workload::Action& event) override {
    ++calls_.on_event;
    calls_.context_time_s = context.now_s;
    calls_.event = event;
    return BatterySelection::kLittle;
  }
  void record_step(util::Joules delivered, util::Joules losses,
                   bool demand_met) override {
    ++calls_.record_step;
    calls_.delivered_j = delivered.value();
    calls_.losses_j = losses.value();
    calls_.demand_met = demand_met;
  }
  util::Watts maintenance(util::Seconds now) override {
    ++calls_.maintenance;
    calls_.now_s = now.value();
    return util::Watts{0.125};
  }
  [[nodiscard]] bool wants_single_pack() const override { return true; }
  [[nodiscard]] capman::core::DegradationStats degradation() const override {
    capman::core::DegradationStats stats;
    stats.failures_detected = 3;
    stats.fallback_episodes = 2;
    stats.retries = 7;
    stats.in_fallback = true;
    return stats;
  }
  [[nodiscard]] capman::core::BudgetLevel preferred_budget_level()
      const override {
    return capman::core::BudgetLevel::kEco;
  }
  [[nodiscard]] std::optional<capman::obs::DecisionDetail>
  last_decision_detail() const override {
    capman::obs::DecisionDetail detail;
    detail.source = capman::obs::DecisionDetail::Source::kTransferred;
    detail.matched_state = 11;
    detail.q_big = 0.25;
    detail.q_little = 0.75;
    return detail;
  }
  void bind_metrics(capman::obs::MetricsRegistry* registry,
                    bool publish_timings) override {
    ++calls_.bind;
    calls_.bound = registry;
    calls_.timings = publish_timings;
  }
  void publish_metrics(capman::obs::MetricsRegistry& registry) const override {
    ++calls_.publish;
    calls_.published = &registry;
  }

 private:
  Calls& calls_;
};

TEST(TracedPolicy, ForwardsEveryVirtual) {
  RecordingPolicy::Calls calls;
  perfbench::SpanLog log;
  perfbench::TracedPolicy traced{std::make_unique<RecordingPolicy>(calls),
                                 log};
  policy::BatteryPolicy& base = traced;

  EXPECT_EQ(base.name(), "Recording");

  policy::PolicyContext context;
  context.now_s = 12.5;
  const capman::workload::Action event{capman::workload::Syscall::kTimerTick,
                                       3};
  EXPECT_EQ(base.on_event(context, event), BatterySelection::kLittle);
  EXPECT_EQ(calls.on_event, 1);
  EXPECT_DOUBLE_EQ(calls.context_time_s, 12.5);
  EXPECT_EQ(calls.event, event);

  base.record_step(util::Joules{1.5}, util::Joules{0.25}, false);
  EXPECT_EQ(calls.record_step, 1);
  EXPECT_DOUBLE_EQ(calls.delivered_j, 1.5);
  EXPECT_DOUBLE_EQ(calls.losses_j, 0.25);
  EXPECT_FALSE(calls.demand_met);

  EXPECT_DOUBLE_EQ(base.maintenance(util::Seconds{4.0}).value(), 0.125);
  EXPECT_EQ(calls.maintenance, 1);
  EXPECT_DOUBLE_EQ(calls.now_s, 4.0);

  EXPECT_TRUE(base.wants_single_pack());
  const auto stats = base.degradation();
  EXPECT_EQ(stats.failures_detected, 3u);
  EXPECT_EQ(stats.fallback_episodes, 2u);
  EXPECT_EQ(stats.retries, 7u);
  EXPECT_TRUE(stats.in_fallback);
  EXPECT_EQ(base.preferred_budget_level(), capman::core::BudgetLevel::kEco);
  const auto detail = base.last_decision_detail();
  ASSERT_TRUE(detail.has_value());
  EXPECT_EQ(detail->source,
            capman::obs::DecisionDetail::Source::kTransferred);
  EXPECT_EQ(detail->matched_state, 11);
  EXPECT_DOUBLE_EQ(detail->q_big, 0.25);
  EXPECT_DOUBLE_EQ(detail->q_little, 0.75);

  capman::obs::MetricsRegistry registry;
  capman::obs::Instrumented& instrumented = traced;
  instrumented.bind_metrics(&registry, true);
  EXPECT_EQ(calls.bind, 1);
  EXPECT_EQ(calls.bound, &registry);
  EXPECT_TRUE(calls.timings);
  instrumented.publish_metrics(registry);
  EXPECT_EQ(calls.publish, 1);
  EXPECT_EQ(calls.published, &registry);

  // One span per timed call; non-CAPMAN policies never log a
  // recalibration.
  EXPECT_EQ(log.on_event_s.size(), 1u);
  EXPECT_EQ(log.maintenance_calls, 1u);
  EXPECT_TRUE(log.recalibration_s.empty());
}

TEST(TracedPolicy, DecoratedRunMatchesUndecoratedRun) {
  capman::sim::RunnerOptions options;
  options.capman.similarity_threads = 1;
  options.config.max_duration = util::Seconds{900.0};
  const capman::sim::ExperimentRunner runner{
      capman::device::PhoneModel{capman::device::nexus_profile()}, options};
  const auto trace =
      capman::workload::make_pcmark()->generate(util::Seconds{120.0}, 7);

  const auto plain = runner.run(trace, capman::sim::PolicyKind::kCapman);
  perfbench::SpanLog log;
  std::size_t graphs = 0;
  perfbench::TracedPolicy traced{
      runner.build_policy(capman::sim::PolicyKind::kCapman), log,
      [&graphs](const capman::core::MdpGraph&) { ++graphs; }};
  const auto decorated = runner.run(trace, traced);

  EXPECT_EQ(plain.service_time_s, decorated.service_time_s);
  EXPECT_EQ(plain.switch_count, decorated.switch_count);
  EXPECT_EQ(plain.energy_delivered_j, decorated.energy_delivered_j);
  EXPECT_EQ(plain.metrics.counter_or("engine/steps"),
            decorated.metrics.counter_or("engine/steps"));
  EXPECT_EQ(plain.metrics.counter_or("scheduler/recalibrations"),
            decorated.metrics.counter_or("scheduler/recalibrations"));
  // Every recalibration was seen as a span and its graph handed over.
  EXPECT_EQ(log.recalibration_s.size(),
            decorated.metrics.counter_or("scheduler/recalibrations"));
  EXPECT_EQ(graphs, log.recalibration_s.size());
  EXPECT_GT(graphs, 0u);
}

}  // namespace
