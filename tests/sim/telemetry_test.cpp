// End-to-end telemetry contracts on real engine runs:
//  * enabling the decision-trace recorder (and the span profiler) leaves
//    every simulated quantity bit-identical to a sink-free run,
//  * the metrics snapshot a run carries is populated, consistent with the
//    summary stats, and reproducible run-to-run,
//  * the health/* and faults/* registry counters equal the HealthStats and
//    FaultStats the run returns,
//  * with every sink on, the sinks agree with each other and with the
//    registry (one step sample and one decision event feed them all).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/engine.h"
#include "sim/experiment.h"
#include "workload/generators.h"

namespace capman::sim {
namespace {

device::PhoneModel nexus() {
  return device::PhoneModel{device::nexus_profile()};
}

workload::Trace video_trace(std::uint64_t seed = 7) {
  return workload::make_video()->generate(util::Seconds{600.0}, seed);
}

/// Everything simulated must match bit for bit; telemetry artifacts
/// (snapshot contents, trace files) are allowed to differ.
void expect_bit_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.service_time_s, b.service_time_s);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.died_of_brownout, b.died_of_brownout);
  EXPECT_EQ(a.energy_delivered_j, b.energy_delivered_j);
  EXPECT_EQ(a.energy_lost_j, b.energy_lost_j);
  EXPECT_EQ(a.tec_energy_j, b.tec_energy_j);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.avg_cpu_temp_c, b.avg_cpu_temp_c);
  EXPECT_EQ(a.max_cpu_temp_c, b.max_cpu_temp_c);
  EXPECT_EQ(a.switch_count, b.switch_count);
  EXPECT_EQ(a.big_active_s, b.big_active_s);
  EXPECT_EQ(a.little_active_s, b.little_active_s);
  EXPECT_EQ(a.end_big_soc, b.end_big_soc);
  EXPECT_EQ(a.end_little_soc, b.end_little_soc);
  ASSERT_EQ(a.soc_series.size(), b.soc_series.size());
  for (std::size_t i = 0; i < a.soc_series.size(); ++i) {
    EXPECT_EQ(a.soc_series.value_at(i), b.soc_series.value_at(i));
    EXPECT_EQ(a.power_series.value_at(i), b.power_series.value_at(i));
    EXPECT_EQ(a.cpu_temp_series.value_at(i), b.cpu_temp_series.value_at(i));
  }
}

TEST(TelemetryTest, DecisionTracingIsBitIdentical) {
  const auto trace = video_trace();

  RunnerOptions plain;
  plain.seed = 11;
  plain.config.max_duration = util::Seconds{900.0};
  const ExperimentRunner baseline{nexus(), plain};
  const auto r0 = baseline.run(trace, PolicyKind::kCapman);

  RunnerOptions traced = plain;
  const std::string path = "telemetry_test_decisions.jsonl";
  traced.config.telemetry.decision_trace_path = path;
  const ExperimentRunner recorder{nexus(), traced};
  const auto r1 = recorder.run(trace, PolicyKind::kCapman);

  expect_bit_identical(r0, r1);

  // The sink actually recorded: one line per consultation.
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(lines, r1.metrics.counter_or("engine/consults"));
  EXPECT_GT(lines, 0u);
}

TEST(TelemetryTest, SpanProfilingIsBitIdentical) {
  const auto trace = video_trace();

  RunnerOptions plain;
  plain.seed = 11;
  plain.config.max_duration = util::Seconds{600.0};
  const ExperimentRunner baseline{nexus(), plain};
  const auto r0 = baseline.run(trace, PolicyKind::kCapman);

  RunnerOptions profiled = plain;
  const std::string path = "telemetry_test_spans.json";
  profiled.config.telemetry.spans_path = path;
  const ExperimentRunner profiler{nexus(), profiled};
  const auto r1 = profiler.run(trace, PolicyKind::kCapman);

  expect_bit_identical(r0, r1);
  std::remove(path.c_str());

  // Only the profiled run counts its trace events.
  EXPECT_EQ(r0.metrics.counter_or("engine/trace_events"), 0u);
  EXPECT_GT(r1.metrics.counter_or("engine/trace_events"), 0u);
}

TEST(TelemetryTest, TimeDimensionSinksAreBitIdentical) {
  // Sampler + flight recorder + health monitor all on (the PR-8 time
  // dimension): every simulated quantity must still match a sink-free
  // run bit for bit — the three components only observe.
  const auto trace = video_trace();

  RunnerOptions plain;
  plain.seed = 11;
  plain.config.max_duration = util::Seconds{900.0};
  const ExperimentRunner baseline{nexus(), plain};
  const auto r0 = baseline.run(trace, PolicyKind::kCapman);

  RunnerOptions observed = plain;
  const std::string csv_path = "telemetry_test_samples.csv";
  const std::string dump_path = "telemetry_test_flight.jsonl";
  const std::string alerts_path = "telemetry_test_alerts.jsonl";
  observed.config.telemetry.sampler.enabled = true;
  observed.config.telemetry.sampler.csv_path = csv_path;
  observed.config.telemetry.recorder.enabled = true;
  observed.config.telemetry.recorder.dump_path = dump_path;
  observed.config.telemetry.recorder.dump_at_end = true;
  observed.config.telemetry.health.enabled = true;
  observed.config.telemetry.health.alerts_path = alerts_path;
  const ExperimentRunner recorder{nexus(), observed};
  const auto r1 = recorder.run(trace, PolicyKind::kCapman);

  expect_bit_identical(r0, r1);

  // Only the observed run carries health telemetry; the baseline result
  // must not even mention it (publication is gated on construction).
  EXPECT_GT(r1.health.evaluations, 0u);
  EXPECT_EQ(r0.health.evaluations, 0u);
  EXPECT_EQ(r0.metrics.counter_or("health/evaluations"), 0u);

  // The sinks actually landed.
  std::ifstream csv{csv_path};
  EXPECT_TRUE(csv.good());
  csv.close();
  std::ifstream dump{dump_path};
  EXPECT_TRUE(dump.good());
  dump.close();
  std::remove(csv_path.c_str());
  std::remove(dump_path.c_str());
  std::remove(alerts_path.c_str());
}

TEST(TelemetryTest, HealthStatsRoundTripThroughSnapshot) {
  RunnerOptions options;
  options.seed = 9;
  options.config.max_duration = util::Seconds{900.0};
  options.config.telemetry.health.enabled = true;
  FaultPlanConfig plan;
  plan.seed = 9;
  plan.stuck_rate_per_min = 2.0;
  plan.stuck_min_duration = util::Seconds{30.0};
  plan.stuck_max_duration = util::Seconds{60.0};
  options.faults = plan;
  const ExperimentRunner runner{nexus(), options};
  const auto r = runner.run(video_trace(), PolicyKind::kCapman);
  const auto& m = r.metrics;

  // The health/* counters are HealthStats::publish() of r.health.
  EXPECT_GT(r.health.evaluations, 0u);
  EXPECT_EQ(m.counter_or("health/evaluations"), r.health.evaluations);
  EXPECT_EQ(m.counter_or("health/alerts_total"), r.health.total_alerts());
  for (std::size_t i = 0; i < obs::kHealthRuleCount; ++i) {
    const auto rule = static_cast<obs::HealthRule>(i);
    EXPECT_EQ(m.counter_or(std::string("health/alerts/") + obs::to_string(rule)),
              r.health.alerts[i])
        << obs::to_string(rule);
  }
  EXPECT_EQ(r.health.total_alerts(), r.health_alerts.size());
}

TEST(TelemetryTest, SnapshotIsPopulatedAndConsistent) {
  RunnerOptions options;
  options.seed = 3;
  options.config.max_duration = util::Seconds{600.0};
  const ExperimentRunner runner{nexus(), options};
  const auto r = runner.run(video_trace(), PolicyKind::kCapman);

  const auto& m = r.metrics;
  EXPECT_FALSE(m.empty());
  EXPECT_GT(m.counter_or("engine/steps"), 0u);
  EXPECT_GT(m.counter_or("engine/consults"), 0u);
  EXPECT_EQ(m.counter_or("switch/count"), r.switch_count);
  EXPECT_DOUBLE_EQ(m.gauge_or("switch/big_active_s"), r.big_active_s);
  EXPECT_DOUBLE_EQ(m.gauge_or("switch/little_active_s"), r.little_active_s);

  // CAPMAN publishes its decision ladder; the branch counters add up to
  // the number of consultations the scheduler answered.
  const std::uint64_t ladder = m.counter_or("scheduler/decisions_exact") +
                               m.counter_or("scheduler/decisions_transferred") +
                               m.counter_or("scheduler/decisions_fallback") +
                               m.counter_or("scheduler/decisions_explored");
  EXPECT_GT(ladder, 0u);
  EXPECT_GT(m.counter_or("scheduler/recalibrations"), 0u);
  EXPECT_GT(m.counter_or("similarity/state_pairs_total"), 0u);
}

TEST(TelemetryTest, SnapshotIsReproducibleAcrossRuns) {
  RunnerOptions options;
  options.seed = 5;
  options.config.max_duration = util::Seconds{600.0};
  const ExperimentRunner runner{nexus(), options};

  const auto r1 = runner.run(video_trace(), PolicyKind::kCapman);
  const auto r2 = runner.run(video_trace(), PolicyKind::kCapman);

  std::ostringstream j1;
  std::ostringstream j2;
  r1.metrics.write_json(j1);
  r2.metrics.write_json(j2);
  EXPECT_EQ(j1.str(), j2.str());
}

TEST(TelemetryTest, FaultStatsRoundTripThroughSnapshot) {
  FaultPlanConfig plan;
  plan.seed = 9;
  plan.stuck_rate_per_min = 2.0;
  plan.stuck_min_duration = util::Seconds{30.0};
  plan.stuck_max_duration = util::Seconds{60.0};

  RunnerOptions options;
  options.seed = 9;
  options.config.max_duration = util::Seconds{600.0};
  options.faults = plan;
  const ExperimentRunner runner{nexus(), options};
  const auto r = runner.run(video_trace(), PolicyKind::kCapman);
  const auto& m = r.metrics;

  // The faults/* counters are FaultStats::publish() of r.faults.
  const FaultStats& f = r.faults;
  EXPECT_GT(f.stuck_episodes, 0u);
  EXPECT_EQ(m.counter_or("faults/stuck_episodes"), f.stuck_episodes);
  EXPECT_EQ(m.gauge_or("faults/stuck_time_s"), f.stuck_time_s);
  EXPECT_EQ(m.counter_or("faults/dropped_requests"), f.dropped_requests);
  EXPECT_EQ(m.counter_or("faults/transient_failures"), f.transient_failures);
  EXPECT_EQ(m.counter_or("faults/transient_retries"), f.transient_retries);
  EXPECT_EQ(m.counter_or("faults/jittered_switches"), f.jittered_switches);
  EXPECT_EQ(m.counter_or("faults/latency_spikes"), f.latency_spikes);
  EXPECT_EQ(m.counter_or("faults/droop_episodes"), f.droop_episodes);
  EXPECT_EQ(m.counter_or("faults/sensor_dropouts"), f.sensor_dropouts);
  EXPECT_EQ(m.counter_or("faults/corrupted_reads"), f.corrupted_reads);
  EXPECT_EQ(m.counter_or("faults/detected_switch_failures"),
            f.detected_switch_failures);
  EXPECT_EQ(m.counter_or("faults/fallback_episodes"), f.fallback_episodes);
  EXPECT_EQ(m.counter_or("faults/fallback_retries"), f.fallback_retries);
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in{path};
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

TEST(TelemetryTest, EverySinkAgreesOnOneRun) {
  // One CAPMAN video run with stuck-comparator episodes (capman_sim's
  // --fault-stuck plan), the budget arbiter on and every sink on: the
  // sinks read one step sample and one decision event per consultation,
  // so their counts must agree with each other and with the registry.
  const std::string trace_path = "telemetry_test_all_decisions.jsonl";
  const std::string csv_path = "telemetry_test_all_samples.csv";
  const std::string dump_path = "telemetry_test_all_flight.jsonl";
  const std::string alerts_path = "telemetry_test_all_alerts.jsonl";
  const std::string spans_path = "telemetry_test_all_spans.json";

  RunnerOptions options;
  options.seed = 9;
  options.config.max_duration = util::Seconds{900.0};
  FaultPlanConfig plan;
  plan.seed = 9;
  plan.stuck_rate_per_min = 2.0;
  plan.stuck_min_duration = util::Seconds{30.0};
  plan.stuck_max_duration = util::Seconds{90.0};
  options.faults = plan;
  options.config.budget.enabled = true;
  options.config.budget.base_budget_mw = util::Milliwatts{2500.0};
  options.capman.learn_budget = true;
  auto& telemetry = options.config.telemetry;
  telemetry.decision_trace_path = trace_path;
  telemetry.spans_path = spans_path;
  telemetry.sampler.enabled = true;
  telemetry.sampler.csv_path = csv_path;
  // An unbounded ring never compacts, so every tick is one CSV row.
  telemetry.sampler.capacity = obs::TimeSeries::kUnbounded;
  telemetry.recorder.enabled = true;
  telemetry.recorder.dump_path = dump_path;
  telemetry.recorder.dump_at_end = true;
  telemetry.health.enabled = true;
  telemetry.health.alerts_path = alerts_path;
  // Figure series, sampler and health monitor on one cadence.
  ASSERT_EQ(telemetry.sampler.period_s, options.config.series_period.value());
  ASSERT_EQ(telemetry.health.period_s, telemetry.sampler.period_s);

  const ExperimentRunner runner{nexus(), options};
  const auto r = runner.run(video_trace(), PolicyKind::kCapman);
  const auto& m = r.metrics;

  EXPECT_EQ(count_lines(trace_path), m.counter_or("engine/consults"));

  const std::size_t sampler_rows = count_lines(csv_path) - 1;  // header
  EXPECT_GT(sampler_rows, 0u);
  EXPECT_EQ(sampler_rows, r.soc_series.size());
  EXPECT_EQ(sampler_rows, r.health.evaluations);
  EXPECT_EQ(m.counter_or("health/evaluations"), r.health.evaluations);

  EXPECT_EQ(count_lines(alerts_path), m.counter_or("health/alerts_total"));
  EXPECT_EQ(r.health_alerts.size(), r.health.total_alerts());
  EXPECT_GT(count_lines(dump_path), 0u);

  for (const auto& path :
       {trace_path, csv_path, dump_path, alerts_path, spans_path}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace capman::sim
