#include "sim/engine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "config_error_message.h"
#include "sim/experiment.h"
#include "workload/generators.h"

namespace capman::sim {
namespace {

device::PhoneModel nexus() { return device::PhoneModel{device::nexus_profile()}; }

workload::Trace video_trace(std::uint64_t seed = 7) {
  return workload::make_video()->generate(util::Seconds{600.0}, seed);
}

// Fresh policy of `kind` wired to `seed` via a throwaway runner (the
// replacement for the removed make_policy shim).
std::unique_ptr<policy::BatteryPolicy> make_test_policy(PolicyKind kind,
                                                        std::uint64_t seed = 42) {
  RunnerOptions options;
  options.seed = seed;
  return ExperimentRunner{nexus(), options}.build_policy(kind);
}

TEST(SimEngine, TruncatesAtMaxDuration) {
  // A sleeping phone outlives any short budget.
  workload::TraceBuilder tb{"sleep"};
  device::DeviceDemand sleep;  // defaults: Sleep/Off/Idle
  tb.add(0.0, {workload::Syscall::kScreenSleep, 0}, sleep);
  const auto trace = std::move(tb).build(60.0);

  SimConfig config;
  config.max_duration = util::Seconds{120.0};
  SimEngine engine{config};
  auto policy = make_test_policy(PolicyKind::kDual);
  const auto r = engine.run(trace, *policy, nexus());
  EXPECT_TRUE(r.truncated);
  EXPECT_NEAR(r.service_time_s, 120.0, 1.0);
  EXPECT_FALSE(r.died_of_brownout);
}

TEST(SimEngine, PracticeRunsOnSinglePack) {
  SimConfig config;
  config.max_duration = util::Seconds{300.0};
  SimEngine engine{config};
  auto policy = make_test_policy(PolicyKind::kPractice);
  const auto r = engine.run(video_trace(), *policy, nexus());
  EXPECT_EQ(r.switch_count, 0u);
  EXPECT_DOUBLE_EQ(r.little_active_s, 0.0);
  EXPECT_DOUBLE_EQ(r.end_little_soc, 0.0);
  EXPECT_GT(r.big_active_s, 0.0);
}

TEST(SimEngine, SeriesAreRecordedAndOrdered) {
  SimConfig config;
  config.max_duration = util::Seconds{120.0};
  config.series_period = util::Seconds{1.0};
  SimEngine engine{config};
  auto policy = make_test_policy(PolicyKind::kDual);
  const auto r = engine.run(video_trace(), *policy, nexus());
  EXPECT_GT(r.soc_series.size(), 50u);
  EXPECT_EQ(r.soc_series.size(), r.power_series.size());
  EXPECT_EQ(r.soc_series.size(), r.cpu_temp_series.size());
  // SoC never increases.
  for (std::size_t i = 1; i < r.soc_series.size(); ++i) {
    EXPECT_LE(r.soc_series.value_at(i), r.soc_series.value_at(i - 1) + 1e-9);
  }
}

TEST(SimEngine, RecordSeriesOffKeepsSeriesEmpty) {
  SimConfig config;
  config.max_duration = util::Seconds{60.0};
  config.record_series = false;
  SimEngine engine{config};
  auto policy = make_test_policy(PolicyKind::kDual);
  const auto r = engine.run(video_trace(), *policy, nexus());
  EXPECT_TRUE(r.soc_series.empty());
}

TEST(SimEngine, EnergyConservationAgainstPackCapacity) {
  // Delivered + lost can never exceed the pack's initial chemical energy.
  SimConfig config;
  SimEngine engine{config};
  auto policy = make_test_policy(PolicyKind::kDual);
  const auto r = engine.run(video_trace(), *policy, nexus());
  battery::DualBatteryPack fresh{config.pack_config};
  EXPECT_LE(r.energy_delivered_j + r.energy_lost_j,
            fresh.energy_remaining().value() * 1.02);
  EXPECT_GT(r.energy_delivered_j, 0.0);
}

TEST(SimEngine, DeterministicForSameSeed) {
  SimConfig config;
  config.max_duration = util::Seconds{900.0};
  SimEngine engine{config};
  auto a = make_test_policy(PolicyKind::kCapman, 9);
  auto b = make_test_policy(PolicyKind::kCapman, 9);
  const auto ra = engine.run(video_trace(3), *a, nexus());
  const auto rb = engine.run(video_trace(3), *b, nexus());
  EXPECT_DOUBLE_EQ(ra.service_time_s, rb.service_time_s);
  EXPECT_EQ(ra.switch_count, rb.switch_count);
  EXPECT_DOUBLE_EQ(ra.energy_delivered_j, rb.energy_delivered_j);
}

TEST(SimEngine, TecDisabledNeverDrawsTecPower) {
  SimConfig config;
  config.enable_tec = false;
  config.max_duration = util::Seconds{600.0};
  SimEngine engine{config};
  auto policy = make_test_policy(PolicyKind::kDual);
  const auto r = engine.run(
      workload::make_geekbench()->generate(util::Seconds{600.0}, 7), *policy,
      nexus());
  EXPECT_DOUBLE_EQ(r.tec_energy_j, 0.0);
  EXPECT_DOUBLE_EQ(r.tec_on_fraction, 0.0);
}

TEST(SimEngine, TecEngagesOnHotWorkload) {
  SimConfig config;
  config.max_duration = util::Seconds{1800.0};
  SimEngine engine{config};
  auto policy = make_test_policy(PolicyKind::kDual);
  const auto r = engine.run(
      workload::make_geekbench()->generate(util::Seconds{600.0}, 7), *policy,
      nexus());
  EXPECT_GT(r.tec_on_fraction, 0.1);
  EXPECT_GT(r.tec_energy_j, 0.0);
  // The controller caps the hot spot near the threshold (death-phase
  // excursions allowed).
  EXPECT_LT(r.avg_cpu_temp_c, 48.0);
}

TEST(SimEngine, ResultMetadataFilled) {
  SimConfig config;
  config.max_duration = util::Seconds{30.0};
  SimEngine engine{config};
  auto policy = make_test_policy(PolicyKind::kOracle);
  const auto r = engine.run(video_trace(), *policy, nexus());
  EXPECT_EQ(r.workload, "Video");
  EXPECT_EQ(r.policy, "Oracle");
  EXPECT_EQ(r.phone, "Nexus");
  EXPECT_GT(r.avg_power_w, 0.5);
}

TEST(Experiment, AllPolicyKindsConstruct) {
  for (auto kind : all_policy_kinds()) {
    auto policy = make_test_policy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), to_string(kind));
  }
}

TEST(Experiment, ImprovementPct) {
  EXPECT_DOUBLE_EQ(improvement_pct(150.0, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(improvement_pct(50.0, 100.0), -50.0);
  EXPECT_DOUBLE_EQ(improvement_pct(1.0, 0.0), 0.0);
}

TEST(Experiment, FindResultByName) {
  std::vector<SimResult> results(2);
  results[0].policy = "CAPMAN";
  results[1].policy = "Dual";
  EXPECT_EQ(find_result(results, "Dual"), &results[1]);
  EXPECT_EQ(find_result(results, "nope"), nullptr);
}

TEST(Experiment, FindResultIsCaseInsensitive) {
  std::vector<SimResult> results(2);
  results[0].policy = "CAPMAN";
  results[1].policy = "Dual";
  EXPECT_EQ(find_result(results, "capman"), &results[0]);
  EXPECT_EQ(find_result(results, "DUAL"), &results[1]);
  EXPECT_EQ(find_result(results, "dua"), nullptr);  // no prefix matching
}

// Policy display names are stable API (tables, CSVs and lookups key on
// them); renaming one is a breaking change and must show up here.
TEST(Experiment, PolicyNamesAreStable) {
  EXPECT_STREQ(to_string(PolicyKind::kOracle), "Oracle");
  EXPECT_STREQ(to_string(PolicyKind::kCapman), "CAPMAN");
  EXPECT_STREQ(to_string(PolicyKind::kDual), "Dual");
  EXPECT_STREQ(to_string(PolicyKind::kHeuristic), "Heuristic");
  EXPECT_STREQ(to_string(PolicyKind::kPractice), "Practice");
}

TEST(SimConfigValidate, DefaultsAreValid) {
  EXPECT_TRUE(SimConfig{}.validate().empty());
}

TEST(SimConfigValidate, ListsEveryProblem) {
  SimConfig config;
  config.dt = util::Seconds{-0.05};
  config.death_grace = util::Seconds{0.0};
  config.pack_config.switch_config.oscillator_hz = 0.0;
  config.faults.sensor_dropout_prob = 7.0;
  const auto errors = config.validate();
  EXPECT_EQ(errors.size(), 4u);
}

TEST(SimConfigValidate, AggregatesNestedConfigsWithPathPrefixes) {
  // Every nested *Config is reachable from SimConfig::validate() (the L3
  // lint contract) and each error is prefixed with the member path.
  SimConfig config;
  config.pack_config.baseline_tau = util::Seconds{0.0};
  config.pack_config.switch_config.oscillator_hz = 0.0;
  config.thermal_config.cpu_capacity = -1.0;
  config.cooling_config.hysteresis = util::KelvinDiff{-1.0};
  config.telemetry.verbose_spans = true;  // without spans_path
  const auto errors = config.validate();
  ASSERT_EQ(errors.size(), 5u);
  const auto has = [&errors](const std::string& needle) {
    for (const auto& e : errors) {
      if (e.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("pack_config.baseline_tau"));
  EXPECT_TRUE(has("pack_config.switch_config: oscillator_hz"));
  EXPECT_TRUE(has("thermal_config.cpu_capacity"));
  EXPECT_TRUE(has("cooling_config.hysteresis"));
  EXPECT_TRUE(has("telemetry.verbose_spans"));
}

TEST(SimConfigValidate, TelemetrySinksMustNotShareAFile) {
  SimConfig config;
  config.telemetry.decision_trace_path = "same.out";
  config.telemetry.spans_path = "same.out";
  const auto errors = config.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("decision_trace_path"), std::string::npos);
  EXPECT_NE(errors.front().find("spans_path"), std::string::npos);
}

TEST(SimConfigValidate, EngineConstructionRejectsInvalidConfig) {
  SimConfig config;
  config.dt = util::Seconds{0.0};
  EXPECT_THROW(SimEngine{config}, std::invalid_argument);
  SimConfig bad_switch;
  bad_switch.pack_config.switch_config.oscillator_hz = -1.0;
  EXPECT_THROW(SimEngine{bad_switch}, std::invalid_argument);
  EXPECT_THROW(
      (ExperimentRunner{nexus(), {bad_switch, 42, std::nullopt}}),
      std::invalid_argument);
}

// Every nested config keeps its own prefix ("pack_config.switch_config: ",
// "budget.", ...), the fault plan keeps the "faults." it writes itself, and
// all of them land in one message.
TEST(SimConfigValidate, EngineThrowsEveryNestedErrorInOneMessage) {
  SimConfig config;
  config.dt = util::Seconds{0.0};
  config.pack_config.switch_config.oscillator_hz = -1.0;
  config.thermal_config.ambient = util::Celsius{-300.0};
  config.cooling_config.hysteresis = util::KelvinDiff{-1.0};
  config.telemetry.verbose_spans = true;
  config.budget.enabled = true;
  config.budget.min_rebudget_gap_s = 0.0;
  config.faults.latency_spike_prob = 2.0;
  const auto errors = config.validate();
  const std::vector<std::string> expected = {
      "dt must be > 0",
      "pack_config.switch_config: oscillator_hz (oscillator frequency) must "
      "be > 0",
      "thermal_config.ambient must be above absolute zero",
      "cooling_config.hysteresis must be >= 0",
      "telemetry.verbose_spans requires spans_path to be set",
      "budget.min_rebudget_gap_s must be > 0",
      "faults.latency_spike_prob must be in [0, 1]",
  };
  EXPECT_EQ(errors, expected);
  EXPECT_EQ(thrown_config_message([&] { (void)SimEngine{config}; }),
            expected_config_message("SimConfig", errors));
}

TEST(ExperimentRunner, CompareIsDeterministic) {
  SimConfig config;
  config.max_duration = util::Seconds{120.0};
  config.record_series = false;
  const auto trace = video_trace(5);

  ExperimentRunner first{nexus(), {config, 11, std::nullopt}};
  ExperimentRunner second{nexus(), {config, 11, std::nullopt}};
  const auto a = first.compare(trace);
  const auto b = second.compare(trace);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ea = a.entries()[i];
    const auto& eb = b.entries()[i];
    EXPECT_EQ(ea.result.policy, eb.result.policy);
    EXPECT_DOUBLE_EQ(ea.result.service_time_s, eb.result.service_time_s);
    EXPECT_EQ(ea.result.switch_count, eb.result.switch_count);
    EXPECT_DOUBLE_EQ(ea.result.energy_delivered_j,
                     eb.result.energy_delivered_j);
  }
}

TEST(ExperimentRunner, ComparisonResultLookups) {
  SimConfig config;
  config.max_duration = util::Seconds{60.0};
  config.record_series = false;
  ExperimentRunner runner{nexus(), {config, 1, std::nullopt}};
  const auto comparison = runner.compare(video_trace());

  EXPECT_EQ(comparison.at(PolicyKind::kCapman).policy, "CAPMAN");
  ASSERT_NE(comparison.find("practice"), nullptr);  // case-insensitive
  EXPECT_EQ(comparison.find("practice")->policy, "Practice");
  EXPECT_EQ(comparison.find("nope"), nullptr);

  ComparisonResult empty;
  EXPECT_EQ(empty.find(PolicyKind::kOracle), nullptr);
  EXPECT_THROW(static_cast<void>(empty.at(PolicyKind::kOracle)),
               std::out_of_range);

  const auto vec = comparison.to_vector();
  ASSERT_EQ(vec.size(), 5u);
  EXPECT_EQ(vec[0].policy, "Oracle");  // legacy paper order preserved
  EXPECT_EQ(vec[4].policy, "Practice");
}

TEST(ExperimentRunner, RunCyclesKeepsOnePolicyInstance) {
  SimConfig config;
  config.max_duration = util::Seconds{60.0};
  config.record_series = false;
  ExperimentRunner runner{nexus(), {config, 2, std::nullopt}};
  const auto cycles = runner.run_cycles(video_trace(), PolicyKind::kCapman, 3);
  ASSERT_EQ(cycles.size(), 3u);
  for (const auto& r : cycles) EXPECT_EQ(r.policy, "CAPMAN");
}

TEST(Experiment, ComparisonRunsAllFivePolicies) {
  SimConfig config;
  config.max_duration = util::Seconds{60.0};
  config.record_series = false;
  const auto results =
      ExperimentRunner{nexus(), {config, 1, std::nullopt}}.compare(video_trace())
          .to_vector();
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0].policy, "Oracle");
  EXPECT_EQ(results[4].policy, "Practice");
}

// ------------------------------------------------- power-budget arbiter ---

TEST(SimEngineBudget, DisabledArbiterLeavesResultFieldsZero) {
  SimConfig config;
  config.max_duration = util::Seconds{120.0};
  SimEngine engine{config};
  auto policy = make_test_policy(PolicyKind::kDual);
  const auto r = engine.run(video_trace(), *policy, nexus());
  EXPECT_DOUBLE_EQ(r.avg_budget_mw, 0.0);
  EXPECT_DOUBLE_EQ(r.budget_shed_j, 0.0);
  EXPECT_EQ(r.budget_rebudgets, 0u);
  EXPECT_EQ(r.budget_throttled_steps, 0u);
  EXPECT_EQ(r.budget_tec_vetoes, 0u);
}

TEST(SimEngineBudget, ValidationErrorsCarryTheBudgetPrefix) {
  SimConfig config;
  config.budget.enabled = true;
  config.budget.min_rebudget_gap_s = 0.0;
  const auto errors = config.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.front(), "budget.min_rebudget_gap_s must be > 0");
  EXPECT_THROW(SimEngine{config}, std::invalid_argument);
}

TEST(SimEngineBudget, EnabledRunIsDeterministic) {
  SimConfig config;
  config.max_duration = util::Seconds{900.0};
  config.budget.enabled = true;
  config.budget.base_budget_mw = util::Milliwatts{3200.0};
  SimEngine engine{config};
  RunnerOptions options;
  options.seed = 9;
  options.config = config;
  options.capman.learn_budget = true;
  const ExperimentRunner runner{nexus(), options};
  auto a = runner.build_policy(PolicyKind::kCapman);
  auto b = runner.build_policy(PolicyKind::kCapman);
  const auto ra = engine.run(video_trace(3), *a, nexus());
  const auto rb = engine.run(video_trace(3), *b, nexus());
  EXPECT_DOUBLE_EQ(ra.service_time_s, rb.service_time_s);
  EXPECT_EQ(ra.switch_count, rb.switch_count);
  EXPECT_DOUBLE_EQ(ra.energy_delivered_j, rb.energy_delivered_j);
  EXPECT_DOUBLE_EQ(ra.avg_budget_mw, rb.avg_budget_mw);
  EXPECT_EQ(ra.budget_rebudgets, rb.budget_rebudgets);
  EXPECT_EQ(ra.budget_tec_vetoes, rb.budget_tec_vetoes);
  EXPECT_GT(ra.budget_rebudgets, 0u);
  EXPECT_GT(ra.avg_budget_mw, 0.0);
}

TEST(SimEngineBudget, TightBudgetShedsPowerAndCoolsTheRun) {
  SimConfig config;
  config.max_duration = util::Seconds{900.0};
  config.record_series = false;
  SimEngine uncapped_engine{config};
  auto uncapped_policy = make_test_policy(PolicyKind::kDual);
  const auto trace =
      workload::make_geekbench()->generate(util::Seconds{600.0}, 7);
  const auto uncapped = uncapped_engine.run(trace, *uncapped_policy, nexus());

  config.budget.enabled = true;
  config.budget.base_budget_mw = util::Milliwatts{2400.0};
  SimEngine capped_engine{config};
  auto capped_policy = make_test_policy(PolicyKind::kDual);
  const auto capped = capped_engine.run(trace, *capped_policy, nexus());

  EXPECT_GT(capped.budget_throttled_steps, 0u);
  EXPECT_GT(capped.budget_shed_j, 0.0);
  EXPECT_LT(capped.avg_power_w, uncapped.avg_power_w);
  EXPECT_LE(capped.max_cpu_temp_c, uncapped.max_cpu_temp_c + 0.5);
}

TEST(SimResult, DerivedAccessors) {
  SimResult r;
  r.energy_delivered_j = 80.0;
  r.energy_lost_j = 20.0;
  r.big_active_s = 300.0;
  r.little_active_s = 100.0;
  EXPECT_DOUBLE_EQ(r.efficiency(), 0.8);
  EXPECT_DOUBLE_EQ(r.big_little_ratio(), 3.0);
  SimResult empty;
  EXPECT_DOUBLE_EQ(empty.efficiency(), 0.0);
  EXPECT_DOUBLE_EQ(empty.big_little_ratio(), 0.0);
}

}  // namespace
}  // namespace capman::sim
