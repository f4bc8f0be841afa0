// Whole-engine golden results. Each case runs one short seeded discharge
// through SimEngine::run and compares the headline numbers against values
// recorded as hex floats, bit for bit. Changes that only make the engine
// cheaper (caching, hoisting, skipping repeated work) must leave every
// row untouched; a change that moves numbers on purpose re-records the
// table here and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "sim/engine.h"
#include "sim/experiment.h"
#include "workload/generators.h"

namespace capman::sim {
namespace {

struct GoldenRow {
  double service_time_s;
  double delivered_j;
  double lost_j;
  std::size_t switches;
  std::uint64_t steps;
  double avg_cpu_c;
  double max_cpu_c;
  double shed_j;
  std::size_t throttled_steps;
};

GoldenRow row_of(const SimResult& r) {
  return {r.service_time_s,
          r.energy_delivered_j,
          r.energy_lost_j,
          r.switch_count,
          r.metrics.counter_or("engine/steps"),
          r.avg_cpu_temp_c,
          r.max_cpu_temp_c,
          r.budget_shed_j,
          r.budget_throttled_steps};
}

// The row as a C++ initializer, for re-recording the table below.
std::string to_initializer(const GoldenRow& g) {
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "{%a, %a, %a, %zu, %llu, %a, %a, %a, %zu}", g.service_time_s,
                g.delivered_j, g.lost_j, g.switches,
                static_cast<unsigned long long>(g.steps), g.avg_cpu_c,
                g.max_cpu_c, g.shed_j, g.throttled_steps);
  return buffer;
}

void expect_row(const GoldenRow& actual, const GoldenRow& recorded) {
  const std::string got = to_initializer(actual);
  EXPECT_EQ(actual.service_time_s, recorded.service_time_s) << got;
  EXPECT_EQ(actual.delivered_j, recorded.delivered_j) << got;
  EXPECT_EQ(actual.lost_j, recorded.lost_j) << got;
  EXPECT_EQ(actual.switches, recorded.switches) << got;
  EXPECT_EQ(actual.steps, recorded.steps) << got;
  EXPECT_EQ(actual.avg_cpu_c, recorded.avg_cpu_c) << got;
  EXPECT_EQ(actual.max_cpu_c, recorded.max_cpu_c) << got;
  EXPECT_EQ(actual.shed_j, recorded.shed_j) << got;
  EXPECT_EQ(actual.throttled_steps, recorded.throttled_steps) << got;
}

// Cells about half the default pack, so every policy but the budgeted
// CAPMAN run reaches the end of its discharge within the two-hour cap; the
// 120 s video trace loops many times, so the cursor wraps.
RunnerOptions golden_options() {
  RunnerOptions options;
  options.seed = 11;
  options.config.max_duration = util::Seconds{7200.0};
  options.config.record_series = false;
  options.config.pack_config.big_capacity_mah = 900.0;
  options.config.pack_config.little_capacity_mah = 450.0;
  options.config.practice_capacity_mah = 1350.0;
  return options;
}

workload::Trace golden_trace() {
  return workload::make_video()->generate(util::Seconds{120.0}, 11);
}

SimResult run_golden(PolicyKind kind, const RunnerOptions& options) {
  const ExperimentRunner runner{
      device::PhoneModel{device::nexus_profile()}, options};
  return runner.run(golden_trace(), kind);
}

TEST(EngineGolden, DualMatchesRecordedRun) {
  expect_row(row_of(run_golden(PolicyKind::kDual, golden_options())),
             {0x1.750199999ab8ep+11, 0x1.4722e02e6e9aap+12,
              0x1.114a7f4b315c1p+10, 2, 59681, 0x1.470a2e51c66b7p+5,
              0x1.552cd83539db3p+5, 0x0p+0, 0});
}

TEST(EngineGolden, HeuristicMatchesRecordedRun) {
  expect_row(row_of(run_golden(PolicyKind::kHeuristic, golden_options())),
             {0x1.751999999ab94p+11, 0x1.478513ad0ae3cp+12,
              0x1.11b223d9812b5p+10, 7, 59696, 0x1.470d223405667p+5,
              0x1.552ba3a062bc2p+5, 0x0p+0, 0});
}

// The single LCO cell browns out within a minute (its series resistance
// scales with 1 / capacity), so this row pins the brownout death path.
TEST(EngineGolden, PracticeMatchesRecordedRun) {
  expect_row(row_of(run_golden(PolicyKind::kPractice, golden_options())),
             {0x1.4c66666666647p+5, 0x1.8a5c25ffff9d4p+5,
              0x1.f235ab8585b22p+2, 0, 831, 0x1.c5743fcc4f6f3p+4,
              0x1.e386cc5543582p+4, 0x0p+0, 0});
}

TEST(EngineGolden, CapmanMatchesRecordedRun) {
  expect_row(row_of(run_golden(PolicyKind::kCapman, golden_options())),
             {0x1.cfbccccccf57p+11, 0x1.8166cdf7fd813p+12,
              0x1.7de96caccba86p+10, 3635, 74198, 0x1.4d7ec7375904ap+5,
              0x1.5ac0073a1c934p+5, 0x0p+0, 0});
}

TEST(EngineGolden, OracleMatchesRecordedRun) {
  expect_row(row_of(run_golden(PolicyKind::kOracle, golden_options())),
             {0x1.b38199999e0d4p+12, 0x1.7716921db6db4p+13,
              0x1.5899778562433p+11, 1846, 139362, 0x1.4eb2b1330af08p+5,
              0x1.570b009c2c49fp+5, 0x0p+0, 0});
}

// The arbiter rig shapes the demand every step, so the shed figure and
// the throttled-step count are pinned too.
TEST(EngineGolden, CapmanUnderBudgetMatchesRecordedRun) {
  RunnerOptions options = golden_options();
  options.config.budget.enabled = true;
  options.config.budget.base_budget_mw = util::Milliwatts{2500.0};
  options.config.budget.cap_method = core::CapMethod::kRelax;
  options.capman.learn_budget = true;
  const SimResult r = run_golden(PolicyKind::kCapman, options);
  EXPECT_GT(r.budget_throttled_steps, 0u);
  expect_row(row_of(r),
             {0x1.c200000004adap+12, 0x1.696d1ee072c91p+12,
              0x1.b69afae1733f1p+9, 228, 144000, 0x1.1c7b57fbdf1b3p+5,
              0x1.28bad179461c6p+5, 0x1.ba41e6d3bfa67p+12, 144000});
}

// Metamorphic lifetime relations on the golden trace and cells: growing
// both cells must not shorten a policy's life, and a hotter room must not
// lengthen it.
double lifetime_s(PolicyKind kind, double capacity_scale, double ambient_c) {
  RunnerOptions options = golden_options();
  options.config.pack_config.big_capacity_mah *= capacity_scale;
  options.config.pack_config.little_capacity_mah *= capacity_scale;
  options.config.thermal_config.ambient = util::Celsius{ambient_c};
  const SimResult r = run_golden(kind, options);
  EXPECT_FALSE(r.truncated) << "the cap would hide the relation";
  return r.service_time_s;
}

// CAPMAN is left out here: on this trace its life at x1.25 capacity
// (3682.25 s) falls below its life at x1.0 (3709.90 s), a failure of the
// relation recorded in CHANGES.md rather than hidden by another trace,
// seed or scale.
TEST(LifetimeMetamorphic, NonDecreasingInCapacity) {
  const double small = lifetime_s(PolicyKind::kDual, 0.8, 26.0);
  const double nominal = lifetime_s(PolicyKind::kDual, 1.0, 26.0);
  const double large = lifetime_s(PolicyKind::kDual, 1.25, 26.0);
  EXPECT_LE(small, nominal);
  EXPECT_LE(nominal, large);
}

TEST(LifetimeMetamorphic, NonIncreasingInAmbient) {
  for (const PolicyKind kind : {PolicyKind::kDual, PolicyKind::kCapman}) {
    SCOPED_TRACE(to_string(kind));
    const double cool = lifetime_s(kind, 1.0, 16.0);
    const double room = lifetime_s(kind, 1.0, 26.0);
    const double hot = lifetime_s(kind, 1.0, 36.0);
    EXPECT_GE(cool, room);
    EXPECT_GE(room, hot);
  }
}

}  // namespace
}  // namespace capman::sim
