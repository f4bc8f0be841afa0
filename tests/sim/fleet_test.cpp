// FleetRunner determinism suite: pins every clause of the contract in
// src/sim/fleet.h — seed-only device sampling, bit-identical aggregates
// across thread AND shard counts, and the PR-4 field-naming convention of
// FleetConfig::validate().
#include "sim/fleet.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "battery/cell.h"
#include "config_error_message.h"
#include "sim/checkpoint.h"
#include "util/sharding.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace capman::sim {
namespace {

// A fleet small and short enough for unit tests: tiny cells (devices die
// in minutes of simulated time), coarse dt, short trace horizon.
FleetConfig small_fleet(std::size_t devices, std::size_t shards = 0,
                        std::size_t threads = 1) {
  FleetConfig config;
  config.device_count = devices;
  config.shard_count = shards;
  config.threads = threads;
  config.seed = 7;
  config.base.dt = util::Seconds{0.25};
  config.base.max_duration = util::hours(2.0);
  config.base.record_series = false;
  config.population.big_capacity_mah_lo = 500.0;
  config.population.big_capacity_mah_hi = 800.0;
  config.population.little_capacity_mah_lo = 200.0;
  config.population.little_capacity_mah_hi = 350.0;
  config.population.trace_horizon = util::Seconds{120.0};
  return config;
}

std::string snapshot_json(const obs::MetricsSnapshot& snapshot) {
  std::ostringstream out;
  snapshot.write_json(out);
  return out.str();
}

// The snapshot without its per-shard breakdown (fleet/shards and
// fleet/shard/NNNN/*): what must not change with the shard count.
std::string snapshot_json_without_shards(obs::MetricsSnapshot snapshot) {
  std::erase_if(snapshot.counters, [](const auto& counter) {
    return counter.name.starts_with("fleet/shard");
  });
  return snapshot_json(snapshot);
}

bool has_error(const std::vector<std::string>& errors,
               const std::string& needle) {
  return std::any_of(errors.begin(), errors.end(),
                     [&needle](const std::string& e) {
                       return e.find(needle) != std::string::npos;
                     });
}

TEST(FleetConfigValidate, DefaultsAreValid) {
  EXPECT_TRUE(FleetConfig{}.validate().empty());
  EXPECT_TRUE(PopulationSpec{}.validate().empty());
}

TEST(FleetConfigValidate, FieldMessagesAreLocked) {
  FleetConfig config;
  config.device_count = 0;
  config.sketch_relative_error = 1.5;
  config.policies.clear();
  auto errors = config.validate();
  EXPECT_TRUE(has_error(errors, "device_count must be > 0"));
  EXPECT_TRUE(has_error(errors, "policies must not be empty"));
  EXPECT_TRUE(
      has_error(errors, "sketch_relative_error must be in (0, 1)"));
}

TEST(FleetConfigValidate, ShardCountBounds) {
  FleetConfig config;
  config.device_count = 8;
  config.shard_count = 9;
  EXPECT_TRUE(has_error(config.validate(),
                        "shard_count must be <= device_count (0 = auto)"));
  config.device_count = 100000;
  config.shard_count = 5000;
  EXPECT_TRUE(has_error(config.validate(), "shard_count must be <= 4096"));
  config.shard_count = 0;  // auto is always legal
  EXPECT_TRUE(config.validate().empty());
}

TEST(FleetConfigValidate, RepeatedPoliciesRejected) {
  FleetConfig config;
  config.policies = {PolicyKind::kDual, PolicyKind::kDual};
  EXPECT_TRUE(
      has_error(config.validate(), "policies must not repeat a PolicyKind"));
}

TEST(FleetConfigValidate, BaseFaultPlansAreRejected) {
  FleetConfig config;
  config.base.faults.stuck_rate_per_min = 1.0;
  EXPECT_TRUE(has_error(
      config.validate(),
      "base.faults must be inactive; sample fleet faults via "
      "population.fault_fraction and fault_template"));
}

TEST(FleetConfigValidate, NestedErrorsCarryPathPrefixes) {
  FleetConfig config;
  config.base.dt = util::Seconds{0.0};
  config.population.fault_fraction = 2.0;
  config.population.ambient_hi = util::Celsius{-10.0};
  auto errors = config.validate();
  EXPECT_TRUE(has_error(errors, "base.dt must be > 0"));
  EXPECT_TRUE(
      has_error(errors, "population.fault_fraction must be in [0, 1]"));
  EXPECT_TRUE(
      has_error(errors, "population.ambient_hi must be >= ambient_lo"));
}

TEST(PopulationSpecValidate, WeightedChoiceMessages) {
  PopulationSpec spec;
  spec.phones.clear();
  spec.workloads[0].weight = -1.0;
  spec.big_chemistries = {{battery::Chemistry::kNCA, 0.0}};
  spec.big_capacity_mah_lo = 0.0;
  spec.workloads[2].eta = 1.5;
  auto errors = spec.validate();
  EXPECT_TRUE(has_error(errors, "phones must not be empty"));
  EXPECT_TRUE(has_error(errors, "workloads weights must be >= 0"));
  EXPECT_TRUE(
      has_error(errors, "big_chemistries needs at least one positive weight"));
  EXPECT_TRUE(has_error(errors, "big_capacity_mah_lo must be > 0"));
  EXPECT_TRUE(has_error(errors, "workloads[2].eta must be in [0, 1]"));
}

TEST(FleetRunner, CtorThrowsListingEveryProblem) {
  FleetConfig config;
  config.device_count = 0;
  config.policies.clear();
  try {
    FleetRunner runner{config};
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("invalid FleetConfig:"), std::string::npos);
    EXPECT_NE(message.find("device_count must be > 0"), std::string::npos);
    EXPECT_NE(message.find("policies must not be empty"), std::string::npos);
  }
}

TEST(FleetRunner, CtorMessageListsEveryNestedErrorInOrder) {
  FleetConfig config;
  config.device_count = 0;
  config.population.phones.clear();
  config.base.dt = util::Seconds{0.0};
  config.capman.rho = 1.0;
  config.health.tte_window_s = 0.0;
  config.checkpoint.every_shards = 0;
  config.recorder.enabled = true;
  config.recorder.capacity = 0;
  const auto errors = config.validate();
  const std::vector<std::string> expected = {
      "device_count must be > 0",
      "population.phones must not be empty",
      "base.dt must be > 0",
      "capman.rho must be in (0, 1)",
      "capman.value_iteration: rho must be in (0, 1)",
      "health.tte_window_s must be > 0",
      "checkpoint.every_shards must be > 0",
      "recorder.capacity must be >= 2",
      "recorder.dump_path is required when enabled",
  };
  EXPECT_EQ(errors, expected);
  EXPECT_EQ(thrown_config_message([&] { (void)FleetRunner{config}; }),
            expected_config_message("FleetConfig", errors));
}

TEST(FleetRunner, DeviceSeedIsPureAndSpreads) {
  EXPECT_EQ(FleetRunner::device_seed(7, 3), FleetRunner::device_seed(7, 3));
  EXPECT_NE(FleetRunner::device_seed(7, 3), FleetRunner::device_seed(7, 4));
  EXPECT_NE(FleetRunner::device_seed(7, 3), FleetRunner::device_seed(8, 3));
}

TEST(FleetRunner, SampleDeviceIsDeterministicAndInRange) {
  const PopulationSpec spec;
  for (std::uint64_t id = 0; id < 100; ++id) {
    const DeviceSpec a = FleetRunner::sample_device(spec, 42, id);
    const DeviceSpec b = FleetRunner::sample_device(spec, 42, id);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.phone, b.phone);
    EXPECT_DOUBLE_EQ(a.big_capacity_mah, b.big_capacity_mah);
    EXPECT_DOUBLE_EQ(a.ambient.value(), b.ambient.value());
    EXPECT_GE(a.big_capacity_mah, spec.big_capacity_mah_lo);
    EXPECT_LT(a.big_capacity_mah, spec.big_capacity_mah_hi);
    EXPECT_GE(a.little_capacity_mah, spec.little_capacity_mah_lo);
    EXPECT_LT(a.little_capacity_mah, spec.little_capacity_mah_hi);
    EXPECT_GE(a.ambient.value(), spec.ambient_lo.value());
    EXPECT_LT(a.ambient.value(), spec.ambient_hi.value());
    EXPECT_FALSE(a.faulty);  // fault_fraction defaults to 0
  }
}

TEST(FleetRunner, ZeroWeightChoicesAreNeverSampled) {
  PopulationSpec spec;
  spec.phones = {{FleetPhone::kNexus, 1.0}, {FleetPhone::kHonor, 0.0}};
  spec.big_chemistries = {{battery::Chemistry::kNMC, 1.0},
                          {battery::Chemistry::kNCA, 0.0}};
  for (std::uint64_t id = 0; id < 200; ++id) {
    const DeviceSpec device = FleetRunner::sample_device(spec, 1, id);
    EXPECT_EQ(device.phone, FleetPhone::kNexus);
    EXPECT_EQ(device.big_chemistry, battery::Chemistry::kNMC);
  }
}

TEST(FleetRunner, PopulationIsActuallyHeterogeneous) {
  const PopulationSpec spec;
  bool phones_differ = false, capacities_differ = false;
  const DeviceSpec first = FleetRunner::sample_device(spec, 42, 0);
  for (std::uint64_t id = 1; id < 50; ++id) {
    const DeviceSpec device = FleetRunner::sample_device(spec, 42, id);
    phones_differ |= device.phone != first.phone;
    capacities_differ |= device.big_capacity_mah < first.big_capacity_mah ||
                         device.big_capacity_mah > first.big_capacity_mah;
  }
  EXPECT_TRUE(phones_differ);
  EXPECT_TRUE(capacities_differ);
}

TEST(FleetRunner, ResolvesAutoShardAndThreadCounts) {
  const FleetRunner runner{small_fleet(10)};
  EXPECT_EQ(runner.shard_count(), 10u);  // min(devices, 64)
  EXPECT_GE(runner.thread_count(), 1u);
}

TEST(FleetRunner, RunProducesCoherentAggregates) {
  const FleetRunner runner{small_fleet(8, 4)};
  const FleetResult result = runner.run();

  EXPECT_EQ(result.device_count, 8u);
  EXPECT_EQ(result.shard_count, 4u);
  ASSERT_EQ(result.policies.size(), 2u);
  for (const auto& aggregate : result.policies) {
    EXPECT_EQ(aggregate.devices, 8u);
    EXPECT_EQ(aggregate.lifetime_s_sketch.count(), 8u);
    EXPECT_GT(aggregate.mean_lifetime_s(), 0.0);
    EXPECT_GT(aggregate.mean_energy_j(), 0.0);
    EXPECT_GT(aggregate.mean_max_temp_c(), 10.0);
    EXPECT_LE(aggregate.lifetime_s_sketch.min(),
              aggregate.mean_lifetime_s());
    EXPECT_LE(aggregate.mean_lifetime_s(),
              aggregate.lifetime_s_sketch.max() + 1e-9);
  }

  // Shard ranges tile [0, device_count) and steps roll up.
  ASSERT_EQ(result.shards.size(), 4u);
  std::size_t expected_begin = 0;
  std::uint64_t steps = 0;
  for (const auto& shard : result.shards) {
    EXPECT_EQ(shard.device_begin, expected_begin);
    expected_begin = shard.device_end;
    steps += shard.engine_steps;
  }
  EXPECT_EQ(expected_begin, 8u);
  EXPECT_EQ(steps, result.total_engine_steps);
  EXPECT_GT(steps, 0u);

  // Lookup and registry mapping.
  ASSERT_NE(result.find(PolicyKind::kDual), nullptr);
  EXPECT_EQ(result.find(PolicyKind::kOracle), nullptr);
  EXPECT_EQ(result.metrics.counter_or("fleet/devices"), 8u);
  EXPECT_EQ(result.metrics.counter_or("fleet/shards"), 4u);
  EXPECT_EQ(result.metrics.counter_or("fleet/steps"),
            result.total_engine_steps);
  EXPECT_EQ(result.metrics.counter_or("fleet/Dual/devices"), 8u);
  EXPECT_EQ(result.metrics.counter_or("fleet/shard/0000/devices"), 2u);
  EXPECT_GT(result.metrics.gauge_or("fleet/Dual/lifetime_s/mean"), 0.0);
}

// The headline contract: thread count never changes anything observable.
TEST(FleetRunner, BitIdenticalAcrossThreadCounts) {
  const FleetResult r1 = FleetRunner{small_fleet(12, 6, 1)}.run();
  const FleetResult r2 = FleetRunner{small_fleet(12, 6, 2)}.run();
  const FleetResult r8 = FleetRunner{small_fleet(12, 6, 8)}.run();
  const std::string json1 = snapshot_json(r1.metrics);
  EXPECT_EQ(json1, snapshot_json(r2.metrics));
  EXPECT_EQ(json1, snapshot_json(r8.metrics));
  EXPECT_EQ(r1.total_engine_steps, r8.total_engine_steps);
}

// And shard count only changes the fleet/shard/* breakdown — the merged
// policy aggregates are bit-identical because merges are integer folds.
TEST(FleetRunner, PolicyAggregatesIdenticalAcrossShardCounts) {
  const FleetResult base = FleetRunner{small_fleet(12, 1, 2)}.run();
  for (std::size_t shards : {3u, 6u, 12u}) {
    const FleetResult other = FleetRunner{small_fleet(12, shards, 2)}.run();
    ASSERT_EQ(other.policies.size(), base.policies.size());
    for (std::size_t i = 0; i < base.policies.size(); ++i) {
      const auto& a = base.policies[i];
      const auto& b = other.policies[i];
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.devices, b.devices);
      EXPECT_EQ(a.brownouts, b.brownouts);
      EXPECT_EQ(a.truncated, b.truncated);
      EXPECT_EQ(a.switch_total, b.switch_total);
      EXPECT_EQ(a.lifetime_us, b.lifetime_us);
      EXPECT_EQ(a.max_temp_mc, b.max_temp_mc);
      EXPECT_EQ(a.energy_delivered_mj, b.energy_delivered_mj);
      EXPECT_EQ(a.lifetime_s_sketch.count(), b.lifetime_s_sketch.count());
      for (double q : {0.0, 0.5, 0.9, 1.0}) {
        EXPECT_DOUBLE_EQ(a.lifetime_s_sketch.quantile(q),
                         b.lifetime_s_sketch.quantile(q))
            << shards << " shards, q=" << q;
      }
    }
  }
}

TEST(FleetRunner, RepeatedRunsAreBitIdentical) {
  const FleetRunner runner{small_fleet(6, 3, 2)};
  EXPECT_EQ(snapshot_json(runner.run().metrics),
            snapshot_json(runner.run().metrics));
}

TEST(FleetRunner, DifferentSeedsChangeTheFleet) {
  FleetConfig a = small_fleet(8, 4);
  FleetConfig b = small_fleet(8, 4);
  b.seed = 8;
  EXPECT_NE(snapshot_json(FleetRunner{a}.run().metrics),
            snapshot_json(FleetRunner{b}.run().metrics));
}

TEST(FleetRunner, FaultFractionSamplesFaultyDevices) {
  FleetConfig config = small_fleet(6, 3);
  config.population.fault_fraction = 1.0;
  config.population.fault_template.stuck_rate_per_min = 2.0;
  const FleetResult result = FleetRunner{config}.run();
  for (const auto& aggregate : result.policies) {
    EXPECT_EQ(aggregate.faulty_devices, 6u);
  }
  // Per-device fault seeds differ even though the template is shared.
  const DeviceSpec d0 =
      FleetRunner::sample_device(config.population, config.seed, 0);
  const DeviceSpec d1 =
      FleetRunner::sample_device(config.population, config.seed, 1);
  EXPECT_TRUE(d0.faulty);
  EXPECT_TRUE(d1.faulty);
  EXPECT_NE(d0.fault_seed, d1.fault_seed);
}

// Arbiter-enabled fleets keep the headline determinism contract: the
// arbiter is pure arithmetic, so thread count still changes nothing.
TEST(FleetRunner, BudgetEnabledStaysBitIdenticalAcrossThreads) {
  FleetConfig base = small_fleet(8, 4, 1);
  base.base.budget.enabled = true;
  base.base.budget.base_budget_mw = util::Milliwatts{2600.0};
  base.capman.learn_budget = true;
  FleetConfig threaded = base;
  threaded.threads = 4;
  const FleetResult r1 = FleetRunner{base}.run();
  const FleetResult r4 = FleetRunner{threaded}.run();
  EXPECT_EQ(snapshot_json(r1.metrics), snapshot_json(r4.metrics));
  EXPECT_EQ(r1.total_engine_steps, r4.total_engine_steps);
}

// Algorithm 1's own thread count is an engine knob like the fleet's: auto
// (0, resolved to 1 under the fleet) and explicit counts give the same
// bytes.
TEST(FleetRunner, SimilarityThreadsDoNotChangeTheSnapshot) {
  FleetConfig base = small_fleet(4, 2, 2);
  base.policies = {PolicyKind::kCapman};
  std::string reference;
  for (const std::size_t threads : {0u, 1u, 3u}) {
    FleetConfig config = base;
    config.capman.similarity_threads = threads;
    const std::string json = snapshot_json(FleetRunner{config}.run().metrics);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "similarity_threads = " << threads;
    }
  }
}

// Health monitoring reduces per-device alert counts into the policy
// aggregates by exact integer folds in shard order, so the PR-8 contract
// holds: thread count changes nothing observable, including alert counts.
TEST(FleetRunner, HealthAlertCountsBitIdenticalAcrossThreadCounts) {
  FleetConfig base = small_fleet(12, 6, 1);
  base.health.enabled = true;
  // Every device faulty so the watchdogs have something to bark at.
  base.population.fault_fraction = 1.0;
  base.population.fault_template.stuck_rate_per_min = 2.0;
  FleetConfig threaded = base;
  threaded.threads = 4;

  const FleetResult r1 = FleetRunner{base}.run();
  const FleetResult r4 = FleetRunner{threaded}.run();

  EXPECT_TRUE(r1.health_enabled);
  EXPECT_EQ(snapshot_json(r1.metrics), snapshot_json(r4.metrics));
  ASSERT_EQ(r1.policies.size(), r4.policies.size());
  std::uint64_t evaluations = 0;
  for (std::size_t i = 0; i < r1.policies.size(); ++i) {
    EXPECT_EQ(r1.policies[i].health_evaluations,
              r4.policies[i].health_evaluations);
    EXPECT_EQ(r1.policies[i].health_alerts, r4.policies[i].health_alerts);
    evaluations += r1.policies[i].health_evaluations;
  }
  EXPECT_GT(evaluations, 0u);
}

// Shard count changes only the fleet/shard/* breakdown; merged per-policy
// alert counts are invariant because the fold is shard-ordered integers.
TEST(FleetRunner, HealthAlertCountsIdenticalAcrossShardCounts) {
  FleetConfig base = small_fleet(12, 1, 2);
  base.health.enabled = true;
  base.population.fault_fraction = 1.0;
  base.population.fault_template.stuck_rate_per_min = 2.0;
  const FleetResult one = FleetRunner{base}.run();

  for (std::size_t shards : {3u, 6u, 12u}) {
    FleetConfig config = base;
    config.shard_count = shards;
    const FleetResult other = FleetRunner{config}.run();
    ASSERT_EQ(other.policies.size(), one.policies.size());
    for (std::size_t i = 0; i < one.policies.size(); ++i) {
      const auto& a = one.policies[i];
      const auto& b = other.policies[i];
      EXPECT_EQ(a.health_evaluations, b.health_evaluations)
          << shards << " shards, policy " << i;
      EXPECT_EQ(a.health_alerts, b.health_alerts)
          << shards << " shards, policy " << i;
      EXPECT_EQ(a.health_alert_total(), b.health_alert_total());
    }
  }
}

// Health counters must stay out of default snapshots entirely — that is
// what keeps pre-health and health-off fleets bit-identical.
TEST(FleetRunner, HealthCountersAbsentWhenMonitoringIsOff) {
  const FleetResult result = FleetRunner{small_fleet(4, 2)}.run();
  EXPECT_FALSE(result.health_enabled);
  const std::string json = snapshot_json(result.metrics);
  EXPECT_EQ(json.find("health"), std::string::npos);
  for (const auto& aggregate : result.policies) {
    EXPECT_EQ(aggregate.health_evaluations, 0u);
    EXPECT_EQ(aggregate.health_alert_total(), 0u);
  }
}

TEST(FleetConfigValidate, HealthAlertsPathIsRejected) {
  FleetConfig config;
  config.health.enabled = true;
  config.health.alerts_path = "alerts.jsonl";
  EXPECT_TRUE(has_error(
      config.validate(),
      "health.alerts_path must be empty for fleet runs (fleets "
      "aggregate alert counts, they do not write per-device files)"));
}

TEST(FleetConfigValidate, HealthErrorsCarryTheNestedPrefix) {
  FleetConfig config;
  config.health.enabled = true;
  config.health.thermal_window_s = 0.0;
  const auto errors = config.validate();
  bool prefixed = false;
  for (const auto& error : errors) {
    prefixed = prefixed || error.rfind("health.", 0) == 0;
  }
  EXPECT_TRUE(prefixed) << "health.* validation must carry the prefix";
}

TEST(FleetConfigValidate, BudgetErrorsCarryTheNestedPrefix) {
  FleetConfig config;
  config.base.budget.enabled = true;
  config.base.budget.min_rebudget_gap_s = 0.0;
  EXPECT_TRUE(has_error(config.validate(),
                        "base.budget.min_rebudget_gap_s must be > 0"));
}

// Why Practice devices brown out within a minute in the sub-scale preset
// (docs/FLEET.md §6). The Practice phone's single LCO cell carries the
// device's big + LITTLE capacity, 700-1150 mAh here, and its series
// resistance is 1.45 Ohm*Ah / capacity. A full cell therefore sags to the
// 3.0 V cutoff at about 0.9C, before its 1C limit: at about 2.7 W per Ah,
// 1.9 W for 700 mAh and 3.1 W for 1150 mAh, below the preset's bursts.
// Device 0 of capman_fleet's default seed is driven step by step through
// its trace; at its first brownout the cutoff-voltage check fails while
// the C-rate and available-well checks cannot.
TEST(FleetRunner, SubScalePracticeCellBrownsOutOnCutoffVoltage) {
  FleetConfig config = small_fleet(1);
  config.seed = 42;  // capman_fleet's default
  const DeviceSpec spec =
      FleetRunner::sample_device(config.population, config.seed, 0);
  const double capacity_mah = spec.big_capacity_mah + spec.little_capacity_mah;
  const device::PhoneModel phone{
      spec.phone == FleetPhone::kHonor    ? device::honor_profile()
      : spec.phone == FleetPhone::kLenovo ? device::lenovo_profile()
                                          : device::nexus_profile()};
  ASSERT_EQ(spec.workload.workload, FleetWorkload::kVideo);
  const workload::Trace trace = workload::make_video()->generate(
      config.population.trace_horizon, spec.seed);

  // The engine agrees: device 0's Practice run dies of brownout early.
  SimConfig device_config = config.base;
  device_config.practice_capacity_mah = capacity_mah;
  device_config.thermal_config.ambient = spec.ambient;
  RunnerOptions options;
  options.config = device_config;
  options.seed = spec.seed;
  const ExperimentRunner runner{phone, options};
  const SimResult practice = runner.run(trace, PolicyKind::kPractice);
  EXPECT_TRUE(practice.died_of_brownout);
  EXPECT_LT(practice.service_time_s, 60.0);

  battery::Cell cell{config.base.practice_chemistry, capacity_mah};
  const battery::ChemistryProfile& profile = cell.profile();
  workload::TraceCursor cursor{trace};
  const util::Seconds dt = config.base.dt;
  for (double t = 0.0; t < practice.service_time_s; t += dt.value()) {
    cursor.advance(t);
    const util::Watts load = phone.power(cursor.current().demand).total();
    // The cell's limits before the draw: the current that sags the rail
    // to cutoff through R0, and the most power it delivers above cutoff.
    const double v_eff = cell.open_circuit_voltage().value() -
                         cell.surge_overpotential().value();
    const double v_cut = profile.cutoff_voltage_v;
    const double i_cut = (v_eff - v_cut) / cell.series_resistance().value();
    const double p_cut = v_cut * i_cut;
    const double well_c = cell.available_charge().value();
    if (!cell.draw(load, dt).brownout) continue;
    SCOPED_TRACE("t = " + std::to_string(t) + " s, load " +
                 std::to_string(load.value()) + " W, limit " +
                 std::to_string(p_cut) + " W, " +
                 std::to_string(capacity_mah) + " mAh");
    EXPECT_FALSE(cell.exhausted());
    // Cutoff voltage fails: the load needs more than the cell delivers
    // above cutoff.
    EXPECT_GT(load.value(), p_cut);
    // The C-rate check cannot: every load the voltage allows draws under
    // the 1C limit.
    EXPECT_LT(i_cut / cell.capacity_ah(), profile.max_c_rate);
    // Nor can the available well: it holds far more than such a step
    // draws, even at the chemistry's worst delivery efficiency (0.52).
    EXPECT_GT(well_c, 10.0 * i_cut / 0.52 * dt.value());
    return;
  }
  FAIL() << "no brownout before the engine's death at "
         << practice.service_time_s << " s";
}

TEST(FleetRunner, EnumNamesAreStable) {
  EXPECT_STREQ(to_string(FleetPhone::kNexus), "nexus");
  EXPECT_STREQ(to_string(FleetPhone::kHonor), "honor");
  EXPECT_STREQ(to_string(FleetPhone::kLenovo), "lenovo");
  EXPECT_STREQ(to_string(FleetWorkload::kGeekbench), "geekbench");
  EXPECT_STREQ(to_string(FleetWorkload::kEtaStatic), "eta");
  EXPECT_STREQ(to_string(FleetWorkload::kScreenToggle), "toggle");
}

// ---------------------------------------------------------------------------
// Supervised execution (bounded retry + quarantine)

TEST(FleetConfigValidate, CheckpointErrorsCarryTheNestedPrefix) {
  FleetConfig config;
  config.checkpoint.every_shards = 0;
  EXPECT_TRUE(has_error(config.validate(),
                        "checkpoint.every_shards must be > 0"));
  config = FleetConfig{};
  config.checkpoint.resume = true;  // no directory
  EXPECT_TRUE(has_error(config.validate(),
                        "checkpoint.resume requires a checkpoint directory"));
}

TEST(FleetSupervisor, PoisonedDeviceIsQuarantinedAfterBoundedRetry) {
  auto config = small_fleet(20, 4);
  config.poison_devices = {5};
  config.quarantine_retries = 2;
  const FleetRunner runner{config};
  const auto result = runner.run();

  EXPECT_EQ(result.quarantined_devices, 1u);
  EXPECT_EQ(result.quarantine_retries, 2u);  // both extra attempts burned
  for (const auto& aggregate : result.policies) {
    EXPECT_EQ(aggregate.quarantined, 1u);
    // The quarantined device contributes to no aggregate: 19 fold in.
    EXPECT_EQ(aggregate.devices, 19u);
  }
  // The campaign is loud about it: fleet/<policy>/quarantined counters
  // plus the per-shard supervisor counters.
  bool shard_counter_seen = false;
  for (const auto& counter : result.metrics.counters) {
    if (counter.name.find("/quarantined") != std::string::npos &&
        counter.value > 0) {
      shard_counter_seen = true;
    }
  }
  EXPECT_TRUE(shard_counter_seen);
}

TEST(FleetSupervisor, QuarantineIsDeterministicAcrossThreadCounts) {
  auto config = small_fleet(20, 4, 1);
  config.poison_devices = {3, 11};
  const auto serial = FleetRunner{config}.run();
  config.threads = 2;
  const auto parallel = FleetRunner{config}.run();
  EXPECT_EQ(serial.quarantined_devices, 2u);
  EXPECT_EQ(snapshot_json(serial.metrics), snapshot_json(parallel.metrics));
}

TEST(FleetSupervisor, TransientPoisonSucceedsOnRetryWithoutHalfCounting) {
  auto config = small_fleet(20, 4);
  const auto clean = FleetRunner{config}.run();

  config.poison_devices = {5};
  config.poison_transient = true;  // first attempt throws, retry succeeds
  const auto retried = FleetRunner{config}.run();

  EXPECT_EQ(retried.quarantined_devices, 0u);
  EXPECT_EQ(retried.quarantine_retries, 1u);
  ASSERT_EQ(retried.policies.size(), clean.policies.size());
  for (std::size_t i = 0; i < clean.policies.size(); ++i) {
    // The retried device folds in exactly once: every aggregate matches
    // the clean run (no double-count from the failed first attempt).
    EXPECT_EQ(retried.policies[i].devices, clean.policies[i].devices);
    EXPECT_EQ(retried.policies[i].lifetime_us, clean.policies[i].lifetime_us);
    EXPECT_EQ(retried.policies[i].switch_total,
              clean.policies[i].switch_total);
    EXPECT_EQ(retried.policies[i].quarantined, 0u);
  }
}

// A heavy-tailed fleet for the shard scheduler: most devices run
// Geekbench and die within minutes, a few sit idle with the screen on and
// live until max_duration. The seed is the first one whose idle devices
// (at least two) all land in one shard of a 5-shard plan, so under a fixed
// split one worker would carry most of the work.
FleetConfig heavy_tailed_fleet(std::size_t shards, std::size_t threads) {
  FleetConfig config = small_fleet(64, shards, threads);
  config.policies = {PolicyKind::kDual};
  config.population.workloads = {{FleetWorkload::kGeekbench, 20.0},
                                 {FleetWorkload::kIdleScreenOn, 1.0}};
  const util::ShardPlan plan{config.device_count, 5};
  for (config.seed = 1; config.seed < 1000; ++config.seed) {
    std::vector<std::size_t> idle_shards;
    for (std::uint64_t id = 0; id < config.device_count; ++id) {
      const DeviceSpec device =
          FleetRunner::sample_device(config.population, config.seed, id);
      if (device.workload.workload == FleetWorkload::kIdleScreenOn) {
        idle_shards.push_back(plan.shard_of(id));
      }
    }
    if (idle_shards.size() >= 2 &&
        std::all_of(idle_shards.begin(), idle_shards.end(),
                    [&](std::size_t s) { return s == idle_shards.front(); })) {
      return config;
    }
  }
  ADD_FAILURE() << "no seed below 1000 clusters the idle devices";
  return config;
}

// A checkpoint directory private to this test and this process: the
// same test binary may run concurrently (sim_fleet_test and tsan_smoke
// under ctest -j), and an assertion failure must not leave it behind.
class FleetScheduling : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("capman_fleet_" +
            std::string{::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()} +
            "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

// Workers claim shards, so who runs what depends on timing; the snapshot
// must not. Byte-identical at 1-4 workers for each shard count, and equal
// up to the per-shard breakdown across 1, 5 and 64 shards.
TEST_F(FleetScheduling,
       HeavyTailedFleetIsBitIdenticalAcrossWorkersAndShards) {
  std::string reference;
  for (const std::size_t shards : {1u, 5u, 64u}) {
    const FleetResult serial = FleetRunner{heavy_tailed_fleet(shards, 1)}.run();
    const std::string json = snapshot_json(serial.metrics);
    if (shards == 5) {
      // The population really is heavy-tailed: the busiest shard runs
      // more than twice the mean shard's engine steps.
      std::uint64_t max_steps = 0;
      for (const auto& shard : serial.shards) {
        max_steps = std::max(max_steps, shard.engine_steps);
      }
      EXPECT_GT(5 * max_steps, 2 * serial.total_engine_steps);
    }
    for (const std::size_t threads : {2u, 3u, 4u}) {
      const FleetResult parallel =
          FleetRunner{heavy_tailed_fleet(shards, threads)}.run();
      EXPECT_EQ(snapshot_json(parallel.metrics), json)
          << shards << " shards, " << threads << " workers";
    }
    const std::string merged = snapshot_json_without_shards(serial.metrics);
    if (reference.empty()) reference = merged;
    EXPECT_EQ(merged, reference) << shards << " shards";
  }
}

// Claimed shards complete in any order, so a checkpoint can hold any set
// of them. Resuming from a non-prefix set re-runs exactly the missing
// shards and reproduces the uninterrupted snapshot.
TEST_F(FleetScheduling, ResumeFromNonPrefixShardSetMatchesUninterruptedRun) {
  FleetConfig config = small_fleet(12, 6, 2);
  config.checkpoint.directory = dir_.string();
  config.checkpoint.every_shards = 2;
  const FleetResult original = FleetRunner{config}.run();

  const std::string path = (dir_ / "fleet.ckpt").string();
  auto load = CheckpointReader::load(path);
  ASSERT_TRUE(load.has_value());
  ASSERT_EQ(load->shards.size(), 6u);
  std::erase_if(load->shards, [](const ShardCheckpoint& shard) {
    return shard.shard % 2 == 0;  // keep shards 1, 3 and 5
  });
  ASSERT_EQ(load->shards.size(), 3u);
  {
    CheckpointWriter rewind{path, load->header};
    rewind.write(load->shards);
  }

  config.checkpoint.resume = true;
  config.threads = 3;
  const FleetResult resumed = FleetRunner{config}.run();
  EXPECT_TRUE(resumed.checkpoint.resumed);
  EXPECT_EQ(resumed.checkpoint.resumed_shards, 3u);
  EXPECT_EQ(snapshot_json(resumed.metrics), snapshot_json(original.metrics));
}

}  // namespace
}  // namespace capman::sim
