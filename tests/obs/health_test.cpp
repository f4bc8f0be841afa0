// HealthMonitor and FlightRecorder contracts (src/obs/health.h,
// src/obs/flight_recorder.h): rule edges, latches and serialised alert
// form; ring wrap, trigger drains and dump framing; and the end-to-end
// acceptance run — a stuck-comparator fault cycle must fire a health
// alert and land a schema-valid flight-recorder dump.
#include "obs/health.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config_error_message.h"
#include "obs/flight_recorder.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "workload/generators.h"

namespace capman::obs {
namespace {

HealthConfig enabled_config() {
  HealthConfig config;
  config.enabled = true;
  return config;
}

/// `sample` stamped at simulation time `t`.
StepSample at(double t, StepSample sample) {
  sample.t_s = t;
  return sample;
}

TEST(HealthRule, SlugsAreStable) {
  EXPECT_STREQ(to_string(HealthRule::kThermalRunaway), "thermal_runaway");
  EXPECT_STREQ(to_string(HealthRule::kBudgetStarvation), "budget_starvation");
  EXPECT_STREQ(to_string(HealthRule::kSwitchThrash), "switch_thrash");
  EXPECT_STREQ(to_string(HealthRule::kGuardEngaged), "guard_engaged");
  EXPECT_STREQ(to_string(HealthRule::kTimeToEmpty), "time_to_empty");
}

TEST(HealthConfigValidate, FieldMessagesAreLocked) {
  HealthConfig config;
  config.period_s = 0.0;
  config.thermal_slope_c_per_min = 0.0;
  config.thermal_window_s = 0.0;
  config.starvation_ratio = 1.0;
  config.starvation_windows = 0;
  config.thrash_rate_per_min = 0.0;
  config.thrash_window_s = 0.0;
  config.tte_watermark_s = 0.0;
  config.tte_window_s = 0.0;
  config.alerts_path = "alerts.jsonl";  // without enabled
  const std::vector<std::string> expected = {
      "period_s must be > 0",
      "thermal_slope_c_per_min must be > 0",
      "thermal_window_s must be > 0",
      "starvation_ratio must be in (0, 1)",
      "starvation_windows must be >= 1",
      "thrash_rate_per_min must be > 0",
      "thrash_window_s must be > 0",
      "tte_watermark_s must be > 0",
      "tte_window_s must be > 0",
      "alerts_path requires enabled to be true",
  };
  EXPECT_EQ(config.validate(), expected);
  EXPECT_EQ(thrown_config_message([&] { (void)HealthMonitor{config}; }),
            expected_config_message("HealthConfig", expected));
  EXPECT_TRUE(HealthConfig{}.validate().empty());
}

TEST(HealthMonitor, GuardAlertIsEdgeTriggeredAndRearms) {
  HealthMonitor monitor{enabled_config()};
  StepSample inputs;

  inputs.guard = true;
  EXPECT_EQ(monitor.evaluate(at(0.0, inputs)).size(), 1u);
  EXPECT_EQ(monitor.evaluate(at(2.0, inputs)).size(), 0u);  // still engaged
  inputs.guard = false;
  EXPECT_EQ(monitor.evaluate(at(4.0, inputs)).size(), 0u);  // cleared, re-armed
  inputs.guard = true;
  EXPECT_EQ(monitor.evaluate(at(6.0, inputs)).size(), 1u);  // second episode

  const auto& stats = monitor.stats();
  EXPECT_EQ(stats.alerts[static_cast<std::size_t>(HealthRule::kGuardEngaged)],
            2u);
  EXPECT_EQ(stats.total_alerts(), 2u);
  EXPECT_EQ(stats.evaluations, 4u);
  EXPECT_EQ(monitor.alerts().size(), 2u);
  EXPECT_EQ(monitor.alerts()[1].seq, 1u);
}

TEST(HealthMonitor, ThermalRunawayNeedsFloorAndFullWindow) {
  HealthConfig config = enabled_config();
  config.thermal_window_s = 10.0;
  config.thermal_slope_c_per_min = 3.0;
  config.thermal_floor_c = 40.0;
  HealthMonitor monitor{config};
  StepSample inputs;

  // 1 C per 2 s = 30 C/min, far past the slope limit — but only alert
  // once the temperature clears the warm-up floor AND the window spans
  // at least half of thermal_window_s.
  std::size_t fired_at_eval = 0;
  for (int i = 0; i < 10; ++i) {
    inputs.skin_c = 30.0 + i;
    inputs.cell_c = 25.0;  // max(skin, cell) picks the skin trace
    const auto& fired = monitor.evaluate(at(2.0 * i, inputs));
    if (!fired.empty() && fired_at_eval == 0) {
      fired_at_eval = static_cast<std::size_t>(i);
      EXPECT_EQ(fired[0].rule, HealthRule::kThermalRunaway);
      EXPECT_NEAR(fired[0].value, 30.0, 1e-9);  // C/min
      EXPECT_DOUBLE_EQ(fired[0].threshold, 3.0);
    }
  }
  // skin_c crosses 40.0 at i == 10? No: 30 + i >= 40 at i == 10, loop
  // tops out at i == 9 (39 C) — no alert while below the floor.
  EXPECT_EQ(fired_at_eval, 0u);
  EXPECT_EQ(monitor.alerts().size(), 0u);

  inputs.skin_c = 41.0;
  const auto& fired = monitor.evaluate(at(20.0, inputs));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, HealthRule::kThermalRunaway);
}

TEST(HealthMonitor, BudgetStarvationNeedsConsecutiveWindows) {
  HealthConfig config = enabled_config();
  config.starvation_ratio = 0.5;
  config.starvation_windows = 3;
  HealthMonitor monitor{config};
  StepSample inputs;
  inputs.budget_active = true;
  inputs.demand_w = 4.0;  // 4000 mW
  inputs.granted_mw = 1000.0;  // 25% of demand: starved

  EXPECT_TRUE(monitor.evaluate(at(0.0, inputs)).empty());
  EXPECT_TRUE(monitor.evaluate(at(2.0, inputs)).empty());
  inputs.granted_mw = 3000.0;  // relief resets the consecutive count
  EXPECT_TRUE(monitor.evaluate(at(4.0, inputs)).empty());
  inputs.granted_mw = 1000.0;
  EXPECT_TRUE(monitor.evaluate(at(6.0, inputs)).empty());
  EXPECT_TRUE(monitor.evaluate(at(8.0, inputs)).empty());
  const auto& fired = monitor.evaluate(at(10.0, inputs));  // third in a row
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, HealthRule::kBudgetStarvation);
  EXPECT_DOUBLE_EQ(fired[0].value, 0.25);
  EXPECT_DOUBLE_EQ(fired[0].threshold, 0.5);

  // Without an active arbiter the rule never counts, however low the grant.
  HealthMonitor unbudgeted{config};
  inputs.budget_active = false;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(unbudgeted.evaluate(at(2.0 * i, inputs)).empty());
  }
}

TEST(HealthMonitor, SwitchThrashDifferencesTheCumulativeCount) {
  HealthConfig config = enabled_config();
  config.thrash_window_s = 20.0;
  config.thrash_rate_per_min = 12.0;
  HealthMonitor monitor{config};
  StepSample inputs;

  // One switch per 2 s tick = 30 switches/min once the window fills.
  std::size_t alerts = 0;
  for (int i = 0; i < 10; ++i) {
    inputs.switch_count = static_cast<std::uint64_t>(i);
    alerts += monitor.evaluate(at(2.0 * i, inputs)).size();
  }
  EXPECT_EQ(alerts, 1u);
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].rule, HealthRule::kSwitchThrash);
  EXPECT_NEAR(monitor.alerts()[0].value, 30.0, 1e-9);
}

TEST(HealthMonitor, TimeToEmptyFirstPassageFiresOnce) {
  HealthConfig config = enabled_config();
  config.tte_window_s = 10.0;
  config.tte_watermark_s = 120.0;
  HealthMonitor monitor{config};
  StepSample inputs;

  EXPECT_TRUE(std::isinf(monitor.time_to_empty_s()));
  // SoC falls 0.01 per 2 s tick: slope 0.005/s. TTE = soc / 0.005, which
  // passes 120 s once soc < 0.6.
  std::size_t alerts = 0;
  double alert_t = -1.0;
  for (int i = 0; i < 40; ++i) {
    inputs.soc = 0.9 - 0.01 * i;
    const auto& fired = monitor.evaluate(at(2.0 * i, inputs));
    if (!fired.empty() && alert_t < 0.0) alert_t = fired[0].t_s;
    alerts += fired.size();
  }
  EXPECT_EQ(alerts, 1u);  // first passage only, stays latched below
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].rule, HealthRule::kTimeToEmpty);
  EXPECT_LT(monitor.alerts()[0].value, 120.0);
  EXPECT_GT(alert_t, 0.0);
  EXPECT_LT(monitor.time_to_empty_s(), 120.0);
}

TEST(HealthStats, MergeAndRegistryRoundTrip) {
  HealthStats a;
  a.evaluations = 10;
  a.alerts[0] = 1;
  a.alerts[3] = 2;
  HealthStats b;
  b.evaluations = 5;
  b.alerts[3] = 1;
  b.alerts[4] = 4;
  a.merge(b);
  EXPECT_EQ(a.evaluations, 15u);
  EXPECT_EQ(a.total_alerts(), 8u);

  // publish() is the one route into the registry: every field lands
  // under its health/* name.
  MetricsRegistry registry;
  a.publish(registry);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or("health/evaluations"), a.evaluations);
  for (std::size_t i = 0; i < kHealthRuleCount; ++i) {
    const auto rule = static_cast<HealthRule>(i);
    EXPECT_EQ(snap.counter_or(std::string("health/alerts/") + to_string(rule)),
              a.alerts[i]);
  }
  EXPECT_EQ(snap.counter_or("health/alerts_total"), 8u);
}

TEST(HealthMonitor, AlertJsonLineIsPinned) {
  HealthAlert alert;
  alert.seq = 3;
  alert.t_s = 12.5;
  alert.rule = HealthRule::kSwitchThrash;
  alert.value = 14.5;
  alert.threshold = 12.0;
  alert.detail = "switches=4.0";
  std::ostringstream out;
  HealthMonitor::write_json_line(out, alert);
  EXPECT_EQ(out.str(),
            "{\"seq\":3,\"t_s\":12.500,\"rule\":\"switch_thrash\","
            "\"value\":14.5,\"threshold\":12,\"detail\":\"switches=4.0\"}\n");
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

FlightRecorderConfig recorder_config(std::size_t capacity = 4) {
  FlightRecorderConfig config;
  config.enabled = true;
  config.capacity = capacity;
  config.dump_path = "unused-stream-backed.jsonl";
  return config;
}

TEST(FlightRecorder, EnabledWithoutDumpPathIsInvalid) {
  FlightRecorderConfig config;
  config.enabled = true;
  EXPECT_FALSE(config.validate().empty());
  EXPECT_THROW(FlightRecorder{config}, std::invalid_argument);
  EXPECT_TRUE(FlightRecorderConfig{}.validate().empty());
}

TEST(FlightRecorder, BothCtorsThrowEveryErrorInOneMessage) {
  FlightRecorderConfig config;
  config.enabled = true;
  config.capacity = 0;
  const auto errors = config.validate();
  ASSERT_GE(errors.size(), 2u);
  EXPECT_EQ(thrown_config_message([&] { (void)FlightRecorder{config}; }),
            expected_config_message("FlightRecorderConfig", errors));
  // The stream-backed ctor patches only an enabled recorder's missing
  // dump_path, so a disabled config reports its own errors unchanged.
  FlightRecorderConfig disabled;
  disabled.capacity = 0;
  disabled.dump_at_end = true;
  const auto disabled_errors = disabled.validate();
  ASSERT_GE(disabled_errors.size(), 2u);
  std::ostringstream out;
  EXPECT_EQ(
      thrown_config_message([&] { (void)FlightRecorder{disabled, out}; }),
      expected_config_message("FlightRecorderConfig", disabled_errors));
}

TEST(FlightRecorder, TriggerOnEmptyRingWritesNothing) {
  std::ostringstream out;
  FlightRecorder recorder{recorder_config(), out};
  EXPECT_EQ(recorder.trigger(1.0, "end-of-run"), 0u);
  EXPECT_TRUE(out.str().empty());
  EXPECT_EQ(recorder.dumps_written(), 0u);
}

TEST(FlightRecorder, RingKeepsTheMostRecentCapacityEvents) {
  std::ostringstream out;
  FlightRecorder recorder{recorder_config(4), out};
  for (int i = 0; i < 7; ++i) {
    recorder.record(1.0 * i, FlightEventKind::kDecision,
                    "e" + std::to_string(i));
  }
  EXPECT_EQ(recorder.buffered(), 4u);
  EXPECT_EQ(recorder.trigger(7.0, "alert:switch_thrash"), 5u);  // header + 4
  EXPECT_EQ(recorder.buffered(), 0u);  // drained

  std::istringstream in{out.str()};
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);
  // Header first, then the surviving events oldest-to-newest (e3..e6).
  EXPECT_NE(lines[0].find("\"kind\":\"trigger\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"what\":\"alert:switch_thrash\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"value\":4"), std::string::npos);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(lines[static_cast<std::size_t>(i) + 1].find(
                  "\"what\":\"e" + std::to_string(i + 3) + "\""),
              std::string::npos)
        << lines[static_cast<std::size_t>(i) + 1];
  }
}

TEST(FlightRecorder, BackToBackTriggersNeverReplayHistory) {
  std::ostringstream out;
  FlightRecorder recorder{recorder_config(8), out};
  recorder.record(1.0, FlightEventKind::kFault, "stuck-enter");
  EXPECT_EQ(recorder.trigger(2.0, "alert:guard_engaged"), 2u);
  recorder.record(3.0, FlightEventKind::kFault, "stuck-exit");
  EXPECT_EQ(recorder.trigger(4.0, "end-of-run"), 2u);
  EXPECT_EQ(recorder.dumps_written(), 2u);
  EXPECT_EQ(recorder.records_written(), 4u);
  // The second dump contains only post-first-trigger events.
  EXPECT_EQ(out.str().find("stuck-enter"), out.str().rfind("stuck-enter"));
}

TEST(FlightRecorder, DumpLineIsPinned) {
  FlightEvent event;
  event.seq = 9;
  event.t_s = 33.25;
  event.kind = FlightEventKind::kBudget;
  event.what = "rebudget";
  event.detail = "level=1";
  event.value = 3450.0;
  std::ostringstream out;
  FlightRecorder::write_json_line(out, event, 2);
  EXPECT_EQ(out.str(),
            "{\"dump\":2,\"seq\":9,\"t_s\":33.250,\"kind\":\"budget\","
            "\"what\":\"rebudget\",\"detail\":\"level=1\","
            "\"value\":3450}\n");
}

// ---------------------------------------------------------------------------
// Acceptance: a stuck-comparator fault run fires a health alert and lands
// a flight-recorder dump whose every line matches the pinned schema
// (field names in serialisation order; scripts/check_trace_schema.py
// does the deep typed validation on the same artifacts).
// ---------------------------------------------------------------------------

void expect_schema_line(const std::string& line) {
  const char* fields[] = {"{\"dump\":", "\"seq\":",    "\"t_s\":",
                          "\"kind\":\"", "\"what\":\"", "\"detail\":\"",
                          "\"value\":"};
  std::size_t at = 0;
  for (const char* field : fields) {
    const std::size_t next = line.find(field, at);
    ASSERT_NE(next, std::string::npos) << field << " missing in: " << line;
    at = next + 1;
  }
  EXPECT_EQ(line.back(), '}') << line;
}

TEST(HealthAcceptance, StuckComparatorRunFiresAlertAndDumpsFlightRing) {
  const device::PhoneModel phone{device::nexus_profile()};
  const auto trace =
      workload::make_video()->generate(util::Seconds{600.0}, 42);

  sim::RunnerOptions options;
  options.seed = 42;
  options.config.max_duration = util::Seconds{1800.0};
  sim::FaultPlanConfig plan;
  plan.seed = 42;
  plan.stuck_rate_per_min = 2.0;
  plan.stuck_min_duration = util::Seconds{20.0};
  plan.stuck_max_duration = util::Seconds{60.0};
  options.faults = plan;
  options.config.telemetry.health.enabled = true;
  options.config.telemetry.recorder.enabled = true;
  const std::string dump_path = "health_acceptance_flight.jsonl";
  options.config.telemetry.recorder.dump_path = dump_path;

  const sim::ExperimentRunner runner{phone, options};
  const auto result = runner.run(trace, sim::PolicyKind::kCapman);

  // The watchdogs saw the fault: at least one alert fired and was
  // surfaced on the SimResult, mirrored by the health/* counters.
  ASSERT_FALSE(result.health_alerts.empty());
  EXPECT_GT(result.health.evaluations, 0u);
  EXPECT_EQ(result.health.total_alerts(), result.health_alerts.size());
  EXPECT_EQ(result.health.total_alerts(),
            result.metrics.counter_or("health/alerts_total"));

  // dump_on_alert (the default) landed at least one dump, headed by a
  // trigger record naming the alert, every line schema-shaped.
  std::ifstream in{dump_path};
  ASSERT_TRUE(in.good());
  std::size_t lines = 0;
  std::size_t triggers = 0;
  for (std::string line; std::getline(in, line);) {
    expect_schema_line(line);
    if (line.find("\"kind\":\"trigger\"") != std::string::npos) {
      ++triggers;
      EXPECT_NE(line.find("\"what\":\"alert:"), std::string::npos) << line;
    }
    ++lines;
  }
  in.close();
  std::remove(dump_path.c_str());
  EXPECT_GT(triggers, 0u);
  EXPECT_GT(lines, triggers);
}

}  // namespace
}  // namespace capman::obs
