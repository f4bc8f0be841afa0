// PowerBudgetArbiter: config validation (field-named messages), budget
// derivation from battery/thermal headroom, corecap-row selection, grant
// monotonicity in the budget, cap methods, and the zero-headroom /
// single-consumer edge cases.
#include "core/power_budget.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "config_error_message.h"
#include "device/phone.h"
#include "thermal/tec_consumer.h"

namespace capman::core {
namespace {

// -------------------------------------------------------- validation ---

void expect_single_error(const PowerBudgetArbiterConfig& config,
                         const std::string& expected) {
  const auto errors = config.validate();
  ASSERT_EQ(errors.size(), 1u) << "for message: " << expected;
  EXPECT_EQ(errors.front(), expected);
}

TEST(PowerBudgetArbiterConfig, DefaultsValidate) {
  EXPECT_TRUE(PowerBudgetArbiterConfig{}.validate().empty());
}

TEST(PowerBudgetArbiterConfig, EveryFieldHasANamedMessage) {
  PowerBudgetArbiterConfig config;
  config.base_budget_mw = util::Milliwatts{0.0};
  config.min_budget_mw =
      util::Milliwatts{-1.0};  // keep <= base so only its own rule fires
  {
    const auto errors = config.validate();
    ASSERT_EQ(errors.size(), 2u);
    EXPECT_EQ(errors[0], "base_budget_mw must be > 0");
    EXPECT_EQ(errors[1], "min_budget_mw must be > 0 and <= base_budget_mw");
  }
  config = {};
  config.min_budget_mw = config.base_budget_mw + util::Milliwatts{1.0};
  expect_single_error(config,
                      "min_budget_mw must be > 0 and <= base_budget_mw");
  config = {};
  config.soc_floor = -0.1;  // keeps the knee rule satisfied
  expect_single_error(config, "soc_floor must be in [0, 1)");
  config = {};
  config.soc_knee = config.soc_floor;
  expect_single_error(config, "soc_knee must be in (soc_floor, 1]");
  config = {};
  config.rail_min_v = 0.0;
  expect_single_error(config, "rail_min_v must be > 0");
  config = {};
  config.nominal_v = config.rail_min_v;
  expect_single_error(config, "nominal_v must be > rail_min_v");
  config = {};
  config.rebudget_trigger_v = config.rail_min_v - 0.1;
  expect_single_error(config, "rebudget_trigger_v must be >= rail_min_v");
  config = {};
  config.min_rebudget_gap_s = 0.0;
  expect_single_error(config, "min_rebudget_gap_s must be > 0");
  config = {};
  config.supercap_margin_fill = 0.0;
  expect_single_error(config, "supercap_margin_fill must be in (0, 1]");
  config = {};
  config.skin_soft_c = config.skin_hard_c;
  expect_single_error(config, "skin_soft_c must be < skin_hard_c");
  config = {};
  config.cell_soft_c = config.cell_hard_c;
  expect_single_error(config, "cell_soft_c must be < cell_hard_c");
  config = {};
  config.static_margin = 0.0;
  expect_single_error(config, "static_margin must be in (0, 1]");
  config = {};
  config.cooling_priority_hotspot_c = 0.0;
  expect_single_error(config, "cooling_priority_hotspot_c must be > 0");
  config = {};
  config.level_fraction = {util::Ratio{0.6}, util::Ratio{0.8},
                           util::Ratio{1.0}};  // increasing: invalid
  expect_single_error(
      config, "level_fraction values must be in (0, 1] and non-increasing");
}

TEST(PowerBudgetArbiterConfig, CorecapTableRules) {
  PowerBudgetArbiterConfig config;
  config.corecaps.clear();
  expect_single_error(config, "corecaps must not be empty");

  config = {};
  config.corecaps[1].budget_mw = config.corecaps[0].budget_mw;
  {
    // The flattened row also makes both of row 1's splits overflow it.
    const auto errors = config.validate();
    ASSERT_EQ(errors.size(), 3u);
    EXPECT_EQ(errors[0],
              "corecaps[1].budget_mw must be > 0 and strictly increasing");
    EXPECT_EQ(errors[1],
              "corecaps[1].cpu_priority caps must sum to <= budget_mw");
    EXPECT_EQ(errors[2],
              "corecaps[1].cooling_priority caps must sum to <= budget_mw");
  }

  config = {};
  config.corecaps[0].cpu_priority.cpu_mw = util::Milliwatts{-1.0};
  expect_single_error(config,
                      "corecaps[0].cpu_priority caps must be >= 0");

  config = {};  // last row: no later row to trip the monotonicity rule
  config.corecaps[5].cooling_priority.tec_mw = config.corecaps[5].budget_mw;
  expect_single_error(
      config, "corecaps[5].cooling_priority caps must sum to <= budget_mw");

  config = {};
  config.corecaps[3].cpu_priority = config.corecaps[1].cpu_priority;
  {
    const auto errors = config.validate();
    // The dip breaks monotonicity at row 3 and (vs row 3) at row 4.
    ASSERT_FALSE(errors.empty());
    EXPECT_EQ(errors.front(),
              "corecaps[3].cpu_priority caps must be non-decreasing across "
              "rows");
  }
}

TEST(PowerBudgetArbiter, ConstructorThrowsListingEveryError) {
  PowerBudgetArbiterConfig config;
  config.base_budget_mw = util::Milliwatts{0.0};
  config.static_margin = 2.0;
  try {
    PowerBudgetArbiter arbiter{config};
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("base_budget_mw must be > 0"), std::string::npos);
    EXPECT_NE(what.find("static_margin must be in (0, 1]"),
              std::string::npos);
    EXPECT_EQ(what, expected_config_message("PowerBudgetArbiterConfig",
                                            config.validate()));
  }
}

// -------------------------------------------------------- derivation ---

BudgetInputs healthy_inputs() {
  BudgetInputs in;
  in.big_soc = 1.0;
  in.little_soc = 1.0;
  in.active = battery::BatterySelection::kBig;
  in.rail_v = 3.9;
  in.supercap_fill = 1.0;
  in.skin_c = 26.0;
  in.cell_c = 26.0;
  in.hotspot_c = 26.0;
  return in;
}

TEST(PowerBudgetArbiter, FullHeadroomYieldsBaseBudget) {
  const PowerBudgetArbiter arbiter{PowerBudgetArbiterConfig{}};
  EXPECT_DOUBLE_EQ(arbiter.derive_budget_mw(healthy_inputs()).raw(),
                   arbiter.config().base_budget_mw.raw());
}

TEST(PowerBudgetArbiter, TightestConstraintRules) {
  const PowerBudgetArbiter arbiter{PowerBudgetArbiterConfig{}};
  const auto& config = arbiter.config();

  // Active-cell SoC at the floor zeroes the headroom regardless of the
  // other (healthy) factors; the floor keeps the budget alive.
  BudgetInputs in = healthy_inputs();
  in.big_soc = config.soc_floor;
  EXPECT_DOUBLE_EQ(arbiter.derive_budget_mw(in).raw(),
                   config.min_budget_mw.raw());

  // ... but only the *active* cell's SoC matters.
  in.active = battery::BatterySelection::kLittle;
  EXPECT_DOUBLE_EQ(arbiter.derive_budget_mw(in).raw(),
                   config.base_budget_mw.raw());

  // Skin at the hard limit also floors the budget.
  in = healthy_inputs();
  in.skin_c = config.skin_hard_c;
  EXPECT_DOUBLE_EQ(arbiter.derive_budget_mw(in).raw(),
                   config.min_budget_mw.raw());

  // Halfway between soft and hard derates to half the base.
  in.skin_c = (config.skin_soft_c + config.skin_hard_c) / 2.0;
  EXPECT_NEAR(arbiter.derive_budget_mw(in).raw(),
              config.base_budget_mw.raw() / 2.0, 1e-9);
}

TEST(PowerBudgetArbiter, StaticMethodIgnoresRailVoltage) {
  PowerBudgetArbiterConfig relax;
  relax.cap_method = CapMethod::kRelax;
  PowerBudgetArbiterConfig fixed = relax;
  fixed.cap_method = CapMethod::kStatic;
  const PowerBudgetArbiter relax_arbiter{relax};
  const PowerBudgetArbiter static_arbiter{fixed};

  BudgetInputs sag = healthy_inputs();
  sag.rail_v = (relax.rail_min_v + relax.nominal_v) / 2.0;
  EXPECT_LT(relax_arbiter.derive_budget_mw(sag).raw(),
            relax.base_budget_mw.raw());  // relax sees the sag
  EXPECT_DOUBLE_EQ(static_arbiter.derive_budget_mw(sag).raw(),
                   fixed.base_budget_mw.raw());  // static cannot read the rail
}

// ------------------------------------------------------------ grants ---

/// The full consumer rig the engine wires up, built on the Nexus models.
struct Rig {
  Rig()
      : phone(device::nexus_profile()),
        cpu(phone.cpu()),
        screen(phone.screen()),
        wifi(phone.wifi()),
        tec(tec_model) {}

  device::PhoneModel phone;
  thermal::Tec tec_model;
  device::CpuPowerConsumer cpu;
  device::ScreenPowerConsumer screen;
  device::WifiPowerConsumer wifi;
  thermal::TecPowerConsumer tec;
  std::array<device::PowerConsumer*, device::kConsumerKindCount> consumers{
      &cpu, &screen, &wifi, &tec};
};

TEST(PowerBudgetArbiter, GrantsAreMonotoneInTheBudget) {
  double previous = -1.0;
  // Ascending base budgets sweep across every corecap row boundary.
  for (double base : {600.0, 1000.0, 1400.0, 1800.0, 2300.0, 2800.0, 3200.0,
                      3600.0, 4000.0, 4400.0, 4900.0, 5400.0}) {
    PowerBudgetArbiterConfig config;
    config.base_budget_mw = util::Milliwatts{base};
    config.min_budget_mw = util::Milliwatts{std::min(900.0, base)};
    Rig rig;
    PowerBudgetArbiter arbiter{config};
    const BudgetGrant grant =
        arbiter.rebudget(healthy_inputs(), BudgetLevel::kFull, rig.consumers);
    EXPECT_GE(grant.granted_mw.raw(), previous) << "base " << base;
    EXPECT_DOUBLE_EQ(grant.effective_mw.raw(), base);
    previous = grant.granted_mw.raw();
  }
}

TEST(PowerBudgetArbiter, GrantFitsEffectiveBudgetAboveTheFloors) {
  Rig rig;
  PowerBudgetArbiter arbiter{PowerBudgetArbiterConfig{}};
  const BudgetGrant grant =
      arbiter.rebudget(healthy_inputs(), BudgetLevel::kFull, rig.consumers);
  EXPECT_LE(grant.granted_mw.raw(), grant.effective_mw.raw() + 1e-9);
  EXPECT_GT(grant.granted_mw.raw(), 0.0);
  for (std::size_t kind = 0; kind < device::kConsumerKindCount; ++kind) {
    EXPECT_GE(grant.by_kind[kind].raw(), 0.0);
  }
}

TEST(PowerBudgetArbiter, ZeroHeadroomGrantsTheFloors) {
  PowerBudgetArbiterConfig config;
  config.min_budget_mw =
      util::Milliwatts{1.0};  // the trim has nothing to work with
  Rig rig;
  PowerBudgetArbiter arbiter{config};
  BudgetInputs in = healthy_inputs();
  in.skin_c = config.skin_hard_c + 5.0;
  const BudgetGrant grant =
      arbiter.rebudget(in, BudgetLevel::kEco, rig.consumers);
  // Every consumer is pinned at its capability floor; the grant honestly
  // reports more than the (unachievable) effective budget.
  EXPECT_DOUBLE_EQ(
      grant.by_kind[static_cast<std::size_t>(device::ConsumerKind::kCpu)]
          .raw(),
      rig.cpu.capability().min_draw_mw.raw());
  EXPECT_DOUBLE_EQ(
      grant.by_kind[static_cast<std::size_t>(device::ConsumerKind::kScreen)]
          .raw(),
      rig.screen.capability().min_draw_mw.raw());
  EXPECT_DOUBLE_EQ(
      grant.by_kind[static_cast<std::size_t>(device::ConsumerKind::kWifi)]
          .raw(),
      rig.wifi.capability().min_draw_mw.raw());
  EXPECT_DOUBLE_EQ(
      grant.by_kind[static_cast<std::size_t>(device::ConsumerKind::kTec)]
          .raw(),
      0.0);
  EXPECT_GT(grant.granted_mw.raw(), grant.effective_mw.raw());
  EXPECT_FALSE(rig.tec.allows_on());
}

TEST(PowerBudgetArbiter, SingleConsumerSpanLeavesOthersAlone) {
  Rig rig;
  PowerBudgetArbiter arbiter{PowerBudgetArbiterConfig{}};
  const double wifi_before = rig.wifi.granted_mw().raw();
  std::array<device::PowerConsumer*, 1> only_cpu{&rig.cpu};
  const BudgetGrant grant =
      arbiter.rebudget(healthy_inputs(), BudgetLevel::kFull, only_cpu);
  EXPECT_GT(grant.granted_mw.raw(), 0.0);
  EXPECT_DOUBLE_EQ(
      grant.granted_mw.raw(),
      grant.by_kind[static_cast<std::size_t>(device::ConsumerKind::kCpu)]
          .raw());
  // Consumers outside the span keep their previous caps.
  EXPECT_DOUBLE_EQ(rig.wifi.granted_mw().raw(), wifi_before);
}

TEST(PowerBudgetArbiter, LevelFractionsScaleTheGrant) {
  const PowerBudgetArbiterConfig config;
  std::array<double, kBudgetLevelCount> effective{};
  for (std::size_t level = 0; level < kBudgetLevelCount; ++level) {
    Rig rig;
    PowerBudgetArbiter arbiter{config};
    const BudgetGrant grant = arbiter.rebudget(
        healthy_inputs(), static_cast<BudgetLevel>(level), rig.consumers);
    effective[level] = grant.effective_mw.raw();
    EXPECT_DOUBLE_EQ(
        grant.effective_mw.raw(),
        (config.base_budget_mw * config.level_fraction[level]).raw());
  }
  EXPECT_GT(effective[0], effective[1]);
  EXPECT_GT(effective[1], effective[2]);
}

TEST(PowerBudgetArbiter, StaticMarginShavesEveryBudget) {
  PowerBudgetArbiterConfig config;
  config.cap_method = CapMethod::kStatic;
  Rig rig;
  PowerBudgetArbiter arbiter{config};
  const BudgetGrant grant =
      arbiter.rebudget(healthy_inputs(), BudgetLevel::kFull, rig.consumers);
  EXPECT_DOUBLE_EQ(grant.effective_mw.raw(),
                   config.base_budget_mw.raw() * config.static_margin);
}

TEST(PowerBudgetArbiter, CoolingPriorityFundsTheTec) {
  Rig rig;
  PowerBudgetArbiter arbiter{PowerBudgetArbiterConfig{}};
  BudgetInputs hot = healthy_inputs();
  hot.hotspot_c = arbiter.config().cooling_priority_hotspot_c + 2.0;
  const BudgetGrant grant =
      arbiter.rebudget(hot, BudgetLevel::kFull, rig.consumers);
  EXPECT_TRUE(grant.cooling_priority);
  // The cooling-priority split funds the TEC's full reference draw, so
  // the engine will let the cooler run.
  EXPECT_TRUE(rig.tec.allows_on());

  // Back below the threshold the CPU-priority split starves the TEC.
  const BudgetGrant cool =
      arbiter.rebudget(healthy_inputs(), BudgetLevel::kFull, rig.consumers);
  EXPECT_FALSE(cool.cooling_priority);
  EXPECT_LT(
      cool.by_kind[static_cast<std::size_t>(device::ConsumerKind::kTec)]
          .raw(),
      grant.by_kind[static_cast<std::size_t>(device::ConsumerKind::kTec)]
          .raw());
  EXPECT_FALSE(rig.tec.allows_on());
}

TEST(PowerBudgetArbiter, CountersTrackRebudgets) {
  Rig rig;
  PowerBudgetArbiter arbiter{PowerBudgetArbiterConfig{}};
  EXPECT_EQ(arbiter.rebudget_count(), 0u);
  arbiter.rebudget(healthy_inputs(), BudgetLevel::kFull, rig.consumers);
  arbiter.note_voltage_trigger();
  arbiter.rebudget(healthy_inputs(), BudgetLevel::kEco, rig.consumers);
  EXPECT_EQ(arbiter.rebudget_count(), 2u);
  EXPECT_EQ(arbiter.voltage_trigger_count(), 1u);
  EXPECT_EQ(arbiter.last_grant().level, BudgetLevel::kEco);
}

TEST(CapMethodNames, RoundTrip) {
  EXPECT_STREQ(to_string(CapMethod::kRelax), "relax");
  EXPECT_STREQ(to_string(CapMethod::kStatic), "static");
}

}  // namespace
}  // namespace capman::core
