#include "battery/pack.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace capman::battery {

/// Forgets a pack's cached baseline alpha, so its next step recomputes it.
struct PackTestAccess {
  static void forget_baseline_alpha(DualBatteryPack& pack) {
    pack.baseline_dt_bits_ = 0;
    pack.baseline_alpha_ = 0.0;
  }
};

namespace {

using util::Seconds;
using util::Watts;

TEST(SinglePack, DeliversAndDepletes) {
  SingleBatteryPack pack{Chemistry::kLCO, 500.0};
  const auto r = pack.step(Watts{0.5}, Seconds{1.0}, Seconds{0.0});
  EXPECT_TRUE(r.demand_met);
  EXPECT_NEAR(r.delivered.value(), 0.5, 1e-9);
  EXPECT_EQ(pack.switch_count(), 0u);
  EXPECT_EQ(pack.little_soc(), 0.0);
}

TEST(SinglePack, RequestIsNoOp) {
  SingleBatteryPack pack{Chemistry::kLCO, 100.0};
  pack.request(BatterySelection::kLittle, Seconds{0.0});
  EXPECT_EQ(pack.active(), BatterySelection::kBig);
}

TEST(SinglePack, ActivationTimeAccumulates) {
  SingleBatteryPack pack{Chemistry::kLCO, 2500.0};
  for (int i = 0; i < 10; ++i) {
    pack.step(Watts{1.0}, Seconds{0.5}, Seconds{i * 0.5});
  }
  EXPECT_NEAR(pack.activation_time(BatterySelection::kBig).value(), 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(pack.activation_time(BatterySelection::kLittle).value(),
                   0.0);
}

DualPackConfig small_pack_config() {
  DualPackConfig cfg;
  cfg.big_capacity_mah = 400.0;
  cfg.little_capacity_mah = 150.0;
  return cfg;
}

TEST(DualPack, StartsOnBig) {
  DualBatteryPack pack{small_pack_config()};
  EXPECT_EQ(pack.active(), BatterySelection::kBig);
  EXPECT_NEAR(pack.soc(), 1.0, 1e-9);
}

TEST(DualPack, SwitchTakesEffectAfterLatency) {
  DualBatteryPack pack{small_pack_config()};
  pack.request(BatterySelection::kLittle, Seconds{0.0});
  // Before the latency elapses the big cell still carries the load.
  auto r = pack.step(Watts{1.0}, Seconds{0.0005}, Seconds{0.0005});
  EXPECT_EQ(r.supplied_by, BatterySelection::kBig);
  r = pack.step(Watts{1.0}, Seconds{0.01}, Seconds{0.02});
  EXPECT_EQ(r.supplied_by, BatterySelection::kLittle);
  EXPECT_EQ(pack.switch_count(), 1u);
}

TEST(DualPack, SwitchCostsEnergy) {
  DualBatteryPack pack{small_pack_config()};
  pack.request(BatterySelection::kLittle, Seconds{0.0});
  const auto r = pack.step(Watts{0.5}, Seconds{0.1}, Seconds{0.1});
  // The completed switch charges its loss into this step.
  EXPECT_GT(r.losses.value(),
            pack.switch_facility().total_switch_loss().value() * 0.5);
  EXPECT_EQ(pack.switch_count(), 1u);
}

TEST(DualPack, RedundantRequestDoesNotSwitch) {
  DualBatteryPack pack{small_pack_config()};
  pack.request(BatterySelection::kBig, Seconds{0.0});
  pack.step(Watts{0.5}, Seconds{0.1}, Seconds{0.1});
  EXPECT_EQ(pack.switch_count(), 0u);
}

TEST(DualPack, TracksPerCellActivationTime) {
  DualBatteryPack pack{small_pack_config()};
  pack.step(Watts{1.0}, Seconds{1.0}, Seconds{1.0});
  pack.request(BatterySelection::kLittle, Seconds{1.0});
  for (int i = 0; i < 3; ++i) {
    pack.step(Watts{1.0}, Seconds{1.0}, Seconds{2.0 + i});
  }
  EXPECT_NEAR(pack.activation_time(BatterySelection::kBig).value(), 1.0, 1e-9);
  EXPECT_NEAR(pack.activation_time(BatterySelection::kLittle).value(), 3.0,
              1e-9);
}

TEST(DualPack, NoSilentFallbackOnBrownout) {
  // There is no autonomous mid-interval fallback: a load beyond the active
  // cell's capability is a brownout until the scheduler requests a switch.
  DualPackConfig cfg = small_pack_config();
  DualBatteryPack pack{cfg};
  // 400 mAh NCA is limited to 2 C; ~3 W is beyond it.
  const auto r = pack.step(Watts{3.0}, Seconds{0.1}, Seconds{0.0});
  EXPECT_FALSE(r.demand_met);
  EXPECT_EQ(r.supplied_by, BatterySelection::kBig);
  EXPECT_EQ(pack.switch_count(), 0u);
}

TEST(DualPack, RequestValidationRefusesUnserviceableCell) {
  // The comparator will not latch onto a rail that cannot carry the
  // present load: a request for the big cell under a 3 W draw (beyond the
  // 400 mAh NCA) is ignored while LITTLE carries it.
  DualPackConfig cfg = small_pack_config();
  DualBatteryPack pack{cfg};
  pack.request(BatterySelection::kLittle, Seconds{0.0});
  pack.step(Watts{3.0}, Seconds{0.1}, Seconds{0.1});
  ASSERT_EQ(pack.active(), BatterySelection::kLittle);
  // Now ask for big while the 3 W load persists: refused.
  pack.request(BatterySelection::kBig, Seconds{0.2});
  pack.step(Watts{3.0}, Seconds{0.1}, Seconds{0.3});
  EXPECT_EQ(pack.active(), BatterySelection::kLittle);
  // Under a light load the same request is honored.
  pack.step(Watts{0.3}, Seconds{0.1}, Seconds{0.4});
  pack.request(BatterySelection::kBig, Seconds{0.5});
  pack.step(Watts{0.3}, Seconds{0.1}, Seconds{0.6});
  EXPECT_EQ(pack.active(), BatterySelection::kBig);
}

TEST(DualPack, ExhaustedOnlyWhenBothCellsAre) {
  DualPackConfig cfg;
  cfg.big_capacity_mah = 20.0;
  cfg.little_capacity_mah = 20.0;
  DualBatteryPack pack{cfg};
  double t = 0.0;
  int guard = 0;
  while (!pack.exhausted() && guard++ < 100000) {
    const auto r = pack.step(Watts{0.4}, Seconds{1.0}, Seconds{t});
    t += 1.0;
    if (!r.demand_met && pack.exhausted()) break;
    if (!r.demand_met) break;  // persistent brownout before exhaustion
  }
  // One of the two exit conditions must have fired before the guard.
  EXPECT_LT(guard, 100000);
}

TEST(DualPack, CombinedSocIsCapacityWeighted) {
  DualPackConfig cfg;
  cfg.big_capacity_mah = 300.0;
  cfg.little_capacity_mah = 100.0;
  DualBatteryPack pack{cfg};
  // Drain only the little cell for a while.
  pack.request(BatterySelection::kLittle, Seconds{0.0});
  for (int i = 0; i < 120; ++i) {
    pack.step(Watts{1.0}, Seconds{1.0}, Seconds{0.1 + i});
  }
  const double expected = (pack.big_soc() * 300.0 + pack.little_soc() * 100.0) /
                          400.0;
  EXPECT_NEAR(pack.soc(), expected, 1e-9);
  EXPECT_LT(pack.little_soc(), pack.big_soc());
}

TEST(DualPack, RechargeRestoresBothCells) {
  DualBatteryPack pack{small_pack_config()};
  for (int i = 0; i < 50; ++i) {
    pack.step(Watts{1.0}, Seconds{1.0}, Seconds{static_cast<double>(i)});
  }
  ASSERT_LT(pack.soc(), 1.0);
  pack.recharge();
  EXPECT_NEAR(pack.soc(), 1.0, 1e-9);
}

TEST(DualPack, RestStepIsHarmless) {
  DualBatteryPack pack{small_pack_config()};
  const auto r = pack.step(Watts{0.0}, Seconds{1.0}, Seconds{0.0});
  EXPECT_TRUE(r.demand_met);
  EXPECT_DOUBLE_EQ(r.delivered.value(), 0.0);
}

TEST(DualPack, EnergyRemainingSumsBothCells) {
  DualBatteryPack pack{small_pack_config()};
  const double total = pack.energy_remaining().value();
  const double parts = pack.big_cell().energy_remaining().value() +
                       pack.little_cell().energy_remaining().value();
  EXPECT_NEAR(total, parts, 1e-9);
}

// The supercap baseline's per-dt alpha is cached exactly: on the LITTLE
// rail, where the baseline shapes every draw, a pack stepped through
// alternating dts matches, bit for bit, one that recomputes it every step.
TEST(DualPack, BaselineAlphaCacheMatchesCacheFreeReferenceBitForBit) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  DualBatteryPack cached;
  DualBatteryPack reference;
  cached.request(BatterySelection::kLittle, Seconds{0.0});
  reference.request(BatterySelection::kLittle, Seconds{0.0});
  const double dts[] = {0.05, 0.25, 5.0};
  const double loads[] = {0.3, 2.5, 0.8, 4.0};
  double now = 0.0;
  for (int i = 0; i < 1500; ++i) {
    // Each dt runs twice, so the cache both hits and switches.
    const Seconds dt{dts[(i / 2) % 3]};
    now += dt.value();
    PackTestAccess::forget_baseline_alpha(reference);
    const PackStepResult a = cached.step(Watts{loads[i % 4]}, dt, Seconds{now});
    const PackStepResult b =
        reference.step(Watts{loads[i % 4]}, dt, Seconds{now});
    ASSERT_EQ(bits(a.delivered.value()), bits(b.delivered.value())) << i;
    ASSERT_EQ(bits(a.losses.value()), bits(b.losses.value())) << i;
    ASSERT_EQ(bits(a.rail_voltage.value()), bits(b.rail_voltage.value()))
        << i;
    ASSERT_EQ(a.supplied_by, b.supplied_by) << i;
    ASSERT_EQ(bits(cached.little_soc()), bits(reference.little_soc())) << i;
  }
  EXPECT_EQ(cached.active(), BatterySelection::kLittle);
}

}  // namespace
}  // namespace capman::battery
