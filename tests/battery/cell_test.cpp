#include "battery/cell.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "util/units.h"

namespace capman::battery {

/// Forgets a cell's step-coefficient cache, so its next step recomputes
/// every exp() from scratch.
struct CellTestAccess {
  static void forget_coefficients(Cell& cell) {
    cell.coefficients_ = Cell::StepCoefficients{};
  }
};

namespace {

using util::Seconds;
using util::Watts;

Cell nca_cell() { return Cell{Chemistry::kNCA, 2500.0}; }
Cell lmo_cell() { return Cell{Chemistry::kLMO, 2500.0}; }

TEST(Cell, StartsFull) {
  Cell c = nca_cell();
  EXPECT_NEAR(c.soc(), 1.0, 1e-9);
  EXPECT_NEAR(c.available_fill(), 1.0, 1e-9);
  EXPECT_FALSE(c.exhausted());
}

TEST(Cell, OcvWithinPlausibleWindow) {
  Cell c = nca_cell();
  const double v = c.open_circuit_voltage().value();
  EXPECT_GT(v, 3.5);
  EXPECT_LT(v, 4.4);
}

TEST(Cell, DrawDeliversRequestedEnergy) {
  Cell c = nca_cell();
  const auto r = c.draw(Watts{1.0}, Seconds{1.0});
  EXPECT_FALSE(r.brownout);
  EXPECT_NEAR(r.delivered.value(), 1.0, 1e-9);
  EXPECT_GT(r.losses.value(), 0.0);
  EXPECT_GT(r.current.value(), 0.2);
}

TEST(Cell, SocDecreasesUnderLoad) {
  Cell c = nca_cell();
  const double before = c.soc();
  for (int i = 0; i < 100; ++i) c.draw(Watts{2.0}, Seconds{1.0});
  EXPECT_LT(c.soc(), before);
}

TEST(Cell, ChargeConservationUnderDraw) {
  // Charge drawn from the wells equals current/eta integrated over time.
  Cell c = nca_cell();
  const double q_before =
      c.available_charge().value() + c.bound_charge().value();
  double drawn_c = 0.0;
  for (int i = 0; i < 600; ++i) {
    const auto r = c.draw(Watts{1.5}, Seconds{1.0});
    const double c_rate = r.current.value() / c.capacity_ah();
    drawn_c += r.current.value() /
               delivery_efficiency(c.profile(), c_rate) * 1.0;
  }
  const double q_after =
      c.available_charge().value() + c.bound_charge().value();
  // Allow for self-discharge (tiny over 10 minutes).
  EXPECT_NEAR(q_before - q_after, drawn_c, 0.01 * q_before);
}

TEST(Cell, RestRedistributesIntoAvailableWell) {
  Cell c = nca_cell();
  // Heavy draw to depress the available well.
  for (int i = 0; i < 900; ++i) c.draw(Watts{4.0}, Seconds{1.0});
  const double fill_after_load = c.available_fill();
  ASSERT_LT(fill_after_load, 1.0);
  c.rest(Seconds{600.0});
  // Recovery effect: the available well refills from the bound well.
  EXPECT_GT(c.available_fill(), fill_after_load);
}

TEST(Cell, VoltageDipsUnderLoadAndRecovers) {
  // The V-edge of paper Fig. 3, straight from the equivalent circuit.
  Cell c = nca_cell();
  c.rest(Seconds{1.0});
  const double v_initial = c.open_circuit_voltage().value();
  double v_loaded = v_initial;
  for (int i = 0; i < 50; ++i) {
    v_loaded = c.draw(Watts{3.0}, Seconds{0.1}).terminal_voltage.value();
  }
  EXPECT_LT(v_loaded, v_initial - 0.1);
  c.rest(Seconds{60.0});
  const double v_recovered = c.open_circuit_voltage().value();
  EXPECT_GT(v_recovered, v_loaded);
  EXPECT_LE(v_recovered, v_initial + 1e-9);  // some charge is gone for good
}

TEST(Cell, SurgeOverpotentialDeeperOnBigChemistry) {
  Cell big = nca_cell();
  Cell little = lmo_cell();
  for (int i = 0; i < 30; ++i) {
    big.draw(Watts{3.0}, Seconds{0.1});
    little.draw(Watts{3.0}, Seconds{0.1});
  }
  EXPECT_GT(big.surge_overpotential().value(),
            little.surge_overpotential().value());
}

TEST(Cell, LittleMoreEfficientOnBursts) {
  // Alternate genuine power bursts (5 W, well into the big chemistry's
  // resistive regime but servable by both) with rests; the LITTLE
  // chemistry must waste much less.
  Cell big = nca_cell();
  Cell little = lmo_cell();
  double big_losses = 0.0;
  double little_losses = 0.0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 10; ++i) {
      const auto rb = big.draw(Watts{5.0}, Seconds{0.1});
      const auto rl = little.draw(Watts{5.0}, Seconds{0.1});
      EXPECT_FALSE(rb.brownout);
      EXPECT_FALSE(rl.brownout);
      big_losses += rb.losses.value();
      little_losses += rl.losses.value();
    }
    big.rest(Seconds{5.0});
    little.rest(Seconds{5.0});
  }
  EXPECT_LT(little_losses, 0.7 * big_losses);
}

TEST(Cell, BigCollapsesOnHeavyBurstsLittleServes) {
  // Past ~1C the big chemistry's rail collapses outright while the LITTLE
  // one keeps serving - the serviceability asymmetry the scheduler manages.
  Cell big = nca_cell();
  Cell little = lmo_cell();
  int big_brownouts = 0;
  int little_brownouts = 0;
  for (int i = 0; i < 20; ++i) {
    big_brownouts += big.draw(Watts{9.0}, Seconds{0.1}).brownout ? 1 : 0;
    little_brownouts +=
        little.draw(Watts{9.0}, Seconds{0.1}).brownout ? 1 : 0;
  }
  EXPECT_GT(big_brownouts, 10);
  EXPECT_EQ(little_brownouts, 0);
}

TEST(Cell, DepletesAndReportsExhaustion) {
  Cell c{Chemistry::kNCA, 500.0};  // small cell so the test is fast
  int steps = 0;
  while (!c.exhausted() && steps < 2000000) {
    const auto r = c.draw(Watts{0.5}, Seconds{1.0});
    ++steps;
    if (r.brownout && c.exhausted()) break;
    if (r.brownout) break;  // sustained brownout near empty also ends it
  }
  EXPECT_LT(steps, 2000000);
  EXPECT_LT(c.soc(), 0.5);
}

TEST(Cell, BrownoutOnImpossibleLoad) {
  Cell c{Chemistry::kNCA, 100.0};  // small cell, huge load
  const auto r = c.draw(Watts{500.0}, Seconds{0.1});
  EXPECT_TRUE(r.brownout);
  EXPECT_DOUBLE_EQ(r.delivered.value(), 0.0);
}

TEST(Cell, CanSupplyReflectsLimits) {
  Cell c = nca_cell();
  EXPECT_TRUE(c.can_supply(Watts{1.0}));
  EXPECT_FALSE(c.can_supply(Watts{1000.0}));
  EXPECT_TRUE(c.can_supply(Watts{0.0}));
}

TEST(Cell, CRateLimitEnforced) {
  Cell c = lmo_cell();  // max 10 C on 2.5 Ah -> 25 A -> ~90 W
  EXPECT_TRUE(c.can_supply(Watts{20.0}));
  Cell nca = nca_cell();  // max 2 C -> 5 A -> ~17 W; R0 may bind earlier
  EXPECT_FALSE(nca.can_supply(Watts{40.0}));
}

TEST(Cell, SelfDischargeDrainsAtRest) {
  Cell c = lmo_cell();  // LMO has the highest self-discharge
  const double before = c.soc();
  for (int i = 0; i < 24; ++i) c.rest(Seconds{3600.0});  // one day
  const double after = c.soc();
  EXPECT_LT(after, before);
  EXPECT_NEAR(before - after,
              c.profile().self_discharge_per_day, 0.01);
}

TEST(Cell, RechargeRestoresFullState) {
  Cell c = nca_cell();
  for (int i = 0; i < 100; ++i) c.draw(Watts{2.0}, Seconds{1.0});
  ASSERT_LT(c.soc(), 1.0);
  c.recharge();
  EXPECT_NEAR(c.soc(), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(c.surge_overpotential().value(), 0.0);
}

TEST(Cell, EnergyRemainingDecreasesMonotonically) {
  Cell c = nca_cell();
  double prev = c.energy_remaining().value();
  for (int i = 0; i < 50; ++i) {
    c.draw(Watts{2.0}, Seconds{5.0});
    const double now = c.energy_remaining().value();
    EXPECT_LT(now, prev + 1e-6);
    prev = now;
  }
}

TEST(Cell, HeatEqualsLossRate) {
  Cell c = nca_cell();
  const auto r = c.draw(Watts{2.0}, Seconds{0.5});
  EXPECT_NEAR(r.heat.value() * 0.5, r.losses.value(), 1e-9);
}

// The per-dt coefficient cache is exact: a cell stepped through
// alternating dts matches, bit for bit, a reference that recomputes every
// coefficient on every step, on the rest, load and brownout paths.
TEST(Cell, CoefficientCacheMatchesCacheFreeReferenceBitForBit) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const Chemistry chemistry : {Chemistry::kNCA, Chemistry::kLMO}) {
    Cell cached{chemistry, 900.0};
    Cell reference{chemistry, 900.0};
    const double dts[] = {0.05, 0.25, 5.0};
    const double loads[] = {0.0, 0.8, 3.5, 0.3, 60.0};  // 60 W browns out
    for (int i = 0; i < 3000; ++i) {
      // Each dt runs twice, so the cache both hits and switches.
      const Seconds dt{dts[(i / 2) % 3]};
      const Watts load{loads[i % 5]};
      CellTestAccess::forget_coefficients(reference);
      const Cell::DrawResult a = cached.draw(load, dt);
      const Cell::DrawResult b = reference.draw(load, dt);
      ASSERT_EQ(bits(a.delivered.value()), bits(b.delivered.value())) << i;
      ASSERT_EQ(bits(a.losses.value()), bits(b.losses.value())) << i;
      ASSERT_EQ(bits(a.terminal_voltage.value()),
                bits(b.terminal_voltage.value()))
          << i;
      ASSERT_EQ(bits(a.current.value()), bits(b.current.value())) << i;
      ASSERT_EQ(a.brownout, b.brownout) << i;
      ASSERT_EQ(bits(cached.available_charge().value()),
                bits(reference.available_charge().value()))
          << i;
      ASSERT_EQ(bits(cached.bound_charge().value()),
                bits(reference.bound_charge().value()))
          << i;
      ASSERT_EQ(bits(cached.surge_overpotential().value()),
                bits(reference.surge_overpotential().value()))
          << i;
    }
  }
}

struct RateCase {
  double watts;
};

class SustainedRateTest : public ::testing::TestWithParam<RateCase> {};

// Rate-capacity effect: the higher the sustained power, the less total
// energy the cell delivers before exhaustion.
TEST_P(SustainedRateTest, DeliveredEnergyShrinksWithRate) {
  Cell slow{Chemistry::kNCA, 300.0};
  Cell fast{Chemistry::kNCA, 300.0};
  const double base_w = GetParam().watts;
  auto run = [](Cell& cell, double watts) {
    double delivered = 0.0;
    for (int i = 0; i < 2000000; ++i) {
      const auto r = cell.draw(Watts{watts}, Seconds{1.0});
      if (r.brownout || cell.exhausted()) break;
      delivered += r.delivered.value();
    }
    return delivered;
  };
  const double slow_energy = run(slow, base_w);
  const double fast_energy = run(fast, 3.0 * base_w);
  EXPECT_GT(slow_energy, fast_energy);
}

INSTANTIATE_TEST_SUITE_P(Rates, SustainedRateTest,
                         ::testing::Values(RateCase{0.2}, RateCase{0.4},
                                           RateCase{0.6}));

}  // namespace
}  // namespace capman::battery
