// Property sweeps over the whole chemistry catalogue: conservation laws and
// monotonicity invariants the cell model must satisfy for every chemistry,
// capacity and load level.
#include <gtest/gtest.h>

#include <tuple>

#include "battery/cell.h"
#include "util/rng.h"

namespace capman::battery {
namespace {

using util::Seconds;
using util::Watts;

class ChemistrySweep : public ::testing::TestWithParam<Chemistry> {};

TEST_P(ChemistrySweep, ChargeNeverCreatedByDrawRestCycles) {
  util::Rng rng{static_cast<std::uint64_t>(GetParam()) + 99};
  Cell cell{GetParam(), 1500.0};
  double initial =
      cell.available_charge().value() + cell.bound_charge().value();
  for (int i = 0; i < 200; ++i) {
    if (rng.chance(0.6)) {
      cell.draw(Watts{rng.uniform(0.1, 2.0)}, Seconds{rng.uniform(0.1, 5.0)});
    } else {
      cell.rest(Seconds{rng.uniform(0.1, 30.0)});
    }
    const double now =
        cell.available_charge().value() + cell.bound_charge().value();
    EXPECT_LE(now, initial + 1e-6);
    initial = std::min(initial, now + 1e-6);
  }
}

TEST_P(ChemistrySweep, RestNeverChangesTotalChargeExceptSelfDischarge) {
  Cell cell{GetParam(), 1000.0};
  cell.draw(Watts{1.0}, Seconds{600.0});
  const double before =
      cell.available_charge().value() + cell.bound_charge().value();
  cell.rest(Seconds{3600.0});
  const double after =
      cell.available_charge().value() + cell.bound_charge().value();
  const double max_leak =
      before * cell.profile().self_discharge_per_day / 24.0 * 1.5;
  EXPECT_LE(before - after, max_leak + 1e-9);
  EXPECT_GE(before - after, -1e-9);
}

TEST_P(ChemistrySweep, OcvMonotoneInFill) {
  Cell cell{GetParam(), 1000.0};
  double prev_v = cell.open_circuit_voltage().value() + 1e-9;
  int guard = 0;
  while (!cell.exhausted() && guard++ < 100000) {
    const auto r = cell.draw(Watts{0.5}, Seconds{10.0});
    if (r.brownout) break;
    const double v = cell.open_circuit_voltage().value();
    EXPECT_LE(v, prev_v + 1e-6);
    prev_v = v;
  }
}

TEST_P(ChemistrySweep, TerminalNeverExceedsOpenCircuit) {
  Cell cell{GetParam(), 1000.0};
  for (double w : {0.2, 0.5, 1.0, 2.0}) {
    const auto r = cell.draw(Watts{w}, Seconds{0.5});
    if (!r.brownout) {
      EXPECT_LT(r.terminal_voltage.value(),
                cell.open_circuit_voltage().value() + 1e-9);
    }
  }
}

TEST_P(ChemistrySweep, LossesAlwaysNonNegative) {
  util::Rng rng{static_cast<std::uint64_t>(GetParam()) * 31 + 5};
  Cell cell{GetParam(), 800.0};
  for (int i = 0; i < 300; ++i) {
    const auto r =
        cell.draw(Watts{rng.uniform(0.0, 3.0)}, Seconds{rng.uniform(0.05, 2.0)});
    EXPECT_GE(r.losses.value(), 0.0);
    EXPECT_GE(r.delivered.value(), 0.0);
  }
}

TEST_P(ChemistrySweep, DeliveredEnergyBoundedByChemicalBudget) {
  Cell cell{GetParam(), 300.0};
  const double budget = cell.energy_remaining().value();
  double delivered = 0.0;
  int guard = 0;
  while (!cell.exhausted() && guard++ < 300000) {
    const auto r = cell.draw(Watts{0.4}, Seconds{2.0});
    if (r.brownout) break;
    delivered += r.delivered.value();
  }
  EXPECT_LT(delivered, budget * 1.1);
  EXPECT_GT(delivered, 0.25 * budget);  // LCO strands heavily by design
}

INSTANTIATE_TEST_SUITE_P(AllChemistries, ChemistrySweep,
                         ::testing::ValuesIn(all_chemistries()),
                         [](const auto& param_info) {
                           return std::string{to_string(param_info.param)};
                         });

struct LoadCase {
  double watts;
  double dt;
};

class TimestepInvariance
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

// Drawing the same power with different step sizes must agree on the
// energy accounting (the closed-form KiBaM update is exact for constant
// current, so only the current re-solve rate differs).
TEST_P(TimestepInvariance, CoarseAndFineStepsAgree) {
  const double watts = std::get<0>(GetParam());
  const double fine_dt = std::get<1>(GetParam());
  Cell coarse{Chemistry::kNCA, 1000.0};
  Cell fine{Chemistry::kNCA, 1000.0};
  const double horizon = 600.0;
  for (double t = 0.0; t < horizon; t += 10.0) {
    coarse.draw(Watts{watts}, Seconds{10.0});
  }
  for (double t = 0.0; t < horizon; t += fine_dt) {
    fine.draw(Watts{watts}, Seconds{fine_dt});
  }
  EXPECT_NEAR(coarse.soc(), fine.soc(), 0.01);
  EXPECT_NEAR(coarse.available_fill(), fine.available_fill(), 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TimestepInvariance,
    ::testing::Combine(::testing::Values(0.3, 0.8, 1.5),
                       ::testing::Values(0.05, 0.5, 2.0)));

}  // namespace
}  // namespace capman::battery
