#include "thermal/tec.h"

#include <gtest/gtest.h>

#include "config_error_message.h"
#include "thermal/controller.h"
#include "thermal/phone_thermal.h"

namespace capman::thermal {
namespace {

using util::Amperes;
using util::Celsius;
using util::Seconds;
using util::Watts;

TEST(Tec, ZeroCurrentOnlyConducts) {
  Tec tec;
  const auto q = tec.heat_pumped(Celsius{30.0}, Celsius{40.0}, Amperes{0.0});
  // Pure conduction from hot to cold: negative pumping.
  EXPECT_NEAR(q.value(), -tec.params().conductance_w_per_k * 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(
      tec.electric_power(Celsius{30.0}, Celsius{40.0}, Amperes{0.0}).value(),
      0.0);
}

TEST(Tec, PumpsHeatAtRatedCurrent) {
  Tec tec;
  const auto q = tec.heat_pumped(Celsius{45.0}, Celsius{45.0},
                                 tec.params().rated_current);
  EXPECT_GT(q.value(), 0.0);
}

TEST(Tec, ElectricPowerIncludesJouleAndSeebeckTerms) {
  Tec tec;
  const double i = 1.0;
  const double dt = 10.0;
  const auto p = tec.electric_power(Celsius{30.0}, Celsius{40.0}, Amperes{i});
  EXPECT_NEAR(p.value(),
              tec.params().seebeck_v_per_k * i * dt +
                  i * i * tec.params().resistance.value(),
              1e-12);
}

TEST(Tec, HeatRejectedIsPumpedPlusElectric) {
  Tec tec;
  const Celsius cold{35.0};
  const Celsius hot{42.0};
  const Amperes i{0.8};
  EXPECT_NEAR(tec.heat_rejected(cold, hot, i).value(),
              tec.heat_pumped(cold, hot, i).value() +
                  tec.electric_power(cold, hot, i).value(),
              1e-12);
}

TEST(Tec, OptimalCurrentMatchesAnalyticForm) {
  Tec tec;
  const Celsius cold{26.85};  // 300 K
  const double expected = tec.params().seebeck_v_per_k * 300.0 /
                          tec.params().resistance.value();
  EXPECT_NEAR(tec.optimal_current(cold).value(), expected, 1e-12);
  // Default parameters are tuned so the rated current ~ 1.0 A (paper Fig. 6
  // peaks near 1.0 A).
  EXPECT_NEAR(expected, 1.0, 0.05);
}

TEST(Tec, DeltaTCurveIsUnimodalWithInteriorMaximum) {
  // Reproduces the shape of paper Fig. 6 (bottom).
  Tec tec;
  const Celsius cold{25.0};
  double best_dt = -1e9;
  double best_i = 0.0;
  double prev = -1e9;
  bool increased = false;
  bool decreased_after_peak = false;
  for (double i = 0.0; i <= 2.2; i += 0.05) {
    const double dt = tec.max_delta_t(cold, Amperes{i}).value();
    if (dt > best_dt) {
      best_dt = dt;
      best_i = i;
    }
    if (dt > prev + 1e-12 && prev != -1e9) increased = true;
    if (dt < prev - 1e-12 && i > best_i) decreased_after_peak = true;
    prev = dt;
  }
  EXPECT_TRUE(increased);
  EXPECT_TRUE(decreased_after_peak);
  EXPECT_NEAR(best_i, tec.optimal_current(cold).value(), 0.06);
  EXPECT_GT(best_dt, 0.0);
}

TEST(Tec, OnOffActuation) {
  Tec tec;
  EXPECT_FALSE(tec.is_on());
  EXPECT_DOUBLE_EQ(tec.operating_current().value(), 0.0);
  tec.turn_on();
  EXPECT_TRUE(tec.is_on());
  EXPECT_DOUBLE_EQ(tec.operating_current().value(),
                   tec.params().rated_current.value());
  tec.turn_off();
  EXPECT_FALSE(tec.is_on());
}

TEST(CoolingController, TurnsOnAboveThresholdOffBelowHysteresis) {
  PhoneThermal phone;
  CoolingController ctrl;
  // Force the hot spot above 45 C.
  while (phone.cpu_temperature().value() < 46.0) {
    phone.step(Watts{3.0}, Watts{0.5}, Watts{1.0}, Seconds{5.0});
  }
  EXPECT_TRUE(ctrl.update(phone));
  EXPECT_EQ(ctrl.activation_count(), 1u);
  // Cool the phone well below threshold - hysteresis.
  phone.reset(Celsius{25.0});
  phone.tec().turn_on();  // reset turned it off; restore controller's view
  EXPECT_FALSE(ctrl.update(phone));
  EXPECT_EQ(ctrl.activation_count(), 1u);
}

TEST(CoolingController, CtorThrowsEveryErrorInOneMessage) {
  const CoolingControllerConfig bad{Celsius{-300.0}, util::KelvinDiff{-1.0}};
  const auto errors = bad.validate();
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(thrown_config_message([&] { (void)CoolingController{bad}; }),
            expected_config_message("CoolingControllerConfig", errors));
}

TEST(CoolingController, HysteresisPreventsChatter) {
  PhoneThermal phone;
  CoolingController ctrl{CoolingControllerConfig{Celsius{45.0},
                                                 util::KelvinDiff{2.0}}};
  // Heat to just above threshold.
  while (phone.cpu_temperature().value() < 45.2) {
    phone.step(Watts{3.0}, Watts{0.5}, Watts{1.0}, Seconds{5.0});
  }
  ASSERT_TRUE(ctrl.update(phone));
  // Cooling to 44 C (inside the hysteresis band) must keep the TEC on.
  phone.reset(Celsius{44.0});
  phone.tec().turn_on();
  EXPECT_TRUE(ctrl.update(phone));
  // Dropping below 43 C turns it off.
  phone.reset(Celsius{42.5});
  phone.tec().turn_on();
  EXPECT_FALSE(ctrl.update(phone));
}

}  // namespace
}  // namespace capman::thermal
