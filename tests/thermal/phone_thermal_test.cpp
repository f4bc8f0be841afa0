#include "thermal/phone_thermal.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace capman::thermal {

struct PhoneThermalTestAccess {
  static void forget_substeps(PhoneThermal& phone) {
    phone.substep_dt_bits_ = 0;
    phone.substeps_ = 1;
    phone.substep_h_ = 0.0;
  }
};

namespace {

using util::Celsius;
using util::Seconds;
using util::Watts;

// Every conductance zero: each node keeps its own heat. Tests switch single
// edges back on to isolate the sub-network they check.
PhoneThermalConfig isolated(double ambient_c) {
  PhoneThermalConfig c;
  c.ambient = Celsius{ambient_c};
  c.cpu_board = 0.0;
  c.cpu_surface = 0.0;
  c.board_surface = 0.0;
  c.battery_board = 0.0;
  c.battery_surface = 0.0;
  c.surface_ambient = 0.0;
  return c;
}

TEST(PhoneThermal, StaysAtAmbientWithoutHeat) {
  PhoneThermalConfig c;
  c.ambient = Celsius{25.0};
  PhoneThermal phone{c};
  for (int i = 0; i < 100; ++i) {
    phone.step(Watts{0.0}, Watts{0.0}, Watts{0.0}, Seconds{1.0});
  }
  EXPECT_EQ(phone.cpu_temperature().value(), 25.0);
  EXPECT_EQ(phone.surface_temperature().value(), 25.0);
  EXPECT_EQ(phone.battery_temperature().value(), 25.0);
}

TEST(PhoneThermal, SteadyStateMatchesAnalyticSolution) {
  // Ambient touches only the surface, so at steady state all injected
  // power crosses the surface-ambient conductance:
  // T_surface = ambient + (P_cpu + P_battery + P_other) / G_sa.
  PhoneThermalConfig c;
  c.ambient = Celsius{25.0};
  PhoneThermal phone{c};
  for (int i = 0; i < 20000; ++i) {
    phone.step(Watts{1.5}, Watts{0.25}, Watts{0.5}, Seconds{1.0});
  }
  EXPECT_NEAR(phone.surface_temperature().value(),
              25.0 + (1.5 + 0.25 + 0.5) / c.surface_ambient, 1e-6);
}

TEST(PhoneThermal, TwoNodeSteadyState) {
  // board -G1- surface -G2- ambient, P into the board (other power):
  // T_surface = ambient + P/G2; T_board = T_surface + P/G1. The board has
  // no getter: the cpu, tied only to the board, carries no heat at steady
  // state and reads the board's temperature. The battery is cut off and
  // stays at ambient.
  PhoneThermalConfig c = isolated(20.0);
  c.board_surface = 0.5;
  c.surface_ambient = 0.2;
  c.cpu_board = 1.0;
  PhoneThermal phone{c};
  for (int i = 0; i < 20000; ++i) {
    phone.step(Watts{0.0}, Watts{0.0}, Watts{2.0}, Seconds{1.0});
  }
  EXPECT_NEAR(phone.surface_temperature().value(), 20.0 + 2.0 / 0.2, 1e-6);
  EXPECT_NEAR(phone.cpu_temperature().value(), 20.0 + 10.0 + 2.0 / 0.5, 1e-6);
  EXPECT_EQ(phone.battery_temperature().value(), 20.0);
}

TEST(PhoneThermal, ExponentialRelaxation) {
  // Only the surface-ambient edge conducts: from 50 C toward 25 C with
  // tau = C_s / G_sa = 10 s.
  PhoneThermalConfig c = isolated(25.0);
  c.surface_capacity = 15.0;
  c.surface_ambient = 1.5;
  PhoneThermal phone{c};
  phone.reset(Celsius{50.0});
  const double tau = c.surface_capacity / c.surface_ambient;
  const double dt = 0.05;
  const long per_tau = std::lround(tau / dt);
  for (int k = 1; k <= 3; ++k) {
    for (long i = 0; i < per_tau; ++i) {
      phone.step(Watts{0.0}, Watts{0.0}, Watts{0.0}, Seconds{dt});
    }
    EXPECT_NEAR(phone.surface_temperature().value(),
                25.0 + 25.0 * std::exp(-static_cast<double>(k)), 0.05)
        << "after " << k << " time constants";
  }
  // The disconnected nodes keep their reset temperature.
  EXPECT_EQ(phone.cpu_temperature().value(), 50.0);
  EXPECT_EQ(phone.battery_temperature().value(), 50.0);
}

TEST(PhoneThermal, NegativeInjectionCools) {
  // The TEC's cold side is the one negative heat injection: pumping cools
  // the cpu below ambient and heats the surface it rejects into.
  PhoneThermalConfig c;
  c.ambient = Celsius{40.0};
  PhoneThermal phone{c};
  phone.tec().turn_on();
  phone.step(Watts{0.0}, Watts{0.0}, Watts{0.0}, Seconds{1.0});
  EXPECT_LT(phone.cpu_temperature().value(), 40.0);
  EXPECT_GT(phone.surface_temperature().value(), 40.0);
}

TEST(PhoneThermal, InjectionsAccumulateAndClear) {
  // Isolated nodes integrate exactly the heat injected into them.
  const PhoneThermalConfig c = isolated(0.0);
  PhoneThermal phone{c};
  phone.step(Watts{1.0}, Watts{2.0}, Watts{3.0}, Seconds{1.0});
  EXPECT_NEAR(phone.cpu_temperature().value(), 1.0 / c.cpu_capacity, 1e-12);
  EXPECT_NEAR(phone.battery_temperature().value(), 2.0 / c.battery_capacity,
              1e-12);
  EXPECT_EQ(phone.surface_temperature().value(), 0.0);
  // Heat does not carry over into the next step.
  const double cpu = phone.cpu_temperature().value();
  phone.step(Watts{0.0}, Watts{0.0}, Watts{0.0}, Seconds{1.0});
  EXPECT_EQ(phone.cpu_temperature().value(), cpu);

  // With the TEC on, the cpu receives its power minus the pumped heat and
  // the surface the pumped heat plus the TEC's electric power: together
  // they gain exactly (P_cpu + P_tec) * dt.
  PhoneThermal tec_phone{c};
  tec_phone.tec().turn_on();
  const double p_tec =
      tec_phone.step(Watts{1.0}, Watts{0.0}, Watts{0.0}, Seconds{1.0}).value();
  ASSERT_GT(p_tec, 0.0);
  EXPECT_NEAR(c.cpu_capacity * tec_phone.cpu_temperature().value() +
                  c.surface_capacity * tec_phone.surface_temperature().value(),
              1.0 + p_tec, 1e-12);
}

TEST(PhoneThermal, FixedNodeNeverMoves) {
  // Ambient absorbs any amount of heat without moving: after a hot spell
  // (and a reset well above it) every node relaxes back to its value.
  PhoneThermalConfig c;
  c.ambient = Celsius{25.0};
  PhoneThermal phone{c};
  for (int i = 0; i < 3000; ++i) {
    phone.step(Watts{3.0}, Watts{0.5}, Watts{1.0}, Seconds{1.0});
  }
  phone.reset(Celsius{80.0});
  for (int i = 0; i < 20000; ++i) {
    phone.step(Watts{0.0}, Watts{0.0}, Watts{0.0}, Seconds{1.0});
  }
  EXPECT_NEAR(phone.cpu_temperature().value(), 25.0, 1e-6);
  EXPECT_NEAR(phone.surface_temperature().value(), 25.0, 1e-6);
  EXPECT_NEAR(phone.battery_temperature().value(), 25.0, 1e-6);
}

TEST(PhoneThermal, EnergyFlowsHotToCold) {
  // An isolated cpu-board pair: heat the cpu once, then let it share.
  PhoneThermalConfig c = isolated(20.0);
  c.cpu_capacity = 10.0;
  c.board_capacity = 10.0;
  c.cpu_board = 0.5;
  PhoneThermal phone{c};
  phone.step(Watts{400.0}, Watts{0.0}, Watts{0.0}, Seconds{1.0});
  ASSERT_NEAR(phone.cpu_temperature().value(), 60.0, 1e-12);
  phone.step(Watts{0.0}, Watts{0.0}, Watts{0.0}, Seconds{5.0});
  EXPECT_LT(phone.cpu_temperature().value(), 60.0);
  // Energy is conserved: the pair converges to the capacity-weighted mean
  // of (60, 20), and the cpu never drops below it.
  for (int i = 0; i < 500; ++i) {
    phone.step(Watts{0.0}, Watts{0.0}, Watts{0.0}, Seconds{1.0});
    EXPECT_GE(phone.cpu_temperature().value(), 40.0 - 1e-9);
  }
  EXPECT_NEAR(phone.cpu_temperature().value(), 40.0, 1e-6);
  EXPECT_EQ(phone.surface_temperature().value(), 20.0);
  EXPECT_EQ(phone.battery_temperature().value(), 20.0);
}

TEST(PhoneThermal, StableWithLargeTimestep) {
  // Substepping must keep explicit Euler stable even for dt >> C/G.
  PhoneThermalConfig c = isolated(25.0);
  c.surface_capacity = 0.5;
  c.surface_ambient = 5.0;  // tau = 0.1 s
  PhoneThermal phone{c};
  phone.reset(Celsius{90.0});
  phone.step(Watts{0.0}, Watts{0.0}, Watts{0.0}, Seconds{1000.0});
  EXPECT_NEAR(phone.surface_temperature().value(), 25.0, 0.5);
  EXPECT_GE(phone.surface_temperature().value(), 25.0 - 1e-6);  // no overshoot
}

TEST(PhoneThermal, ResetRestoresTemperature) {
  PhoneThermal phone;
  for (int i = 0; i < 100; ++i) {
    phone.step(Watts{3.0}, Watts{0.5}, Watts{1.0}, Seconds{1.0});
  }
  phone.tec().turn_on();
  phone.reset(Celsius{31.5});
  EXPECT_EQ(phone.cpu_temperature().value(), 31.5);
  EXPECT_EQ(phone.surface_temperature().value(), 31.5);
  EXPECT_EQ(phone.battery_temperature().value(), 31.5);
  EXPECT_FALSE(phone.tec().is_on());
}

TEST(PhoneThermal, HeatsUpUnderCpuLoad) {
  PhoneThermal phone;
  for (int i = 0; i < 3000; ++i) {
    phone.step(Watts{2.0}, Watts{0.3}, Watts{0.8}, Seconds{1.0});
  }
  EXPECT_GT(phone.cpu_temperature().value(), 40.0);
  EXPECT_GT(phone.cpu_temperature().value(),
            phone.surface_temperature().value());
  EXPECT_GT(phone.surface_temperature().value(), 25.0);
}

TEST(PhoneThermal, TecCoolsTheCpuSpot) {
  PhoneThermal with_tec;
  PhoneThermal without_tec;
  for (int i = 0; i < 3000; ++i) {
    with_tec.tec().turn_on();
    with_tec.step(Watts{2.0}, Watts{0.3}, Watts{0.8}, Seconds{1.0});
    without_tec.step(Watts{2.0}, Watts{0.3}, Watts{0.8}, Seconds{1.0});
  }
  EXPECT_LT(with_tec.cpu_temperature().value(),
            without_tec.cpu_temperature().value() - 1.0);
}

TEST(PhoneThermal, TecDrawsPowerWhenOn) {
  PhoneThermal phone;
  phone.tec().turn_on();
  const auto p = phone.step(Watts{1.0}, Watts{0.2}, Watts{0.5}, Seconds{1.0});
  EXPECT_GT(p.value(), 0.5);  // ~ I^2 R at rated current
  phone.tec().turn_off();
  const auto p_off =
      phone.step(Watts{1.0}, Watts{0.2}, Watts{0.5}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(p_off.value(), 0.0);
}

TEST(PhoneThermal, ResetRestoresAmbient) {
  PhoneThermal phone;
  for (int i = 0; i < 100; ++i) {
    phone.step(Watts{3.0}, Watts{0.5}, Watts{1.0}, Seconds{1.0});
  }
  phone.reset(Celsius{25.0});
  EXPECT_DOUBLE_EQ(phone.cpu_temperature().value(), 25.0);
  EXPECT_FALSE(phone.tec().is_on());
}

// Recorded trajectory of the default PhoneThermal under a fixed script:
// cpu, surface and battery C and the returned TEC W, as hex floats. A
// change to the integration (the substep count, the form of the per-node
// update) fails this test; a change that moves these numbers on purpose
// must re-record them and say why.
struct Row {
  double cpu_c;
  double surface_c;
  double battery_c;
  double tec_w;
};

// Rows 0-19: after step 999, 1999, ... of 20000 steps at dt 0.05 s with
// the TEC toggled every 500 steps (on in the recorded steps). Rows 20-24:
// after step 9, 19, ... of 50 steps at dt 5 s (6 substeps each), TEC on
// for the first 30.
constexpr std::array<Row, 25> kRecorded{{
    {0x1.2d096c8f986p+5, 0x1.d1be317c4603cp+4, 0x1.aae0bf273a964p+4, 0x1.751d1e246c0b4p+0},
    {0x1.54ce6eae2591cp+5, 0x1.eafbf181c80f3p+4, 0x1.bef4543c4b55fp+4, 0x1.70c2ecc56088ep+0},
    {0x1.69ea052a8f6eap+5, 0x1.fdec27660c6fdp+4, 0x1.d58303abff2eap+4, 0x1.6ee4c32d2c57bp+0},
    {0x1.777253d0959edp+5, 0x1.0694adc74fd4bp+5, 0x1.eb8071c804ae4p+4, 0x1.6df15fb3c6252p+0},
    {0x1.816d946e168abp+5, 0x1.0cf8141d0835p+5, 0x1.ffc1d1db5d935p+4, 0x1.6d5d17b23662ap+0},
    {0x1.89760f29c857fp+5, 0x1.1274b0ba3b25dp+5, 0x1.08faa780e9a06p+5, 0x1.6cf3b96e4f097p+0},
    {0x1.903e306a91971p+5, 0x1.173a684f342d1p+5, 0x1.1110cb6aaf945p+5, 0x1.6ca05d0e07792p+0},
    {0x1.961c58beb3c8bp+5, 0x1.1b67a9281cbabp+5, 0x1.1836d1b3ab1p+5, 0x1.6c5a0ce17fc4bp+0},
    {0x1.9b4074e183e19p+5, 0x1.1f1240cd7986dp+5, 0x1.1e84bccbfad2ap+5, 0x1.6c1c9a1182c14p+0},
    {0x1.9fc95eedf3bcap+5, 0x1.224b4cba803dp+5, 0x1.2412808e325b9p+5, 0x1.6be5d1900b31cp+0},
    {0x1.a3cda4da9b2d3p+5, 0x1.25210224050fcp+5, 0x1.28f659db0ba6ep+5, 0x1.6bb45d4a60353p+0},
    {0x1.a75f40d8a5045p+5, 0x1.279f8840398p+5, 0x1.2d4454481515ep+5, 0x1.6b874e96d0287p+0},
    {0x1.aa8d41c192557p+5, 0x1.29d16c667315fp+5, 0x1.310e45c184618p+5, 0x1.6b6b41a166bd9p+0},
    {0x1.ad1148c8d94cdp+5, 0x1.2bbfeb3ad8f25p+5, 0x1.3463f508f8609p+5, 0x1.6b524e690c937p+0},
    {0x1.af49cb068b2fbp+5, 0x1.2d731da125474p+5, 0x1.37534cef99697p+5, 0x1.6b3bf37302c3fp+0},
    {0x1.b140a46e22eedp+5, 0x1.2ef2215e2c12p+5, 0x1.39e89070c6249p+5, 0x1.6b27c05d8d89dp+0},
    {0x1.b2fe7d546ef8cp+5, 0x1.304338bddc5c8p+5, 0x1.3c2e8b8683126p+5, 0x1.6b1552e29f51ep+0},
    {0x1.b48af26863d6cp+5, 0x1.316be57f73395p+5, 0x1.3e2ebf51dec96p+5, 0x1.6b0454c11babbp+0},
    {0x1.b5ecb610c496dp+5, 0x1.3271002a80662p+5, 0x1.3ff189723678bp+5, 0x1.6af47a21b4e2cp+0},
    {0x1.b729ad096210ap+5, 0x1.3356cc7277578p+5, 0x1.417e46d6a021bp+5, 0x1.6ae58045e761p+0},
    {0x1.df41efe1f8fccp+5, 0x1.3bc8ed3db2c4fp+5, 0x1.456133dbff0b2p+5, 0x1.6620ea164d5dp+0},
    {0x1.eed850c0001f4p+5, 0x1.41179562f1c15p+5, 0x1.4a8508f77556ap+5, 0x1.644cc2e07cc8bp+0},
    {0x1.f708cf68e3851p+5, 0x1.453991dd44ac3p+5, 0x1.4fe55ba780817p+5, 0x1.6398743dc760cp+0},
    {0x1.205a364d9efc1p+6, 0x1.3079e3adad632p+5, 0x1.51ddda9c7b201p+5, 0x0p+0},
    {0x1.2c154c643ed09p+6, 0x1.3094639e5212dp+5, 0x1.527686c7c34edp+5, 0x0p+0},
}};

TEST(PhoneThermal, ReproducesRecordedTrajectoryBitForBit) {
  PhoneThermal phone;
  std::vector<Row> rows;
  auto record = [&](double tec_w) {
    rows.push_back({phone.cpu_temperature().value(),
                    phone.surface_temperature().value(),
                    phone.battery_temperature().value(), tec_w});
  };
  for (int k = 0; k < 20000; ++k) {
    if (k % 500 == 0) {
      if ((k / 500) % 2 == 1) {
        phone.tec().turn_on();
      } else {
        phone.tec().turn_off();
      }
    }
    const double cpu_w = 0.5 + 0.25 * (k % 13);
    const double battery_w = 0.125 * (k % 5);
    const double tec_w = phone
                             .step(Watts{cpu_w}, Watts{battery_w},
                                   Watts{0.75}, Seconds{0.05})
                             .value();
    if (k % 1000 == 999) record(tec_w);
  }
  phone.tec().turn_on();
  for (int k = 0; k < 50; ++k) {
    if (k == 30) phone.tec().turn_off();
    const double tec_w =
        phone.step(Watts{3.0}, Watts{0.25}, Watts{0.75}, Seconds{5.0})
            .value();
    if (k % 10 == 9) record(tec_w);
  }

  ASSERT_EQ(rows.size(), kRecorded.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].cpu_c, kRecorded[i].cpu_c) << "row " << i;
    EXPECT_EQ(rows[i].surface_c, kRecorded[i].surface_c) << "row " << i;
    EXPECT_EQ(rows[i].battery_c, kRecorded[i].battery_c) << "row " << i;
    EXPECT_EQ(rows[i].tec_w, kRecorded[i].tec_w) << "row " << i;
  }
}

// The per-dt substep cache is exact: a network stepped through
// alternating dts (one substep at 0.05 and 0.25 s, several at 5 s)
// matches, bit for bit, one that recomputes its substeps on every step,
// with the TEC both off and on.
TEST(PhoneThermal, SubstepCacheMatchesCacheFreeReferenceBitForBit) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  PhoneThermal cached;
  PhoneThermal reference;
  const double dts[] = {0.05, 0.25, 5.0};
  for (int k = 0; k < 3000; ++k) {
    if (k % 400 == 200) {
      cached.tec().turn_on();
      reference.tec().turn_on();
    } else if (k % 400 == 0) {
      cached.tec().turn_off();
      reference.tec().turn_off();
    }
    // Each dt runs twice, so the cache both hits and switches.
    const Seconds dt{dts[(k / 2) % 3]};
    const Watts cpu{0.5 + 0.25 * (k % 13)};
    const Watts battery{0.125 * (k % 5)};
    PhoneThermalTestAccess::forget_substeps(reference);
    const double a = cached.step(cpu, battery, Watts{0.75}, dt).value();
    const double b = reference.step(cpu, battery, Watts{0.75}, dt).value();
    ASSERT_EQ(bits(a), bits(b)) << k;
    ASSERT_EQ(bits(cached.cpu_temperature().value()),
              bits(reference.cpu_temperature().value()))
        << k;
    ASSERT_EQ(bits(cached.surface_temperature().value()),
              bits(reference.surface_temperature().value()))
        << k;
    ASSERT_EQ(bits(cached.battery_temperature().value()),
              bits(reference.battery_temperature().value()))
        << k;
  }
}

}  // namespace
}  // namespace capman::thermal
