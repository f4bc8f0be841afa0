#include <gtest/gtest.h>

#include "policy/baselines.h"
#include "policy/capman_policy.h"
#include "config_error_message.h"
#include "policy/oracle.h"

namespace capman::policy {
namespace {

using battery::BatterySelection;
using workload::Action;
using workload::Syscall;

PolicyContext context_with(double demand_w, double little_soc = 1.0,
                           double big_soc = 1.0) {
  PolicyContext ctx;
  ctx.demand_w = demand_w;
  ctx.little_soc = little_soc;
  ctx.big_soc = big_soc;
  return ctx;
}

TEST(Practice, AlwaysBigAndSinglePack) {
  PracticePolicy p;
  EXPECT_TRUE(p.wants_single_pack());
  EXPECT_EQ(p.on_event(context_with(5.0), Action{Syscall::kScreenWake, 0}),
            BatterySelection::kBig);
  EXPECT_EQ(p.name(), "Practice");
}

TEST(Dual, LittleFirstUntilFloor) {
  DualPolicy p{0.05};
  EXPECT_FALSE(p.wants_single_pack());
  EXPECT_EQ(p.on_event(context_with(1.0, 0.9), Action{}),
            BatterySelection::kLittle);
  EXPECT_EQ(p.on_event(context_with(1.0, 0.04), Action{}),
            BatterySelection::kBig);
}

TEST(Dual, ExactlyAtFloorFallsToBig) {
  DualPolicy p{0.05};
  EXPECT_EQ(p.on_event(context_with(1.0, 0.05), Action{}),
            BatterySelection::kBig);
}

TEST(Heuristic, RoutesPredictedHighDemandToLittle) {
  HeuristicPolicy p{1.5, 5.0};
  PolicyContext ctx = context_with(3.0);
  ctx.now_s = 0.0;
  // First event primes the EWMA with the demand itself.
  EXPECT_EQ(p.on_event(ctx, Action{}), BatterySelection::kLittle);
}

TEST(Heuristic, RoutesLowDemandToBig) {
  HeuristicPolicy p{1.5, 5.0};
  EXPECT_EQ(p.on_event(context_with(0.5), Action{}), BatterySelection::kBig);
}

TEST(Heuristic, LagsPatternChanges) {
  // After a long high-power phase, the EWMA stays high, so a now-steady
  // low-power interval is still mispredicted onto LITTLE - the heuristic's
  // lag wastes the small cell. This is the weakness CAPMAN exploits
  // (paper Fig. 12b).
  HeuristicPolicy p{2.0, 20.0};
  PolicyContext high = context_with(3.5);
  for (int i = 0; i < 20; ++i) {
    high.now_s = i;
    p.on_event(high, Action{});
  }
  PolicyContext calm = context_with(0.8);
  calm.now_s = 20.5;
  EXPECT_EQ(p.on_event(calm, Action{}), BatterySelection::kLittle);  // wrong!
}

TEST(Heuristic, ProtectsEmptyLittle) {
  HeuristicPolicy p{1.5, 5.0};
  EXPECT_EQ(p.on_event(context_with(3.0, 0.01), Action{}),
            BatterySelection::kBig);
}

TEST(Oracle, ConfigValidateNamesTheInvalidField) {
  EXPECT_TRUE(OracleConfig{}.validate().empty());
  OracleConfig bad;
  bad.little_reserve_soc = 1.0;
  bad.lookahead_cap_s = 0.0;
  const auto errors = bad.validate();
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("little_reserve_soc"), std::string::npos);
  EXPECT_NE(errors[1].find("lookahead_cap_s"), std::string::npos);
  EXPECT_EQ(thrown_config_message([&] { (void)OraclePolicy{bad}; }),
            expected_config_message("OracleConfig", errors));
}

TEST(Oracle, DefaultsToBigWithoutPack) {
  OraclePolicy p;
  EXPECT_EQ(p.on_event(context_with(1.0), Action{}), BatterySelection::kBig);
}

TEST(Oracle, RoutesSurgeToLittleAndSteadyToBig) {
  battery::DualPackConfig cfg;
  battery::DualBatteryPack pack{cfg};
  OraclePolicy p;

  PolicyContext steady = context_with(1.2);
  steady.pack = &pack;
  steady.interval_avg_w = 1.2;
  steady.interval_duration_s = 8.0;
  EXPECT_EQ(p.on_event(steady, Action{}), BatterySelection::kBig);

  PolicyContext surge = context_with(3.2);
  surge.pack = &pack;
  surge.interval_avg_w = 3.2;
  surge.interval_duration_s = 0.8;
  EXPECT_EQ(p.on_event(surge, Action{}), BatterySelection::kLittle);
}

TEST(Oracle, UsesSurvivorWhenOneCellIsExhausted) {
  battery::DualPackConfig cfg;
  cfg.little_capacity_mah = 20.0;  // tiny: drain it fast
  battery::DualBatteryPack pack{cfg};
  pack.request(BatterySelection::kLittle, util::Seconds{0.0});
  double t = 0.1;
  while (!pack.little_cell().exhausted() && t < 10000.0) {
    pack.step(util::Watts{1.0}, util::Seconds{1.0}, util::Seconds{t});
    t += 1.0;
  }
  // Force little to stay selected even if the pack auto-fell back.
  OraclePolicy p;
  PolicyContext ctx = context_with(3.0);
  ctx.pack = &pack;
  ctx.interval_avg_w = 3.0;
  ctx.interval_duration_s = 1.0;
  EXPECT_EQ(p.on_event(ctx, Action{}), BatterySelection::kBig);
}

TEST(Oracle, ReservesLittleForSurges) {
  battery::DualPackConfig cfg;
  battery::DualBatteryPack pack{cfg};
  // Drain LITTLE to below the reserve.
  pack.request(BatterySelection::kLittle, util::Seconds{0.0});
  double t = 0.1;
  while (pack.little_cell().soc() > 0.04 && t < 50000.0) {
    pack.step(util::Watts{1.5}, util::Seconds{2.0}, util::Seconds{t});
    t += 2.0;
  }
  OracleConfig ocfg;
  ocfg.little_reserve_soc = 0.06;
  OraclePolicy p{ocfg};
  PolicyContext surge = context_with(2.5);
  surge.pack = &pack;
  surge.interval_avg_w = 2.5;
  surge.interval_duration_s = 1.0;
  // Even a surge goes to big when LITTLE is below reserve and big can serve.
  EXPECT_EQ(p.on_event(surge, Action{}), BatterySelection::kBig);
}

TEST(CapmanPolicyAdapter, DelegatesToController) {
  core::CapmanConfig cfg;
  cfg.exploration_initial = 0.0;
  cfg.exploration_floor = 0.0;
  CapmanPolicy p{cfg, 5};
  EXPECT_EQ(p.name(), "CAPMAN");
  EXPECT_FALSE(p.wants_single_pack());
  PolicyContext ctx = context_with(2.0);
  ctx.device = {device::CpuState::kC0, device::ScreenState::kOn,
                device::WifiState::kIdle};
  const auto choice = p.on_event(ctx, Action{Syscall::kScreenWake, 0});
  EXPECT_EQ(choice, BatterySelection::kLittle);  // kind prior
  p.record_step(util::Joules{1.0}, util::Joules{0.1}, true);
  EXPECT_GT(p.maintenance(util::Seconds{0.0}).value(), 0.0);
}

}  // namespace
}  // namespace capman::policy
