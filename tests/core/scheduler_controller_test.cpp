#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "config_error_message.h"
#include "core/controller.h"
#include "core/degradation.h"
#include "core/profiler.h"
#include "core/scheduler.h"
#include "util/rng.h"

namespace capman::core {

struct SchedulerTestAccess {
  static double solved_q(const OnlineScheduler& sched, std::size_t state_id,
                         std::size_t action_id) {
    return sched.solved_q(state_id, action_id);
  }
  static double best_q_over_levels(const OnlineScheduler& sched,
                                   std::size_t state_id,
                                   const workload::Action& event,
                                   battery::BatterySelection battery,
                                   BudgetLevel* best_level) {
    return sched.best_q_over_levels(state_id, event, battery, best_level);
  }
};

namespace {

using battery::BatterySelection;
using device::CpuState;
using device::DeviceStateVector;
using device::ScreenState;
using device::WifiState;
using util::Joules;
using util::Seconds;
using workload::Action;
using workload::Syscall;

TEST(CapmanConfigValidate, DefaultsValidAndErrorsNameFields) {
  EXPECT_TRUE(CapmanConfig{}.validate().empty());
  CapmanConfig bad;
  bad.rho = 1.0;
  bad.recency_decay = 0.0;
  bad.exploration_floor = 0.9;  // above exploration_initial (0.35)
  const auto errors = bad.validate();
  // rho doubles as the value-iteration discount, so it is reported both
  // directly and through the derived value_iteration config.
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_NE(errors[0].find("rho"), std::string::npos);
  EXPECT_NE(errors[1].find("recency_decay"), std::string::npos);
  EXPECT_NE(errors[2].find("exploration_floor"), std::string::npos);
  EXPECT_NE(errors[3].find("value_iteration: rho"), std::string::npos);
  EXPECT_THROW((CapmanController{bad, 42}), std::invalid_argument);
  bad.c_a = 1.0;  // also reported through the derived similarity config
  const auto nested = bad.validate();
  ASSERT_GE(nested.size(), 5u);
  EXPECT_EQ(thrown_config_message([&] { (void)CapmanController{bad, 42}; }),
            expected_config_message("CapmanConfig", nested));
}

TEST(CapmanConfigValidate, DerivedConfigsCarryTheKnobs) {
  CapmanConfig cfg;
  cfg.c_s = 0.9;
  cfg.c_a = 0.7;
  cfg.epsilon = 0.02;
  cfg.similarity_threads = 3;
  cfg.rho = 0.6;
  const SimilarityConfig sim = cfg.similarity_config();
  EXPECT_DOUBLE_EQ(sim.c_s, 0.9);
  EXPECT_DOUBLE_EQ(sim.c_a, 0.7);
  EXPECT_DOUBLE_EQ(sim.epsilon, 0.02);
  EXPECT_EQ(sim.num_threads, 3u);
  EXPECT_EQ(sim.metrics, nullptr);  // runtime binding stays at call sites
  EXPECT_DOUBLE_EQ(cfg.value_iteration_config().rho, 0.6);
}

TEST(DegradationConfigValidate, EnabledGuardRejectsBadKnobs) {
  DegradationConfig bad;
  bad.enabled = true;
  bad.retry_backoff = 0.5;
  bad.retry_max = Seconds{0.1};  // below retry_initial
  const auto errors = bad.validate();
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("retry_backoff"), std::string::npos);
  EXPECT_NE(errors[1].find("retry_max"), std::string::npos);
  EXPECT_EQ(thrown_config_message([&] { (void)DegradationGuard{bad}; }),
            expected_config_message("DegradationConfig", errors));
  // A disabled guard never reads its knobs, so it must not throw: the
  // default-constructed guard path stays bit-identical to a guard-less
  // build even with garbage knobs.
  bad.enabled = false;
  EXPECT_NO_THROW(DegradationGuard{bad});
}

CapmanConfig no_exploration_config() {
  CapmanConfig cfg;
  cfg.exploration_initial = 0.0;
  cfg.exploration_floor = 0.0;
  cfg.min_observations = 1;
  return cfg;
}

DeviceStateVector busy_state() {
  return {CpuState::kC0, ScreenState::kOn, WifiState::kIdle};
}

// Positional-argument convenience over the DecideRequest consultation
// struct, for tests that only care about the battery answer.
BatterySelection decide(OnlineScheduler& sched, const Action& event,
                        const DeviceStateVector& dev,
                        BatterySelection current) {
  DecideRequest req;
  req.event = event;
  req.device = dev;
  req.current = current;
  return sched.decide(req).battery;
}

Observation obs_for(const DeviceStateVector& dev, Syscall kind,
                    BatterySelection b, double reward) {
  Observation obs;
  obs.state = CapmanState{dev, b}.index();
  obs.action = DecisionAction{Action{kind, 0}, b};
  obs.next_state = CapmanState{dev, b}.index();
  obs.reward = reward;
  return obs;
}

TEST(Profiler, RewardIsEfficiency) {
  EXPECT_NEAR(RuntimeProfiler::reward(Joules{9.0}, Joules{1.0}, 0, 10), 0.9,
              1e-12);
  EXPECT_NEAR(RuntimeProfiler::reward(Joules{0.0}, Joules{0.0}, 0, 10), 1.0,
              1e-12);
}

TEST(Profiler, UnmetDemandCrushesReward) {
  const double met = RuntimeProfiler::reward(Joules{9.0}, Joules{1.0}, 0, 10);
  const double unmet =
      RuntimeProfiler::reward(Joules{9.0}, Joules{1.0}, 5, 10);
  EXPECT_LT(unmet, 0.5 * met);
  EXPECT_GE(unmet, 0.0);
}

TEST(Profiler, IntervalLifecycle) {
  RuntimeProfiler profiler;
  EXPECT_FALSE(profiler.interval_open());
  const CapmanState s{busy_state(), BatterySelection::kBig};
  profiler.begin_interval(s, DecisionAction{Action{Syscall::kCpuBurst, 0},
                                            BatterySelection::kBig});
  EXPECT_TRUE(profiler.interval_open());
  profiler.record(Joules{2.0}, Joules{0.5}, true);
  profiler.record(Joules{2.0}, Joules{0.5}, true);
  const CapmanState next{busy_state(), BatterySelection::kBig};
  const auto obs = profiler.close_interval(next);
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->state, s.index());
  EXPECT_NEAR(obs->reward, 4.0 / 5.0, 1e-12);
  EXPECT_FALSE(profiler.interval_open());
}

TEST(Profiler, EmptyIntervalYieldsNothing) {
  RuntimeProfiler profiler;
  const CapmanState s{busy_state(), BatterySelection::kBig};
  EXPECT_FALSE(profiler.close_interval(s).has_value());
  profiler.begin_interval(s, DecisionAction{});
  EXPECT_FALSE(profiler.close_interval(s).has_value());
}

TEST(Scheduler, KindPriorRoutesSurgesToLittle) {
  EXPECT_EQ(OnlineScheduler::kind_prior(Syscall::kScreenWake),
            BatterySelection::kLittle);
  EXPECT_EQ(OnlineScheduler::kind_prior(Syscall::kAppLaunch),
            BatterySelection::kLittle);
  EXPECT_EQ(OnlineScheduler::kind_prior(Syscall::kVideoFrame),
            BatterySelection::kBig);
  EXPECT_EQ(OnlineScheduler::kind_prior(Syscall::kScreenSleep),
            BatterySelection::kBig);
}

TEST(Scheduler, FallsBackToPriorWithoutExperience) {
  OnlineScheduler sched{no_exploration_config(), 1};
  sched.recalibrate();
  const auto choice = decide(sched, Action{Syscall::kScreenWake, 0},
                             busy_state(), BatterySelection::kBig);
  EXPECT_EQ(choice, BatterySelection::kLittle);
  EXPECT_EQ(sched.decision_stats().fallback, 1u);
}

TEST(Scheduler, LearnsFromRewards) {
  OnlineScheduler sched{no_exploration_config(), 1};
  const auto dev = busy_state();
  // LITTLE earns much better efficiency than big on CpuBurst in this state.
  for (int i = 0; i < 10; ++i) {
    sched.observe(obs_for(dev, Syscall::kCpuBurst, BatterySelection::kLittle,
                          0.95));
    sched.observe(
        obs_for(dev, Syscall::kCpuBurst, BatterySelection::kBig, 0.40));
  }
  sched.recalibrate();
  // Decision queried from the big-battery state (what the phone is on now).
  const auto choice = decide(sched, Action{Syscall::kCpuBurst, 0}, dev,
                             BatterySelection::kBig);
  EXPECT_EQ(choice, BatterySelection::kLittle);
  EXPECT_GE(sched.decision_stats().exact + sched.decision_stats().transferred,
            1u);
}

TEST(Scheduler, PrefersBigWhenBigEarnsMore) {
  OnlineScheduler sched{no_exploration_config(), 1};
  const auto dev = busy_state();
  for (int i = 0; i < 10; ++i) {
    sched.observe(obs_for(dev, Syscall::kVideoFrame, BatterySelection::kBig,
                          0.95));
    sched.observe(obs_for(dev, Syscall::kVideoFrame,
                          BatterySelection::kLittle, 0.60));
  }
  sched.recalibrate();
  EXPECT_EQ(decide(sched, Action{Syscall::kVideoFrame, 0}, dev,
                   BatterySelection::kBig),
            BatterySelection::kBig);
}

TEST(Scheduler, SimilarityTransferAcrossStates) {
  OnlineScheduler sched{no_exploration_config(), 1};
  const DeviceStateVector seen{CpuState::kC0, ScreenState::kOn,
                               WifiState::kAccess};
  // Experience exists only for `seen`; query a different state.
  for (int i = 0; i < 8; ++i) {
    sched.observe(
        obs_for(seen, Syscall::kNetRecvStart, BatterySelection::kLittle, 0.9));
    sched.observe(
        obs_for(seen, Syscall::kNetRecvStart, BatterySelection::kBig, 0.3));
  }
  sched.recalibrate();
  const DeviceStateVector unseen{CpuState::kC0, ScreenState::kOn,
                                 WifiState::kSend};
  const auto choice = decide(sched, Action{Syscall::kNetRecvStart, 0}, unseen,
                             BatterySelection::kBig);
  EXPECT_EQ(choice, BatterySelection::kLittle);
  EXPECT_GE(sched.decision_stats().transferred, 1u);
}

TEST(Scheduler, ExplorationDecays) {
  CapmanConfig cfg;
  cfg.exploration_initial = 0.5;
  cfg.exploration_decay_per_event = 0.9;
  cfg.exploration_floor = 0.01;
  OnlineScheduler sched{cfg, 7};
  for (int i = 0; i < 200; ++i) {
    decide(sched, Action{Syscall::kCpuBurst, 0}, busy_state(),
           BatterySelection::kBig);
  }
  EXPECT_NEAR(sched.exploration_rate(), 0.01, 1e-9);
  EXPECT_GT(sched.decision_stats().explored, 0u);
}

TEST(Scheduler, BudgetLevelEchoedWithoutLearning) {
  OnlineScheduler sched{no_exploration_config(), 1};
  // Non-learning schedulers allocate only the level-kFull action plane.
  EXPECT_EQ(sched.mdp().action_count(), base_decision_action_space_size());
  DecideRequest req;
  req.event = Action{Syscall::kScreenWake, 0};
  req.device = busy_state();
  req.current = BatterySelection::kBig;
  req.budget = BudgetLevel::kBalanced;
  EXPECT_EQ(sched.decide(req).budget, BudgetLevel::kBalanced);
}

TEST(Scheduler, LearnsBudgetLevelJointly) {
  CapmanConfig cfg = no_exploration_config();
  cfg.learn_budget = true;
  OnlineScheduler sched{cfg, 1};
  EXPECT_EQ(sched.mdp().action_count(), decision_action_space_size());
  const auto dev = busy_state();
  // The eco-budget variant of the big-battery action earns clearly better
  // rewards (the voluntary derate pays off in this regime).
  for (int i = 0; i < 10; ++i) {
    Observation eco =
        obs_for(dev, Syscall::kCpuBurst, BatterySelection::kBig, 0.9);
    eco.action.budget = BudgetLevel::kEco;
    sched.observe(eco);
    sched.observe(
        obs_for(dev, Syscall::kCpuBurst, BatterySelection::kBig, 0.4));
    sched.observe(
        obs_for(dev, Syscall::kCpuBurst, BatterySelection::kLittle, 0.3));
  }
  sched.recalibrate();
  DecideRequest req;
  req.event = Action{Syscall::kCpuBurst, 0};
  req.device = dev;
  req.current = BatterySelection::kBig;
  const DecideResult result = sched.decide(req);
  EXPECT_EQ(result.battery, BatterySelection::kBig);
  EXPECT_EQ(result.budget, BudgetLevel::kEco);
}

// Same bits, or both NaN.
bool same_q(double a, double b) {
  return std::isnan(a) ? std::isnan(b)
                       : std::bit_cast<std::uint64_t>(a) ==
                             std::bit_cast<std::uint64_t>(b);
}

// Checks solved_q and best_q_over_levels, for every (state, action) of
// the plane, against a (state_id, action_id) -> action vertex map built
// from the solved graph: the hash index the scheduler kept before it
// looked vertices up through the graph.
void expect_lookup_matches_map(const OnlineScheduler& sched,
                               bool learn_budget) {
  const MdpGraph& graph = sched.graph();
  const std::vector<double>& q = sched.values().action_values;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> index;
  for (std::size_t av = 0; av < graph.action_count(); ++av) {
    const ActionVertex& a = graph.action(av);
    index[{graph.state(a.source).state_id, a.action_id}] = av;
  }
  const auto reference_q = [&](std::size_t s, std::size_t a) {
    const auto it = index.find({s, a});
    return it == index.end() ? std::nan("") : q[it->second];
  };
  std::size_t present = 0;
  std::size_t mismatches = 0;
  for (std::size_t s = 0; s < state_space_size(); ++s) {
    for (std::size_t a = 0; a < sched.mdp().action_count(); ++a) {
      const double want = reference_q(s, a);
      if (!std::isnan(want)) ++present;
      if (!same_q(SchedulerTestAccess::solved_q(sched, s, a), want)) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(present, graph.action_count());
  EXPECT_EQ(mismatches, 0u);

  const std::size_t levels = learn_budget ? kBudgetLevelCount : 1;
  std::size_t answered = 0;
  mismatches = 0;
  for (std::size_t s = 0; s < state_space_size(); ++s) {
    for (std::size_t e = 0; e < workload::action_space_size(); ++e) {
      const Action event = Action::from_index(e);
      for (const BatterySelection b :
           {BatterySelection::kBig, BatterySelection::kLittle}) {
        double want = std::nan("");
        BudgetLevel want_level = BudgetLevel::kFull;
        for (std::size_t l = 0; l < levels; ++l) {
          const auto level = static_cast<BudgetLevel>(l);
          const double v =
              reference_q(s, DecisionAction{event, b, level}.index());
          if (!std::isnan(v) && (std::isnan(want) || v > want)) {
            want = v;
            want_level = level;
          }
        }
        BudgetLevel got_level = BudgetLevel::kEco;
        const double got = SchedulerTestAccess::best_q_over_levels(
            sched, s, event, b, &got_level);
        if (!std::isnan(want)) ++answered;
        if (!same_q(got, want) || got_level != want_level) ++mismatches;
      }
    }
  }
  EXPECT_GT(answered, 0u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(Scheduler, SolvedLookupMatchesVertexMap) {
  for (const bool learn_budget : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "learn_budget " << learn_budget);
    CapmanConfig cfg;  // decay 0.93, min_observations 1.5
    cfg.learn_budget = learn_budget;
    OnlineScheduler sched{cfg, 1};
    // A few states, each with its own random subset of a few syscalls x
    // batteries x levels, so the graph is scheduler-sized and some pairs
    // stay below min_observations.
    util::Rng rng{learn_budget ? 17u : 5u};
    const std::vector<std::size_t> states{0, 5, 11, 17, 23, 30, 41, 47};
    const std::vector<std::size_t> syscalls{
        0, 37, 120, workload::action_space_size() - 1};
    const std::size_t levels = learn_budget ? kBudgetLevelCount : 1;
    std::vector<std::vector<DecisionAction>> taken(states.size());
    for (auto& acts : taken) {
      for (const std::size_t e : syscalls) {
        for (const BatterySelection b :
             {BatterySelection::kBig, BatterySelection::kLittle}) {
          for (std::size_t l = 0; l < levels; ++l) {
            if (rng.chance(0.35)) {
              acts.push_back({Action::from_index(e), b,
                              static_cast<BudgetLevel>(l)});
            }
          }
        }
      }
    }
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < 1500; ++i) {
        const std::size_t si = rng.uniform_index(states.size());
        if (taken[si].empty()) continue;
        Observation obs;
        obs.state = states[si];
        obs.action = taken[si][rng.uniform_index(taken[si].size())];
        obs.next_state = states[rng.uniform_index(states.size())];
        obs.reward = rng.uniform();
        sched.observe(obs);
      }
      sched.recalibrate();
      expect_lookup_matches_map(sched, learn_budget);
    }
  }
}

TEST(Scheduler, RecalibrationCountsAndTiming) {
  OnlineScheduler sched{no_exploration_config(), 1};
  const double secs = sched.recalibrate();
  EXPECT_GE(secs, 0.0);
  EXPECT_EQ(sched.recalibration_count(), 1u);
}

TEST(Controller, FirstEventUsesPriorAndOpensInterval) {
  CapmanController ctl{no_exploration_config(), 3};
  const auto choice =
      ctl.on_event(Action{Syscall::kScreenWake, 0}, busy_state(),
                   BatterySelection::kBig, Seconds{1.0});
  EXPECT_EQ(choice, BatterySelection::kLittle);
}

TEST(Controller, DwellLimitSuppressesRapidSwitching) {
  CapmanConfig cfg = no_exploration_config();
  cfg.min_switch_dwell = Seconds{1.0};
  CapmanController ctl{cfg, 3};
  const auto first = ctl.on_event(Action{Syscall::kScreenWake, 0},
                                  busy_state(), BatterySelection::kBig,
                                  Seconds{0.0});
  EXPECT_EQ(first, BatterySelection::kLittle);
  // Immediately after, a steady event wants big again, but dwell holds it.
  const auto second = ctl.on_event(Action{Syscall::kVideoFrame, 0},
                                   busy_state(), first, Seconds{0.1});
  EXPECT_EQ(second, first);
  // After the dwell expires the switch is allowed.
  const auto third = ctl.on_event(Action{Syscall::kVideoFrame, 0},
                                  busy_state(), first, Seconds{2.0});
  EXPECT_EQ(third, BatterySelection::kBig);
}

TEST(Controller, EmergencyForcesEcoBudgetWhenLearning) {
  CapmanConfig cfg = no_exploration_config();
  cfg.learn_budget = true;
  CapmanController ctl{cfg, 3};
  EXPECT_EQ(ctl.last_budget_level(), BudgetLevel::kFull);
  ctl.on_event(Action{Syscall::kScreenWake, 0}, busy_state(),
               BatterySelection::kBig, Seconds{1.0}, /*emergency=*/true,
               BudgetLevel::kFull);
  // The comparator tripping is the signal the budget was too optimistic.
  EXPECT_EQ(ctl.last_budget_level(), BudgetLevel::kEco);
}

TEST(Controller, MaintenanceChargesConstantPowerAndRecalibrates) {
  CapmanConfig cfg = no_exploration_config();
  cfg.recalibration_interval = Seconds{5.0};
  CapmanController ctl{cfg, 3};
  EXPECT_NEAR(ctl.maintenance(Seconds{0.0}).value(),
              cfg.maintenance_power.value(), 1e-12);
  EXPECT_EQ(ctl.scheduler().recalibration_count(), 0u);
  ctl.maintenance(Seconds{6.0});
  EXPECT_EQ(ctl.scheduler().recalibration_count(), 1u);
  // Backoff: next recalibration is further out than the first interval.
  ctl.maintenance(Seconds{11.0});
  EXPECT_EQ(ctl.scheduler().recalibration_count(), 1u);
}

TEST(Controller, LearnsAcrossEvents) {
  CapmanConfig cfg = no_exploration_config();
  cfg.min_switch_dwell = Seconds{0.0};
  CapmanController ctl{cfg, 3};
  const auto dev = busy_state();
  // Simulate intervals where LITTLE is efficient on top-bucket bursts
  // (the kind prior already routes those to LITTLE; the rewards confirm).
  BatterySelection current = BatterySelection::kBig;
  for (int i = 0; i < 30; ++i) {
    const auto choice = ctl.on_event(Action{Syscall::kCpuBurst, 9}, dev,
                                     current, Seconds{i * 2.0});
    const double eff = choice == BatterySelection::kLittle ? 0.95 : 0.4;
    ctl.record_step(Joules{eff}, Joules{1.0 - eff}, true);
    current = choice;
    if (i % 10 == 9) ctl.maintenance(Seconds{i * 2.0 + 1.0});
  }
  ctl.maintenance(Seconds{100.0});
  const auto choice = ctl.on_event(Action{Syscall::kCpuBurst, 9}, dev,
                                   BatterySelection::kBig, Seconds{101.0});
  EXPECT_EQ(choice, BatterySelection::kLittle);
}

}  // namespace
}  // namespace capman::core
