#include "core/mdp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "core/state.h"
#include "graph_test_util.h"

namespace capman::core {

struct MdpTestAccess {
  /// (state, action) pairs the model holds storage for.
  static std::size_t stored_pairs(const Mdp& mdp) {
    std::size_t n = 0;
    for (const auto& stored : mdp.pairs_) n += stored.size();
    return n;
  }
};

namespace {

using battery::BatterySelection;
using device::CpuState;
using device::DeviceStateVector;
using device::ScreenState;
using device::WifiState;
using workload::Action;
using workload::Syscall;

TEST(CapmanState, IndexRoundTrip) {
  for (std::size_t i = 0; i < state_space_size(); ++i) {
    EXPECT_EQ(CapmanState::from_index(i).index(), i);
  }
}

TEST(CapmanState, SpaceSizeIs48) {
  // 4 CPU x 2 screen x 3 WiFi x 2 battery = 48, the paper's ~50 states.
  EXPECT_EQ(state_space_size(), 48u);
}

TEST(CapmanState, ToStringMentionsBattery) {
  CapmanState s;
  s.battery = BatterySelection::kLittle;
  EXPECT_NE(to_string(s).find("LITTLE"), std::string::npos);
}

TEST(DecisionAction, IndexRoundTrip) {
  for (std::size_t i = 0; i < decision_action_space_size(); ++i) {
    EXPECT_EQ(DecisionAction::from_index(i).index(), i);
  }
}

TEST(DecisionAction, SpaceSizes) {
  // 200 syscall actions x 2 batteries = 400 base actions; x 3 budget
  // levels = 1200 in the full (learn_budget) space.
  EXPECT_EQ(base_decision_action_space_size(), 400u);
  EXPECT_EQ(decision_action_space_size(), 1200u);
}

TEST(DecisionAction, BudgetIndexingIsBudgetMajor) {
  // Level-kFull actions occupy exactly the pre-budget indices [0, 400):
  // that is the bit-identity guarantee for non-learning schedulers.
  const DecisionAction full{Action{Syscall::kCpuBurst, 3},
                            BatterySelection::kBig, BudgetLevel::kFull};
  EXPECT_LT(full.index(), base_decision_action_space_size());
  DecisionAction eco = full;
  eco.budget = BudgetLevel::kEco;
  EXPECT_EQ(eco.index(),
            full.index() + 2 * base_decision_action_space_size());
  EXPECT_NE(to_string(full), to_string(eco));
}

Observation make_obs(std::size_t s, Syscall kind, BatterySelection b,
                     std::size_t next, double reward) {
  Observation obs;
  obs.state = s;
  obs.action = DecisionAction{Action{kind, 0}, b};
  obs.next_state = next;
  obs.reward = reward;
  return obs;
}

TEST(Mdp, StartsEmpty) {
  Mdp mdp;
  EXPECT_EQ(mdp.total_observations(), 0u);
  EXPECT_TRUE(mdp.visited_states().empty());
}

TEST(Mdp, ObserveAccumulatesCounts) {
  Mdp mdp;
  const auto obs =
      make_obs(3, Syscall::kScreenWake, BatterySelection::kLittle, 7, 0.8);
  mdp.observe(obs);
  mdp.observe(obs);
  EXPECT_EQ(mdp.total_observations(), 2u);
  EXPECT_EQ(mdp.count(3, obs.action.index()), 2u);
  EXPECT_EQ(mdp.count(3, obs.action.index(), 7), 2u);
  EXPECT_EQ(mdp.count(3, obs.action.index(), 8), 0u);
}

TEST(Mdp, TransitionDistributionNormalized) {
  Mdp mdp;
  mdp.observe(make_obs(1, Syscall::kCpuBurst, BatterySelection::kBig, 2, 0.5));
  mdp.observe(make_obs(1, Syscall::kCpuBurst, BatterySelection::kBig, 2, 0.5));
  mdp.observe(make_obs(1, Syscall::kCpuBurst, BatterySelection::kBig, 3, 0.5));
  const auto a =
      DecisionAction{Action{Syscall::kCpuBurst, 0}, BatterySelection::kBig};
  const auto dist = mdp.transition_distribution(1, a.index());
  EXPECT_NEAR(dist[2], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(dist[3], 1.0 / 3.0, 1e-12);
  double sum = 0.0;
  for (double p : dist) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Mdp, UnseenPairHasZeroDistribution) {
  Mdp mdp;
  const auto dist = mdp.transition_distribution(0, 0);
  for (double p : dist) EXPECT_DOUBLE_EQ(p, 0.0);
}

TEST(Mdp, MeanRewardPerTransitionAndPerAction) {
  Mdp mdp;
  mdp.observe(make_obs(1, Syscall::kCpuBurst, BatterySelection::kBig, 2, 0.4));
  mdp.observe(make_obs(1, Syscall::kCpuBurst, BatterySelection::kBig, 2, 0.8));
  mdp.observe(make_obs(1, Syscall::kCpuBurst, BatterySelection::kBig, 3, 1.0));
  const auto a =
      DecisionAction{Action{Syscall::kCpuBurst, 0}, BatterySelection::kBig};
  EXPECT_NEAR(mdp.mean_reward(1, a.index(), 2), 0.6, 1e-12);
  EXPECT_NEAR(mdp.mean_reward(1, a.index(), 3), 1.0, 1e-12);
  EXPECT_NEAR(mdp.mean_reward(1, a.index()), (0.4 + 0.8 + 1.0) / 3.0, 1e-12);
}

TEST(Mdp, VisitedStatesIncludeSourcesAndTargets) {
  Mdp mdp;
  mdp.observe(make_obs(5, Syscall::kAppLaunch, BatterySelection::kBig, 9, 0.5));
  const auto visited = mdp.visited_states();
  ASSERT_EQ(visited.size(), 2u);
  EXPECT_EQ(visited[0], 5u);
  EXPECT_EQ(visited[1], 9u);
}

TEST(Mdp, ObservedActionsRespectsMinCount) {
  Mdp mdp;
  const auto obs =
      make_obs(2, Syscall::kVideoFrame, BatterySelection::kBig, 2, 0.9);
  mdp.observe(obs);
  EXPECT_EQ(mdp.observed_actions(2, 1).size(), 1u);
  EXPECT_TRUE(mdp.observed_actions(2, 2).empty());
  mdp.observe(obs);
  EXPECT_EQ(mdp.observed_actions(2, 2).size(), 1u);
}

TEST(Mdp, ClearResetsEverything) {
  Mdp mdp;
  mdp.observe(make_obs(1, Syscall::kCpuBurst, BatterySelection::kBig, 2, 0.5));
  mdp.clear();
  EXPECT_EQ(mdp.total_observations(), 0u);
  EXPECT_TRUE(mdp.visited_states().empty());
}

// The dense (48 x A x 48) statistics Mdp kept before it went sparse, as
// the reference the sparse store must reproduce bit for bit.
class DenseMdp {
 public:
  DenseMdp(double decay, std::size_t actions)
      : decay_(decay),
        actions_(actions),
        counts_(state_space_size() * actions * state_space_size(), 0.0),
        reward_sums_(counts_.size(), 0.0),
        sa_counts_(state_space_size() * actions, 0.0),
        seen_(state_space_size(), 0) {}

  void observe(const Observation& obs) {
    const std::size_t a = obs.action.index();
    if (decay_ < 1.0) {
      for (std::size_t next = 0; next < state_space_size(); ++next) {
        counts_[flat(obs.state, a, next)] *= decay_;
        reward_sums_[flat(obs.state, a, next)] *= decay_;
      }
      sa_counts_[obs.state * actions_ + a] *= decay_;
    }
    counts_[flat(obs.state, a, obs.next_state)] += 1.0;
    reward_sums_[flat(obs.state, a, obs.next_state)] += obs.reward;
    sa_counts_[obs.state * actions_ + a] += 1.0;
    seen_[obs.state] = 1;
    seen_[obs.next_state] = 1;
  }
  double count(std::size_t s, std::size_t a) const {
    return sa_counts_[s * actions_ + a];
  }
  double count(std::size_t s, std::size_t a, std::size_t next) const {
    return counts_[flat(s, a, next)];
  }
  std::vector<double> transition_distribution(std::size_t s,
                                              std::size_t a) const {
    std::vector<double> dist(state_space_size(), 0.0);
    const double total = count(s, a);
    if (total <= 0.0) return dist;
    for (std::size_t next = 0; next < state_space_size(); ++next) {
      dist[next] = counts_[flat(s, a, next)] / total;
    }
    return dist;
  }
  double mean_reward(std::size_t s, std::size_t a, std::size_t next) const {
    const double n = counts_[flat(s, a, next)];
    return n > 0.0 ? reward_sums_[flat(s, a, next)] / n : 0.0;
  }
  double mean_reward(std::size_t s, std::size_t a) const {
    const double n = count(s, a);
    if (n <= 0.0) return 0.0;
    double sum = 0.0;
    for (std::size_t next = 0; next < state_space_size(); ++next) {
      sum += reward_sums_[flat(s, a, next)];
    }
    return sum / n;
  }
  std::vector<std::size_t> visited_states() const {
    std::vector<std::size_t> out;
    for (std::size_t s = 0; s < state_space_size(); ++s) {
      if (seen_[s] != 0) out.push_back(s);
    }
    return out;
  }
  std::vector<std::size_t> observed_actions(std::size_t s,
                                            double min_count) const {
    std::vector<std::size_t> out;
    for (std::size_t a = 0; a < actions_; ++a) {
      if (count(s, a) >= min_count) out.push_back(a);
    }
    return out;
  }
  void clear() {
    std::fill(counts_.begin(), counts_.end(), 0.0);
    std::fill(reward_sums_.begin(), reward_sums_.end(), 0.0);
    std::fill(sa_counts_.begin(), sa_counts_.end(), 0.0);
    std::fill(seen_.begin(), seen_.end(), 0);
  }

 private:
  std::size_t flat(std::size_t s, std::size_t a, std::size_t next) const {
    return (s * actions_ + a) * state_space_size() + next;
  }
  double decay_;
  std::size_t actions_;
  std::vector<double> counts_;
  std::vector<double> reward_sums_;
  std::vector<double> sa_counts_;
  std::vector<std::uint8_t> seen_;
};

void expect_same_statistics(const Mdp& sparse, const DenseMdp& dense,
                            std::size_t actions) {
  EXPECT_EQ(sparse.visited_states(), dense.visited_states());
  for (std::size_t s = 0; s < state_space_size(); ++s) {
    // Thresholds <= 0 admit the unobserved actions as well.
    for (const double min_count : {-1.0, 0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 5.0}) {
      EXPECT_EQ(sparse.observed_actions(s, min_count),
                dense.observed_actions(s, min_count));
    }
    for (std::size_t a = 0; a < actions; ++a) {
      ASSERT_EQ(sparse.count(s, a), dense.count(s, a)) << s << "/" << a;
      EXPECT_EQ(sparse.mean_reward(s, a), dense.mean_reward(s, a));
      EXPECT_EQ(sparse.transition_distribution(s, a),
                dense.transition_distribution(s, a));
      for (std::size_t next = 0; next < state_space_size(); ++next) {
        ASSERT_EQ(sparse.count(s, a, next), dense.count(s, a, next));
        ASSERT_EQ(sparse.mean_reward(s, a, next),
                  dense.mean_reward(s, a, next));
      }
    }
  }
}

TEST(Mdp, SparseStatisticsMatchDenseReference) {
  for (const std::size_t actions :
       {base_decision_action_space_size(), decision_action_space_size()}) {
    for (const double decay : {0.93, 1.0}) {
      SCOPED_TRACE(::testing::Message()
                   << "actions " << actions << ", decay " << decay);
      testutil::ObservationStream stream{
          static_cast<std::uint64_t>(actions) * 31 + (decay < 1.0 ? 1 : 0),
          actions};
      const auto feed = [&](Mdp& sparse, DenseMdp& dense, int n) {
        for (int i = 0; i < n; ++i) {
          const Observation obs = stream.next();
          sparse.observe(obs);
          dense.observe(obs);
        }
      };
      Mdp sparse{decay, actions};
      DenseMdp dense{decay, actions};
      feed(sparse, dense, 20000);
      EXPECT_EQ(sparse.total_observations(), 20000u);
      expect_same_statistics(sparse, dense, actions);

      sparse.clear();
      dense.clear();
      EXPECT_EQ(sparse.total_observations(), 0u);
      expect_same_statistics(sparse, dense, actions);
      feed(sparse, dense, 2000);
      expect_same_statistics(sparse, dense, actions);
    }
  }
}

TEST(Mdp, StoresOnlyObservedPairs) {
  for (const std::size_t actions :
       {base_decision_action_space_size(), decision_action_space_size()}) {
    SCOPED_TRACE(::testing::Message() << "actions " << actions);
    Mdp mdp{0.93, actions};
    EXPECT_EQ(MdpTestAccess::stored_pairs(mdp), 0u);
    testutil::ObservationStream stream{actions, actions};
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (int i = 0; i < 10000; ++i) {
      const Observation obs = stream.next();
      mdp.observe(obs);
      seen.emplace(obs.state, obs.action.index());
      if (i == 0 || i == 99 || i == 9999) {
        EXPECT_EQ(MdpTestAccess::stored_pairs(mdp), seen.size()) << i;
      }
    }
    mdp.clear();
    EXPECT_EQ(MdpTestAccess::stored_pairs(mdp), 0u);
  }
}

TEST(Mdp, BigLittleActionsAreDistinct) {
  const DecisionAction big{Action{Syscall::kCpuBurst, 3},
                           BatterySelection::kBig};
  const DecisionAction little{Action{Syscall::kCpuBurst, 3},
                              BatterySelection::kLittle};
  EXPECT_NE(big.index(), little.index());
  EXPECT_NE(to_string(big), to_string(little));
}

}  // namespace
}  // namespace capman::core
