#include "core/mdp_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph_test_util.h"

namespace capman::core {
namespace {

using battery::BatterySelection;
using workload::Action;
using workload::Syscall;

Observation make_obs(std::size_t s, std::size_t next, double reward,
                     Syscall kind = Syscall::kCpuBurst,
                     BatterySelection b = BatterySelection::kBig) {
  Observation obs;
  obs.state = s;
  obs.action = DecisionAction{Action{kind, 0}, b};
  obs.next_state = next;
  obs.reward = reward;
  return obs;
}

TEST(MdpGraph, EmptyMdpGivesEmptyGraph) {
  Mdp mdp;
  const auto graph = MdpGraph::from_mdp(mdp, 1);
  EXPECT_EQ(graph.state_count(), 0u);
  EXPECT_EQ(graph.action_count(), 0u);
}

TEST(MdpGraph, BuildsBipartiteStructure) {
  Mdp mdp;
  mdp.observe(make_obs(1, 2, 0.5));
  mdp.observe(make_obs(1, 3, 0.7));
  const auto graph = MdpGraph::from_mdp(mdp, 1);
  ASSERT_EQ(graph.state_count(), 3u);  // states 1, 2, 3
  ASSERT_EQ(graph.action_count(), 1u);
  const auto& av = graph.action(0);
  EXPECT_EQ(graph.state(av.source).state_id, 1u);
  ASSERT_EQ(av.transitions.size(), 2u);
  double p_total = 0.0;
  for (const auto& t : av.transitions) p_total += t.probability;
  EXPECT_NEAR(p_total, 1.0, 1e-12);
}

TEST(MdpGraph, TargetsWithoutActionsAreAbsorbing) {
  Mdp mdp;
  mdp.observe(make_obs(1, 2, 0.5));
  const auto graph = MdpGraph::from_mdp(mdp, 1);
  const std::size_t v2 = graph.vertex_of(2);
  ASSERT_NE(v2, MdpGraph::npos);
  EXPECT_TRUE(graph.state(v2).absorbing());
  EXPECT_FALSE(graph.state(graph.vertex_of(1)).absorbing());
}

TEST(MdpGraph, MinObservationsFiltersRarePairs) {
  Mdp mdp;
  mdp.observe(make_obs(1, 2, 0.5));
  EXPECT_EQ(MdpGraph::from_mdp(mdp, 2).action_count(), 0u);
  mdp.observe(make_obs(1, 2, 0.5));
  EXPECT_EQ(MdpGraph::from_mdp(mdp, 2).action_count(), 1u);
}

TEST(MdpGraph, VertexOfUnknownStateIsNpos) {
  Mdp mdp;
  mdp.observe(make_obs(1, 2, 0.5));
  const auto graph = MdpGraph::from_mdp(mdp, 1);
  EXPECT_EQ(graph.vertex_of(40), MdpGraph::npos);
  EXPECT_EQ(graph.vertex_of(9999), MdpGraph::npos);
}

TEST(MdpGraph, ExpectedRewardIsProbabilityWeighted) {
  Mdp mdp;
  mdp.observe(make_obs(1, 2, 1.0));
  mdp.observe(make_obs(1, 3, 0.0));
  mdp.observe(make_obs(1, 3, 0.0));
  const auto graph = MdpGraph::from_mdp(mdp, 1);
  ASSERT_EQ(graph.action_count(), 1u);
  // P(2)=1/3 with r=1, P(3)=2/3 with r=0.
  EXPECT_NEAR(graph.action(0).expected_reward(), 1.0 / 3.0, 1e-12);
}

TEST(MdpGraph, SeparatesActionsByBatteryChoice) {
  Mdp mdp;
  mdp.observe(make_obs(1, 2, 0.9, Syscall::kCpuBurst, BatterySelection::kBig));
  mdp.observe(
      make_obs(1, 3, 0.4, Syscall::kCpuBurst, BatterySelection::kLittle));
  const auto graph = MdpGraph::from_mdp(mdp, 1);
  EXPECT_EQ(graph.action_count(), 2u);
  EXPECT_EQ(graph.state(graph.vertex_of(1)).actions.size(), 2u);
}

TEST(MdpGraph, OutDegreeStatistics) {
  util::Rng rng{11};
  const auto graph = testutil::random_graph(rng, 10, 2, 4, 3);
  EXPECT_LE(graph.max_action_out_degree(), 3u);
  EXPECT_GE(graph.max_action_out_degree(), 1u);
  EXPECT_LE(graph.max_state_out_degree(), 4u);
}

TEST(MdpGraph, FromPartsPreservesStructure) {
  const auto graph = testutil::two_state_chain(0.5);
  EXPECT_EQ(graph.state_count(), 2u);
  EXPECT_EQ(graph.action_count(), 1u);
  EXPECT_TRUE(graph.state(1).absorbing());
  EXPECT_EQ(graph.vertex_of(0), 0u);
  EXPECT_EQ(graph.vertex_of(1), 1u);
}

// The graph as from_mdp built it from the public accessors before it
// walked the stored pairs: an A-wide observed_actions scan per state and a
// 48-wide transition distribution per action vertex.
MdpGraph graph_from_accessors(const Mdp& mdp, double min_observations) {
  std::vector<StateVertex> states;
  std::vector<ActionVertex> actions;
  std::vector<std::size_t> vertex_of(state_space_size(), MdpGraph::npos);
  for (std::size_t state_id : mdp.visited_states()) {
    vertex_of[state_id] = states.size();
    states.push_back({state_id, {}});
  }
  for (std::size_t vi = 0; vi < states.size(); ++vi) {
    const std::size_t state_id = states[vi].state_id;
    for (std::size_t action_id : mdp.observed_actions(
             state_id, std::max(min_observations, 0.5))) {
      ActionVertex av{vi, action_id, {}};
      const auto dist = mdp.transition_distribution(state_id, action_id);
      for (std::size_t next = 0; next < dist.size(); ++next) {
        if (dist[next] <= 0.0) continue;
        av.transitions.push_back({vertex_of[next], dist[next],
                                  mdp.mean_reward(state_id, action_id, next)});
      }
      if (av.transitions.empty()) continue;
      states[vi].actions.push_back(actions.size());
      actions.push_back(std::move(av));
    }
  }
  return MdpGraph::from_parts(std::move(states), std::move(actions));
}

void expect_identical_graphs(const MdpGraph& got, const MdpGraph& want) {
  ASSERT_EQ(got.state_count(), want.state_count());
  ASSERT_EQ(got.action_count(), want.action_count());
  for (std::size_t i = 0; i < want.state_count(); ++i) {
    EXPECT_EQ(got.state(i).state_id, want.state(i).state_id);
    EXPECT_EQ(got.state(i).actions, want.state(i).actions);
    EXPECT_EQ(got.vertex_of(want.state(i).state_id), i);
  }
  for (std::size_t i = 0; i < want.action_count(); ++i) {
    const ActionVertex& g = got.action(i);
    const ActionVertex& w = want.action(i);
    EXPECT_EQ(g.source, w.source);
    EXPECT_EQ(g.action_id, w.action_id);
    ASSERT_EQ(g.transitions.size(), w.transitions.size()) << i;
    for (std::size_t e = 0; e < w.transitions.size(); ++e) {
      EXPECT_EQ(g.transitions[e].to, w.transitions[e].to);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.transitions[e].probability),
                std::bit_cast<std::uint64_t>(w.transitions[e].probability));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.transitions[e].reward),
                std::bit_cast<std::uint64_t>(w.transitions[e].reward));
    }
  }
}

TEST(MdpGraph, FromMdpMatchesAccessorBuild) {
  for (const std::size_t actions :
       {base_decision_action_space_size(), decision_action_space_size()}) {
    for (const double decay : {0.93, 1.0}) {
      SCOPED_TRACE(::testing::Message()
                   << "actions " << actions << ", decay " << decay);
      testutil::ObservationStream stream{actions + 7, actions};
      Mdp mdp{decay, actions};
      for (int i = 0; i < 10000; ++i) {
        mdp.observe(stream.next());
        if (i != 99 && i != 9999) continue;
        // Thresholds below 0.5 clamp to it; 1.5 is the scheduler default.
        for (const double min_obs : {0.0, 1.0, 1.5, 2.5}) {
          SCOPED_TRACE(::testing::Message()
                       << "after " << i + 1 << ", min " << min_obs);
          const MdpGraph graph = MdpGraph::from_mdp(mdp, min_obs);
          expect_identical_graphs(graph, graph_from_accessors(mdp, min_obs));
          // The scheduler's lookup binary-searches these lists.
          for (const StateVertex& v : graph.states()) {
            for (std::size_t k = 1; k < v.actions.size(); ++k) {
              EXPECT_LT(graph.action(v.actions[k - 1]).action_id,
                        graph.action(v.actions[k]).action_id);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace capman::core
