// Shared helpers for building synthetic MDP graphs in core tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/mdp_graph.h"
#include "util/rng.h"

namespace capman::core::testutil {

/// A random MDP graph with `n_states` states (the last `n_absorbing` of
/// which are absorbing), 1..max_actions actions per non-absorbing state and
/// 1..max_fanout transitions per action (probabilities normalized, rewards
/// uniform in [0,1]).
inline MdpGraph random_graph(util::Rng& rng, std::size_t n_states,
                             std::size_t n_absorbing,
                             std::size_t max_actions = 3,
                             std::size_t max_fanout = 3) {
  std::vector<StateVertex> states(n_states);
  std::vector<ActionVertex> actions;
  for (std::size_t s = 0; s < n_states; ++s) {
    states[s].state_id = s;
    if (s + n_absorbing >= n_states) continue;  // absorbing
    const std::size_t n_act = 1 + rng.uniform_index(max_actions);
    for (std::size_t a = 0; a < n_act; ++a) {
      ActionVertex av;
      av.source = s;
      av.action_id = actions.size() % decision_action_space_size();
      const std::size_t fanout = 1 + rng.uniform_index(max_fanout);
      double total = 0.0;
      for (std::size_t t = 0; t < fanout; ++t) {
        TransitionEdge e;
        e.to = rng.uniform_index(n_states);
        e.probability = rng.uniform(0.1, 1.0);
        e.reward = rng.uniform();
        total += e.probability;
        av.transitions.push_back(e);
      }
      for (auto& e : av.transitions) e.probability /= total;
      states[s].actions.push_back(actions.size());
      actions.push_back(std::move(av));
    }
  }
  return MdpGraph::from_parts(std::move(states), std::move(actions));
}

/// A tiny deterministic two-state chain: s0 --a0(r=r0)--> s1 (absorbing).
inline MdpGraph two_state_chain(double r0) {
  std::vector<StateVertex> states(2);
  states[0].state_id = 0;
  states[1].state_id = 1;
  ActionVertex a;
  a.source = 0;
  a.action_id = 0;
  a.transitions.push_back({1, 1.0, r0});
  states[0].actions.push_back(0);
  std::vector<ActionVertex> actions{a};
  return MdpGraph::from_parts(std::move(states), std::move(actions));
}

/// Random observations shaped like a learned MDP's stream: 24 hot actions
/// spread over an `actions`-wide plane (its last index included) so pairs
/// repeat, decay runs over many stored successors and most (state, action)
/// cells stay empty; 80% of successors fall among the first six states,
/// the rest anywhere, so both repeated and new successors keep arriving.
class ObservationStream {
 public:
  ObservationStream(std::uint64_t seed, std::size_t actions)
      : rng_(seed), hot_{0, actions - 1} {
    while (hot_.size() < 24) hot_.push_back(rng_.uniform_index(actions));
  }

  Observation next() {
    Observation obs;
    obs.state = rng_.uniform_index(state_space_size());
    obs.action =
        DecisionAction::from_index(hot_[rng_.uniform_index(hot_.size())]);
    obs.next_state = rng_.chance(0.8) ? rng_.uniform_index(6)
                                      : rng_.uniform_index(state_space_size());
    obs.reward = rng_.uniform();
    return obs;
  }

 private:
  util::Rng rng_;
  std::vector<std::size_t> hot_;
};

}  // namespace capman::core::testutil
