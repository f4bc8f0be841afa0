// The bipartite MDP graph G_M = {V, Lambda, E, psi, p, r} of paper
// Section III-B: state vertices V, action vertices Lambda (one per observed
// (state, decision-action) pair), unweighted decision edges E from states
// to their action vertices, and transition edges psi from action vertices
// to successor states weighted by probability p and reward r. A state with
// no outgoing action vertex is absorbing (Eq. 3).
//
// G_M corresponds one-to-one with the MDP, so solving the graph (value
// iteration, structural similarity) solves the original problem.
#pragma once

#include <cstddef>
#include <vector>

#include "core/mdp.h"

namespace capman::core {

/// One psi edge: taking the owning action vertex lands in state `to` with
/// probability p, collecting reward r.
struct TransitionEdge {
  std::size_t to;      // state-vertex index
  double probability;  // p; the edges of one action vertex sum to 1
  double reward;       // r, in [0, 1]
};

/// One action vertex of Lambda: an observed (state, decision-action) pair
/// with its learned transition distribution. Its transition support is
/// what the EMD of Algorithm 1 compares across action pairs.
struct ActionVertex {
  std::size_t source;      // state-vertex index
  std::size_t action_id;   // DecisionAction::index()
  std::vector<TransitionEdge> transitions;  // psi edges
  /// Expected immediate reward sum(p * r).
  [[nodiscard]] double expected_reward() const;
};

/// One state vertex of V with its decision edges E. `actions` is the
/// action-neighbourhood N_u the Hausdorff step of Algorithm 1 compares.
struct StateVertex {
  std::size_t state_id;  // CapmanState::index()
  /// E edges: indices into action vertices. from_mdp appends them in
  /// ascending action_id, which OnlineScheduler's lookup relies on.
  std::vector<std::size_t> actions;
  /// No observed outgoing action: the Eq. 3 base cases pin this state's
  /// similarity row, and Algorithm 1 never recomputes it.
  [[nodiscard]] bool absorbing() const { return actions.empty(); }
};

class MdpGraph {
 public:
  MdpGraph() = default;

  /// Build from learned statistics; only (s, a) pairs with at least
  /// `min_observations` (possibly decayed) observations become action
  /// vertices, and only states that appear (as source or target) become
  /// state vertices.
  static MdpGraph from_mdp(const Mdp& mdp, double min_observations);

  /// Direct construction for synthetic graphs in tests/benches.
  static MdpGraph from_parts(std::vector<StateVertex> states,
                             std::vector<ActionVertex> actions);

  /// |V| — the side length of the state-similarity matrix.
  [[nodiscard]] std::size_t state_count() const { return states_.size(); }
  /// |Lambda| — the side length of the action-similarity matrix.
  [[nodiscard]] std::size_t action_count() const { return actions_.size(); }
  /// Vertex accessors; indices are dense in [0, count) and stable for the
  /// lifetime of the graph (solvers key matrices and caches by them).
  [[nodiscard]] const StateVertex& state(std::size_t i) const {
    return states_[i];
  }
  [[nodiscard]] const ActionVertex& action(std::size_t i) const {
    return actions_[i];
  }
  [[nodiscard]] const std::vector<StateVertex>& states() const {
    return states_;
  }
  [[nodiscard]] const std::vector<ActionVertex>& actions() const {
    return actions_;
  }

  /// Vertex index of a CapmanState index, or npos when absent.
  [[nodiscard]] std::size_t vertex_of(std::size_t state_id) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Maximum out-degree of action vertices (K_max of the paper's
  /// complexity analysis) and of state vertices (L_max).
  [[nodiscard]] std::size_t max_action_out_degree() const;
  [[nodiscard]] std::size_t max_state_out_degree() const;

 private:
  std::vector<StateVertex> states_;
  std::vector<ActionVertex> actions_;
  std::vector<std::size_t> state_to_vertex_;  // CapmanState id -> vertex
};

}  // namespace capman::core
