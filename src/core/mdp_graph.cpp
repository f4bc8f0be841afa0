#include "core/mdp_graph.h"

#include <algorithm>
#include <cassert>

namespace capman::core {

double ActionVertex::expected_reward() const {
  double sum = 0.0;
  for (const TransitionEdge& e : transitions) sum += e.probability * e.reward;
  return sum;
}

MdpGraph MdpGraph::from_mdp(const Mdp& mdp, double min_observations) {
  MdpGraph graph;
  graph.state_to_vertex_.assign(state_space_size(), npos);

  // First pass: collect the states that will appear.
  const auto visited = mdp.visited_states();
  for (std::size_t state_id : visited) {
    graph.state_to_vertex_[state_id] = graph.states_.size();
    graph.states_.push_back({state_id, {}});
  }

  // Second pass: action vertices and transition edges, straight from the
  // stored pairs (ascending action) and successors (ascending next). The
  // probability and reward are Mdp::transition_distribution's and
  // Mdp::mean_reward's expressions, so every edge is bit-equal to theirs.
  const double min_count = std::max(min_observations, 0.5);
  for (std::size_t vi = 0; vi < graph.states_.size(); ++vi) {
    for (const Mdp::PairStats& pair : mdp.pairs(graph.states_[vi].state_id)) {
      if (!(pair.count >= min_count)) continue;
      ActionVertex av;
      av.source = vi;
      av.action_id = pair.action;
      for (const Mdp::Successor& c : pair.successors) {
        const double probability = c.count / pair.count;
        if (probability <= 0.0) continue;
        const std::size_t target_vertex = graph.state_to_vertex_[c.next];
        assert(target_vertex != npos);  // targets were observed, so present
        av.transitions.push_back(
            {target_vertex, probability, c.reward_sum / c.count});
      }
      if (av.transitions.empty()) continue;
      graph.states_[vi].actions.push_back(graph.actions_.size());
      graph.actions_.push_back(std::move(av));
    }
  }
  return graph;
}

MdpGraph MdpGraph::from_parts(std::vector<StateVertex> states,
                              std::vector<ActionVertex> actions) {
  MdpGraph graph;
  graph.states_ = std::move(states);
  graph.actions_ = std::move(actions);
  graph.state_to_vertex_.assign(state_space_size(), npos);
  for (std::size_t i = 0; i < graph.states_.size(); ++i) {
    if (graph.states_[i].state_id < graph.state_to_vertex_.size()) {
      graph.state_to_vertex_[graph.states_[i].state_id] = i;
    }
  }
  return graph;
}

std::size_t MdpGraph::vertex_of(std::size_t state_id) const {
  if (state_id >= state_to_vertex_.size()) return npos;
  return state_to_vertex_[state_id];
}

std::size_t MdpGraph::max_action_out_degree() const {
  std::size_t k = 0;
  for (const auto& a : actions_) k = std::max(k, a.transitions.size());
  return k;
}

std::size_t MdpGraph::max_state_out_degree() const {
  std::size_t l = 0;
  for (const auto& s : states_) l = std::max(l, s.actions.size());
  return l;
}

}  // namespace capman::core
