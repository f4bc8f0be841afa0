#include "core/mdp.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace capman::core {

std::string to_string(const DecisionAction& a) {
  std::string out = workload::to_string(a.syscall) + "/" +
                    std::string{battery::to_string(a.battery)};
  if (a.budget != BudgetLevel::kFull) {
    out += "/";
    out += to_string(a.budget);
  }
  return out;
}

namespace {

// lower_bound over a vector sorted by the index member `field`.
template <typename Vec, typename Field>
auto lower_bound_by(Vec& v, std::size_t key, Field field) {
  return std::lower_bound(
      v.begin(), v.end(), key,
      [field](const auto& e, std::size_t k) { return e.*field < k; });
}

}  // namespace

Mdp::Mdp(double recency_decay, std::size_t action_count)
    : recency_decay_(recency_decay),
      action_count_(action_count),
      pairs_(state_space_size()),
      state_seen_(state_space_size(), 0) {
  assert(recency_decay_ > 0.0 && recency_decay_ <= 1.0);
  assert(action_count_ > 0 && action_count_ <= decision_action_space_size());
}

const Mdp::PairStats* Mdp::find(std::size_t s, std::size_t a) const {
  const auto& stored = pairs_[s];
  const auto it = lower_bound_by(stored, a, &PairStats::action);
  return it != stored.end() && it->action == a ? &*it : nullptr;
}

const Mdp::Successor* Mdp::find(std::size_t s, std::size_t a,
                                std::size_t next) const {
  const PairStats* p = find(s, a);
  if (p == nullptr) return nullptr;
  const auto it = lower_bound_by(p->successors, next, &Successor::next);
  return it != p->successors.end() && it->next == next ? &*it : nullptr;
}

void Mdp::observe(const Observation& obs) {
  assert(obs.state < state_space_size());
  assert(obs.next_state < state_space_size());
  assert(obs.action.index() < action_count_);
  assert(obs.reward >= 0.0 && obs.reward <= 1.0);
  auto& stored = pairs_[obs.state];
  const std::size_t a = obs.action.index();
  auto pit = lower_bound_by(stored, a, &PairStats::action);
  if (pit == stored.end() || pit->action != a) {
    pit = stored.insert(pit, PairStats{a, 0.0, {}});
  }
  PairStats& p = *pit;
  if (recency_decay_ < 1.0) {
    // Fade this pair's prior evidence before adding the new sample.
    // Unobserved successors hold zero evidence, which decay keeps at zero.
    for (Successor& c : p.successors) {
      c.count *= recency_decay_;
      c.reward_sum *= recency_decay_;
    }
    p.count *= recency_decay_;
  }
  auto it = lower_bound_by(p.successors, obs.next_state, &Successor::next);
  if (it == p.successors.end() || it->next != obs.next_state) {
    it = p.successors.insert(it, {obs.next_state, 0.0, 0.0});
  }
  it->count += 1.0;
  it->reward_sum += obs.reward;
  p.count += 1.0;
  state_seen_[obs.state] = 1;
  state_seen_[obs.next_state] = 1;
  ++total_;
}

double Mdp::count(std::size_t s, std::size_t a) const {
  const PairStats* p = find(s, a);
  return p != nullptr ? p->count : 0.0;
}

double Mdp::count(std::size_t s, std::size_t a, std::size_t next) const {
  const Successor* c = find(s, a, next);
  return c != nullptr ? c->count : 0.0;
}

std::vector<double> Mdp::transition_distribution(std::size_t s,
                                                 std::size_t a) const {
  std::vector<double> dist(state_space_size(), 0.0);
  const PairStats* p = find(s, a);
  if (p == nullptr || p->count <= 0.0) return dist;
  for (const Successor& c : p->successors) dist[c.next] = c.count / p->count;
  return dist;
}

double Mdp::mean_reward(std::size_t s, std::size_t a,
                        std::size_t next) const {
  const Successor* c = find(s, a, next);
  return c != nullptr && c->count > 0.0 ? c->reward_sum / c->count : 0.0;
}

double Mdp::mean_reward(std::size_t s, std::size_t a) const {
  const PairStats* p = find(s, a);
  if (p == nullptr || p->count <= 0.0) return 0.0;
  // Ascending `next`, as a sum over all 48 successors would run; the
  // unobserved ones would only add exact zeros.
  double sum = 0.0;
  for (const Successor& c : p->successors) sum += c.reward_sum;
  return sum / p->count;
}

std::vector<std::size_t> Mdp::visited_states() const {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < state_space_size(); ++s) {
    if (state_seen_[s] != 0) out.push_back(s);
  }
  return out;
}

std::vector<std::size_t> Mdp::observed_actions(std::size_t s,
                                               double min_count) const {
  std::vector<std::size_t> out;
  if (min_count <= 0.0) {
    // An unobserved action's count, 0, clears a threshold <= 0 too.
    out.resize(action_count_);
    std::iota(out.begin(), out.end(), std::size_t{0});
    return out;
  }
  for (const PairStats& p : pairs_[s]) {
    if (p.count >= min_count) out.push_back(p.action);
  }
  return out;
}

void Mdp::clear() {
  for (auto& stored : pairs_) stored.clear();
  std::fill(state_seen_.begin(), state_seen_.end(), 0);
  total_ = 0;
}

}  // namespace capman::core
