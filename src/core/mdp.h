// The learned MDP M = {S, A, T, R} (paper Section III-B).
//
// States: combined device-power/battery states (core/state.h).
// Actions: a decision action pairs the system call that fired (the
// environment's move) with the battery selection CAPMAN answers with and,
// when budget learning is on, the voluntary power-budget level (both
// controllable moves). Transition and reward statistics are estimated
// online from observations; rewards are normalized energy efficiencies in
// [0, 1] (the paper: "the reward is a function of a normalized variable in
// [0,1]").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "battery/switcher.h"
#include "core/budget_level.h"
#include "core/state.h"
#include "workload/event.h"

namespace capman::core {

/// The (syscall, battery) plane of the action space. The budget level is
/// the major index digit, so level-kFull actions occupy exactly the
/// indices the pre-budget encoding used: schedulers that never leave
/// kFull draw identical indices (and identical random numbers) as before
/// the budget dimension existed — the bit-identity contract.
inline constexpr std::size_t base_decision_action_space_size() {
  return workload::action_space_size() * 2;
}

struct DecisionAction {
  workload::Action syscall;
  battery::BatterySelection battery = battery::BatterySelection::kBig;
  BudgetLevel budget = BudgetLevel::kFull;

  friend bool operator==(const DecisionAction&,
                         const DecisionAction&) = default;

  [[nodiscard]] std::size_t index() const {
    return static_cast<std::size_t>(budget) * base_decision_action_space_size() +
           syscall.index() * 2 +
           (battery == battery::BatterySelection::kLittle ? 1 : 0);
  }
  static DecisionAction from_index(std::size_t index) {
    const std::size_t base = index % base_decision_action_space_size();
    return {workload::Action::from_index(base / 2),
            (base % 2 == 1) ? battery::BatterySelection::kLittle
                            : battery::BatterySelection::kBig,
            static_cast<BudgetLevel>(index / base_decision_action_space_size())};
  }
};

inline constexpr std::size_t decision_action_space_size() {
  return base_decision_action_space_size() * kBudgetLevelCount;
}

std::string to_string(const DecisionAction& a);

struct Observation {
  std::size_t state;        // CapmanState index
  DecisionAction action;
  std::size_t next_state;   // CapmanState index
  double reward;            // [0, 1]
};

struct MdpTestAccess;

/// Sparse transition/reward statistics over the 48-state space. Each state
/// keeps only the actions it has been observed to take, in ascending action
/// index, and each such (state, action) pair keeps only the successor
/// states it has been observed to reach, in ascending successor index. So
/// memory grows with the observations rather than with (48 x A), and every
/// walk over the stored pairs runs in the order a dense scan would.
///
/// `recency_decay` < 1 turns the statistics into exponentially weighted
/// windows: each new observation of a (state, action) pair first scales the
/// pair's existing evidence by the decay. The runtime scheduler uses this
/// so stale rewards (e.g. "big handled this fine" from when the cell was
/// full) fade once reality changes; 1.0 keeps plain arithmetic statistics.
///
/// `action_count` sizes the action axis: schedulers without budget
/// learning use only the base (syscall x battery) plane. Observations
/// must stay inside that plane (asserted).
class Mdp {
 public:
  /// One observed successor of a (state, action) pair; decayed.
  struct Successor {
    std::size_t next;
    double count;
    double reward_sum;
  };
  /// One observed (state, action) pair.
  struct PairStats {
    std::size_t action;                 // DecisionAction::index()
    double count = 0.0;                 // decayed, over all successors
    std::vector<Successor> successors;  // ascending `next`
  };

  explicit Mdp(double recency_decay = 1.0,
               std::size_t action_count = decision_action_space_size());

  void observe(const Observation& obs);

  [[nodiscard]] std::uint64_t total_observations() const { return total_; }
  [[nodiscard]] double count(std::size_t s, std::size_t a) const;
  [[nodiscard]] double count(std::size_t s, std::size_t a,
                             std::size_t next) const;

  /// Empirical P(next | s, a); zero vector if the pair was never seen.
  [[nodiscard]] std::vector<double> transition_distribution(
      std::size_t s, std::size_t a) const;

  /// Empirical mean reward of (s, a, next); 0 if unseen.
  [[nodiscard]] double mean_reward(std::size_t s, std::size_t a,
                                   std::size_t next) const;
  /// Empirical mean reward of (s, a) across next states; 0 if unseen.
  [[nodiscard]] double mean_reward(std::size_t s, std::size_t a) const;

  /// State indices observed at least once (as source or target).
  [[nodiscard]] std::vector<std::size_t> visited_states() const;
  /// Action indices with at least `min_count` (decayed) observations from
  /// state s, ascending. A `min_count` <= 0 admits every action in the
  /// plane, observed or not.
  [[nodiscard]] std::vector<std::size_t> observed_actions(
      std::size_t s, double min_count) const;
  /// The observed pairs of state s, in ascending action index.
  [[nodiscard]] const std::vector<PairStats>& pairs(std::size_t s) const {
    return pairs_[s];
  }

  void clear();

  [[nodiscard]] std::size_t action_count() const { return action_count_; }

 private:
  friend struct MdpTestAccess;  // tests/core/mdp_test.cpp

  /// The stored pair (s, a), or nullptr if never observed.
  [[nodiscard]] const PairStats* find(std::size_t s, std::size_t a) const;
  /// The stored successor `next` of (s, a), or nullptr if never observed.
  [[nodiscard]] const Successor* find(std::size_t s, std::size_t a,
                                      std::size_t next) const;

  double recency_decay_;
  std::size_t action_count_;
  std::vector<std::vector<PairStats>> pairs_;  // [s], ascending action
  std::vector<std::uint8_t> state_seen_;
  std::uint64_t total_ = 0;
};

}  // namespace capman::core
