// The online CAPMAN scheduler (paper Section III-C/D).
//
// Learns the MDP from runtime observations, periodically re-solves it in
// the background (value iteration on the MDP graph + Algorithm 1 structural
// similarities), and answers battery-selection queries in O(1):
//   1. exact: the Q-values of (state, syscall, big) vs (..., LITTLE) from
//      the last solve;
//   2. similarity transfer: for unseen combinations, reuse the decision of
//      the most structurally similar state that has the experience — this
//      is precisely what the similarity index buys ("the decision can be
//      extracted from history patterns without recomputing the graph");
//   3. fallback: a syscall-kind prior (surge-type calls -> LITTLE).
// Epsilon-greedy exploration (decaying) drives early learning, which is why
// CAPMAN "drains fast in the beginning" on PCMark (Fig. 12b) and then
// catches up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/mdp.h"
#include "core/mdp_graph.h"
#include "core/similarity.h"
#include "core/value_iteration.h"
#include "obs/decision_trace.h"
#include "obs/instrumented.h"
#include "workload/event.h"
#include "util/rng.h"

namespace capman::core {

/// One scheduler consultation. Grew out of decide()'s positional argument
/// list: every new observable (the granted budget level, tomorrow's
/// whatever) lands here instead of at every call site.
struct DecideRequest {
  workload::Action event;
  device::DeviceStateVector device;
  battery::BatterySelection current = battery::BatterySelection::kBig;
  /// Budget level currently in force (what the arbiter granted last);
  /// ignored for indexing unless CapmanConfig::learn_budget is set.
  BudgetLevel budget = BudgetLevel::kFull;
  /// False for emergency (rail-monitor) consultations: a sagging rail is
  /// no time to experiment.
  bool allow_exploration = true;
};

/// The scheduler's answer: the cell for the coming interval plus the
/// voluntary budget level to ask the arbiter for. Without budget learning
/// the level simply echoes the request.
struct DecideResult {
  battery::BatterySelection battery = battery::BatterySelection::kBig;
  BudgetLevel budget = BudgetLevel::kFull;
};

struct DecisionStats {
  std::size_t exact = 0;        // answered from solved Q-values
  std::size_t transferred = 0;  // answered via similarity transfer
  std::size_t fallback = 0;     // answered by the syscall-kind prior
  std::size_t explored = 0;     // answered randomly (exploration)
  [[nodiscard]] std::size_t total() const {
    return exact + transferred + fallback + explored;
  }

  /// Publish the counters into `registry` under scheduler/decisions_*.
  /// The struct is cumulative over a run, so publish once, when the run
  /// is over (the engine does) — not per decision.
  void publish(obs::MetricsRegistry& registry) const;
};

struct SchedulerTestAccess;

class OnlineScheduler : public obs::Instrumented {
 public:
  OnlineScheduler(const CapmanConfig& config, std::uint64_t seed);

  /// Feed one completed interval observation into the learned MDP.
  void observe(const Observation& obs);

  /// Decision for the consultation described by `req`. Without budget
  /// learning this runs the pre-budget ladder bit-identically (level-kFull
  /// action indices, same RNG draws) and echoes req.budget; with
  /// CapmanConfig::learn_budget the Q comparison additionally ranges over
  /// budget levels and the result carries the level of the winning action.
  DecideResult decide(const DecideRequest& req);

  /// Advance the exploration schedule to simulation time `now` (seconds).
  void advance_time(double now_s);

  /// Rebuild the graph, run Algorithm 1 (warm-started from the previous
  /// recalibration's graph and similarities) and value iteration. Returns
  /// the wall-clock seconds the solve took (the controller charges it as
  /// CPU maintenance work).
  double recalibrate();

  [[nodiscard]] const Mdp& mdp() const { return mdp_; }
  [[nodiscard]] const MdpGraph& graph() const { return graph_; }
  [[nodiscard]] const SimilarityResult& similarity() const {
    return similarity_;
  }
  [[nodiscard]] const ValueIterationResult& values() const { return values_; }
  [[nodiscard]] const DecisionStats& decision_stats() const { return stats_; }
  [[nodiscard]] double exploration_rate() const { return exploration_; }
  [[nodiscard]] std::size_t recalibration_count() const { return recals_; }

  /// Provenance of the most recent decide() call: which rung of the
  /// decision ladder answered, the Q estimates it compared, and (for
  /// similarity transfer) the state whose experience was reused. Feeds the
  /// decision-trace recorder; valid until the next decide().
  [[nodiscard]] const obs::DecisionDetail& last_decision_detail() const {
    return last_detail_;
  }

  // bind_metrics (obs::Instrumented) attaches solve-side telemetry:
  // Algorithm 1 pair counters per recalibration, value-iteration sweeps,
  // graph sizes; publish_timings additionally exports wall-clock solve
  // timings (the one nondeterministic measurement).

  /// The syscall-kind prior used as last resort (exposed for tests); the
  /// parameter bucket disambiguates spike-like from sustained calls.
  static battery::BatterySelection kind_prior(workload::Syscall kind,
                                              std::uint8_t param_bucket = 9);

 private:
  // tests/core/scheduler_controller_test.cpp
  friend struct SchedulerTestAccess;

  /// Q-value of (state_id, action_id) from the last solve, or NaN.
  [[nodiscard]] double solved_q(std::size_t state_id,
                                std::size_t action_id) const;
  /// Best solved Q for (state, syscall, battery) over the budget levels
  /// the scheduler may pick (just kFull without budget learning), or NaN.
  /// `best_level` (if non-null) receives the winning level; ties break
  /// toward the higher budget (lower level index).
  [[nodiscard]] double best_q_over_levels(std::size_t state_id,
                                          const workload::Action& event,
                                          battery::BatterySelection battery,
                                          BudgetLevel* best_level) const;
  /// Best similarity-transferred Q estimate for (state, syscall-kind,
  /// battery), or NaN when nothing transferable exists. When it answers,
  /// `matched_state` (if non-null) receives the CapmanState::index() of
  /// the state whose experience was reused, and `matched_level` the
  /// budget level of the matched action.
  [[nodiscard]] double transferred_q(std::size_t state_id,
                                     workload::Syscall kind,
                                     battery::BatterySelection battery,
                                     std::int64_t* matched_state,
                                     BudgetLevel* matched_level) const;

  CapmanConfig config_;
  util::Rng rng_;
  Mdp mdp_;
  MdpGraph graph_;
  SimilarityResult similarity_;
  ValueIterationResult values_;
  // transferred_q's candidates: the action vertices of the last solve by
  // (syscall kind, battery), at kind * 2 + (LITTLE ? 1 : 0), each bucket
  // in ascending vertex order.
  std::vector<std::vector<std::size_t>> transfer_candidates_ =
      std::vector<std::vector<std::size_t>>(workload::kSyscallCount * 2);
  DecisionStats stats_;
  obs::DecisionDetail last_detail_;
  double exploration_;
  double last_time_s_ = 0.0;
  std::size_t recals_ = 0;
};

}  // namespace capman::core
