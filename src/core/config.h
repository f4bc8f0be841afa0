// CAPMAN runtime configuration (paper Section III / V).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/units.h"

namespace capman::core {

struct SimilarityConfig;
struct ValueIterationConfig;

struct CapmanConfig {
  // Discount factor rho: the competitiveness knob of the paper's
  // O(1/(1-rho)) bound and the x-axis of Fig. 16. The paper's example
  // relaxes rho to 0.05 for an O(1.05)-competitive bound; scheduling
  // quality favors a moderate discount.
  double rho = 0.80;

  // Similarity discounts (Algorithm 1). The bound of Eq. 10 is proved for
  // C_S = 1, C_A = rho; runtime calibration may use softer values.
  double c_s = 1.0;
  double c_a = 0.80;

  // Convergence precision epsilon for Algorithm 1 and value iteration.
  double epsilon = 0.01;
  std::size_t max_iterations = 60;

  // Distance d_{u,v} between two absorbing states (Eq. 3 base case).
  double absorbing_distance = 1.0;

  // Similarity-engine knobs (see SimilarityConfig in core/similarity.h).
  // Threads for the per-sweep pair fan-out of Algorithm 1; 0 = one per
  // hardware core. Bit-identical results for every value.
  std::size_t similarity_threads = 0;

  // Background recalibration cadence: how often the MDP graph is rebuilt
  // and Algorithm 1 re-run ("executed when the device is not busy at the
  // background").
  util::Seconds recalibration_interval{20.0};
  // Minimum (decayed) observations of a (state, action) pair before its
  // statistics are trusted in the graph.
  double min_observations = 1.5;
  // Exponential forgetting of per-pair statistics: new observations fade
  // old evidence so the learned model tracks the battery's aging reality
  // within a discharge cycle.
  double recency_decay = 0.93;

  // Exploration schedule for online learning (epsilon-greedy, decaying).
  double exploration_initial = 0.35;
  double exploration_decay_per_event = 0.9995;
  double exploration_floor = 0.01;

  // Minimum dwell between voluntary battery switches (the switch facility
  // itself takes ~1 ms; this avoids pathological chatter).
  util::Seconds min_switch_dwell{0.25};

  // CPU power charged for maintaining the MDP representation (the reason
  // CAPMAN ties with Dual/Heuristic on stationary Geekbench, Fig. 12a).
  util::Watts maintenance_power = util::milliwatts(25.0);

  // Learn the power-budget level jointly with the battery selection: the
  // action space grows from syscall x battery to syscall x battery x
  // BudgetLevel and decide() returns the level of the winning action.
  // Off by default — the decision path is then bit-identical to the
  // pre-budget scheduler and the MDP allocates only the kFull plane.
  bool learn_budget = false;

  /// The similarity-engine view of this config (Algorithm 1 knobs).
  /// Runtime bindings (metrics registry, timing switch) stay at the call
  /// site — see OnlineScheduler::recalibrate().
  [[nodiscard]] SimilarityConfig similarity_config() const;
  /// The Bellman-solver view of this config (Eq. 6-9 knobs).
  [[nodiscard]] ValueIterationConfig value_iteration_config() const;

  /// Human-readable configuration errors; empty means valid. Checks this
  /// struct's own knobs and the derived similarity / value-iteration
  /// configs. Checked by the CapmanController constructor (throws
  /// std::invalid_argument).
  [[nodiscard]] std::vector<std::string> validate() const;
};

}  // namespace capman::core
