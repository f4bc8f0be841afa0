// Oracle baseline (paper Section V: "a baseline based on offline analysis,
// serving ground truth").
//
// Clairvoyant greedy with one-interval lookahead: the Oracle knows the
// trace, so at each event it clones both cells, simulates the coming
// interval's demand on each, and picks the battery whose *marginal*
// consumption (energy drawn from the wells, weighted by how scarce that
// cell's remaining energy is) is lower. A reserve floor keeps a sliver of
// LITTLE capacity for late surges. It is a greedy one-interval lookahead,
// not a bound on the online policies: they can outlive it (on the seed-42
// Fig. 12 traces Dual does on Geekbench, CAPMAN and Heuristic on PCMark).
#pragma once

#include <string>
#include <vector>

#include "policy/policy.h"

namespace capman::policy {

struct OracleConfig {
  double little_reserve_soc = 0.06;  // keep LITTLE above this for surges
  double scarcity_weight = 1.0;      // how strongly scarcity is penalized
  double lookahead_cap_s = 10.0;     // cap on simulated lookahead horizon

  /// Human-readable configuration errors; empty means valid. Checked by
  /// the OraclePolicy constructor (throws std::invalid_argument).
  [[nodiscard]] std::vector<std::string> validate() const;
};

class OraclePolicy final : public BatteryPolicy {
 public:
  explicit OraclePolicy(const OracleConfig& config = {});

  [[nodiscard]] std::string name() const override { return "Oracle"; }
  battery::BatterySelection on_event(const PolicyContext& context,
                                     const workload::Action& event) override;

 private:
  /// Marginal cost of serving the interval from `cell` (a copy, mutated).
  [[nodiscard]] double interval_cost(battery::Cell cell, double avg_w,
                                     double duration_s) const;

  OracleConfig config_;
};

}  // namespace capman::policy
