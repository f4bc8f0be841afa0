// The benchmark's four workloads.
//
//  paper_cycle     the Fig. 12 experiment: ExperimentRunner::compare races
//                  all five policies on each of the six paper_suite()
//                  traces (Nexus, 600 s horizon, dt 0.05 s), one thread,
//                  on two input sets derived from the seed.
//  fleet_baseline  FleetRunner over the sub-scale population under Dual and
//                  Heuristic: engine-step physics, no Algorithm 1.
//  fleet_capman    the same population under CAPMAN alone: Algorithm 1.
//  fleet_budget    the same population with the power-budget arbiter on
//                  (2500 mW, kRelax, learned budget levels) under CAPMAN
//                  and Dual.
//
// Fleets use 2 FleetRunner workers; every workload sets
// CapmanConfig::similarity_threads = 1, so no workload runs more threads
// than a 4-core host has. The seed reaches the simulator only through the
// generated traces, RunnerOptions::seed and FleetConfig::seed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "ledger.h"

namespace perfbench {

enum class WorkloadId { kPaperCycle, kFleetBaseline, kFleetCapman, kFleetBudget };

std::optional<WorkloadId> parse_workload(std::string_view name);
const char* to_string(WorkloadId id);
const std::vector<WorkloadId>& all_workloads();

/// What one repetition of a workload did.
struct RepOutcome {
  double sim_s = 0.0;           // simulated device-seconds, summed over cycles
  std::uint64_t cycles = 0;     // discharge cycles attempted
  std::uint64_t lost = 0;       // cycles that threw or were quarantined
  bool sane = true;             // every statistic finite and in range
  // Output digests, compared with the first repetition's; each covers
  // `cycles_per_digest` cycles (one per cycle for paper_cycle, one for the
  // whole fleet snapshot otherwise).
  std::vector<std::uint64_t> digests;
  std::uint64_t cycles_per_digest = 1;
};

/// Outcome of the traced run: the ledger plus its own correctness checks
/// (decorated runs bit-identical to undecorated ones; fleet snapshots
/// byte-identical at 1 and 2 workers).
struct TraceOutcome {
  std::uint64_t cycles = 0;
  std::uint64_t failed = 0;
  MetricValues metrics;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build every input from the seed: traces, validated configs, runners
  /// and policies. Repeatable; the last set-up is the one measured.
  virtual void setup() = 0;
  /// One repetition of the measured work (host time is taken outside).
  virtual RepOutcome run_once() = 0;
  /// Simulated statistics of the last repetition (not gated).
  virtual void report(std::ostream& out) const = 0;
  /// The traced run; writes a short human log to `out`.
  virtual TraceOutcome trace(std::ostream& out) = 0;
};

std::unique_ptr<Workload> make_workload(WorkloadId id, std::uint64_t seed);

}  // namespace perfbench
