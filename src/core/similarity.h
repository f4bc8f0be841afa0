// Algorithm 1: Structural Similarities Recursion (paper Section III-C/D,
// after Wang et al., IJCAI'19).
//
// Iteratively computes state similarities sigma_S (via Hausdorff distance
// over action-neighbour sets under the action dissimilarity delta_A) and
// action similarities sigma_A (via expected-reward distance and the Earth
// Mover's Distance between transition distributions under the state
// dissimilarity delta_S), with discount weights C_S and C_A:
//
//   sigma_S(u,v) = C_S * (1 - Hausdorff(N_u, N_v; delta_A))
//   sigma_A(a,b) = 1 - (1-C_A) * delta_rwd(a,b)
//                    - C_A * EMD(p_a, p_b; delta_S)
//
// Base cases (Eq. 3): delta_S(u,u) = 0; exactly one absorbing -> 1; both
// absorbing -> d_{u,v}.
//
// With C_S = 1 and C_A = rho the fixed point delta*_S bounds optimal value
// differences: |V*_u - V*_v| <= delta*_S(u,v) / (1 - rho)  (Eq. 10) — the
// paper's O(1/(1-rho)) competitiveness. Tested in
// tests/core/similarity_bound_test.cpp.
//
// Engine (see docs/ARCHITECTURE.md and DESIGN.md §8): every pair update of
// a sweep reads only the previous sweep's matrices, so both phases fan out
// across a util::ThreadPool with a barrier between them; each pair runs
// exactly once, on whichever worker claims it, writes only its own cells,
// and the convergence reduction runs on the calling thread in a fixed
// order, making results bit-identical for every thread count. Action
// vertices with bit-equal transition supports (the budget-level copies of
// an action learn identical transitions) form one distribution class, and
// a sweep solves one EMD per ordered class pair, straight from a per-solve
// table of class masses and the dense ground matrix it builds; an exact
// memo per class pair (verified against the exact ground-distance values
// before reuse) cuts the per-sweep work further once most pairs stop
// moving. The engine knobs below change the work done, never a bit of the
// result.
//
// Plan reuse (DESIGN.md §8.3): every class pair keeps the optimal
// transport plan of its last solve, in every engine mode. A sweep takes,
// in order, the memo hit; else the stored plan's cost under the new
// ground, if math::reused_plan_cost certifies the plan still optimal;
// else a fresh solve, whose plan replaces the stored one. A re-priced EMD
// is within 2e-12 of a fresh solve's but not always bit-equal to it, so
// results are not bit-equal to solving every EMD afresh. They are
// deterministic: a class pair's EMDs depend only on its own sequence of
// ground matrices, which is the same for every thread count, cache
// setting and registry, so those stay bit-identical.
//
// Warm start (DESIGN.md §8): a solve may start from a previous solve's
// similarities instead of from sigma = 0. Every pair of distinct states
// present and non-absorbing in both graphs (matched by CapmanState id)
// takes its prior sigma_S, and every pair of action vertices present in
// both (matched by source state id and action id) its prior sigma_A; all
// other entries, the Eq. 3 base cases included, start exactly as in a cold
// solve. The recursion is a c_A-contraction with a unique fixed point, so
// the start point changes the sweep count, not the limit: warm and cold
// results each lie within epsilon of sigma* in sup norm (the stopping rule
// below), hence within 2 * epsilon of each other. They are not bit-equal
// to a cold solve; the engine knobs stay bit-identical for either start.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/mdp_graph.h"
#include "math/matrix.h"
#include "obs/metrics.h"

namespace capman::core {

struct SimilarityConfig {
  double c_s = 1.0;   // (0, 1]; 1 for the competitiveness bound
  double c_a = 0.8;   // (0, 1); set to rho for the bound
  double epsilon = 0.01;
  std::size_t max_iterations = 60;
  double absorbing_distance = 1.0;  // d_{u,v} of Eq. 3

  // Worker threads for the per-sweep pair fan-out; 0 means one per
  // hardware core. Results are bit-identical for every value.
  std::size_t num_threads = 0;
  // Solve one EMD per pair of distribution classes (action vertices with
  // bit-equal transition supports), and reuse a class pair's last EMD when
  // its exact ground-distance inputs (the delta_S entries over the two
  // supports) are unchanged. Off, every action pair is its own class pair
  // and visits the plan check or the solver every sweep. Exact: toggling
  // the cache cannot change a single bit of the result.
  bool use_emd_cache = true;

  // Observability (src/obs): when set, the solve publishes its pair
  // counters into this registry (accumulating across solves) and the
  // ThreadPool counts its dispatches there too. Never read on the math
  // path — results are bit-identical with or without a registry.
  obs::MetricsRegistry* metrics = nullptr;
  // Additionally publish wall-clock timings (similarity/sweep_ms histogram,
  // similarity/total_ms gauge). Separate switch because timings are the
  // one nondeterministic measurement: deterministic snapshots stay
  // comparable run-to-run when this is off.
  bool publish_timings = false;

  /// Human-readable configuration errors; empty means valid. Reached from
  /// CapmanConfig::validate() via CapmanConfig::similarity_config().
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Per-solve instrumentation of the similarity engine. Pair counters are
/// accumulated over all sweeps: every (pair, sweep) visit is classified as
/// computed (it ran the transport solver / Hausdorff), reused (it
/// re-priced its class pair's last optimal plan under the new ground) or
/// cached (it took an exact EMD from the memo, or from the solve or reuse
/// of another action pair in the same class pair that sweep), so
/// computed + reused + cached == total.
struct SimilarityStats {
  std::size_t action_pairs_total = 0;
  std::size_t action_pairs_computed = 0;
  std::size_t action_pairs_reused = 0;
  std::size_t action_pairs_cached = 0;
  std::size_t state_pairs_total = 0;     // no cache on the Hausdorff side:
  std::size_t state_pairs_computed = 0;  // computed == total
  std::vector<double> iteration_ms;  // wall time of each sweep
  double total_ms = 0.0;
  std::size_t threads_used = 1;
  bool warm_started = false;  // seeded at least one entry from a prior solve

  /// The accounting invariant above; asserted in tests.
  [[nodiscard]] bool consistent() const {
    return action_pairs_computed + action_pairs_reused +
                   action_pairs_cached ==
               action_pairs_total &&
           state_pairs_computed == state_pairs_total;
  }

  /// Publish the pair counters, the sweep count (one per iteration_ms
  /// entry), warm starts and the threads gauge into `registry` under the
  /// similarity/ prefix, accumulating across solves. Timings are excluded
  /// here — see SimilarityConfig::publish_timings.
  void publish(obs::MetricsRegistry& registry) const;
};

struct SimilarityResult {
  math::Matrix state_similarity;   // sigma*_S, |V| x |V|
  math::Matrix action_similarity;  // sigma*_A, |Lambda| x |Lambda|
  std::size_t iterations = 0;
  bool converged = false;
  SimilarityStats stats;

  [[nodiscard]] double state_distance(std::size_t u, std::size_t v) const {
    return 1.0 - state_similarity(u, v);
  }
  [[nodiscard]] double action_distance(std::size_t a, std::size_t b) const {
    return 1.0 - action_similarity(a, b);
  }
};

/// A previous solve to warm-start from: the graph it ran on and its
/// result. Either pointer null, or an empty graph, means a cold start.
struct SimilarityWarmStart {
  const MdpGraph* graph = nullptr;
  const SimilarityResult* result = nullptr;
};

/// Runs Algorithm 1 to the given precision, from sigma = 0 or, given a
/// prior solve, warm-started from its similarities (see the header
/// comment).
SimilarityResult compute_structural_similarity(const MdpGraph& graph,
                                               const SimilarityConfig& config,
                                               SimilarityWarmStart prior = {});

struct SimilarityTestAccess;

/// The solver behind compute_structural_similarity. Turning plan reuse off
/// (every EMD a fresh transport solve, the reference the reuse is tested
/// against) is reachable only from the test access.
class SimilaritySolver {
  friend SimilarityResult compute_structural_similarity(
      const MdpGraph& graph, const SimilarityConfig& config,
      SimilarityWarmStart prior);
  // Defined in tests/core/similarity_parallel_test.cpp.
  friend struct SimilarityTestAccess;

  static SimilarityResult solve(const MdpGraph& graph,
                                const SimilarityConfig& config,
                                SimilarityWarmStart prior, bool reuse_plans);
};

}  // namespace capman::core
