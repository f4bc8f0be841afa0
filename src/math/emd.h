// Earth Mover's Distance between two finite discrete distributions under an
// arbitrary ground-distance matrix (paper Algorithm 1, line 4:
// d <- EMD(p_a, p_b; G_M, 1 - S)), solved exactly as a transportation
// problem by successive shortest paths on dense np x nq arrays. The
// supports Algorithm 1 produces are a handful of points per side, so
// Dijkstra is a linear scan over the np + nq nodes with no heap and no
// adjacency lists, and the arrays live in a reused per-thread workspace,
// so a solve allocates nothing once its thread has seen a support that
// large (DESIGN.md §8.3).
//
// One solver, two entries. Algorithm 1 calls the direct entry: masses as
// spans over its per-solve class mass table and the dense ground matrix
// it has already built, with no callback and no per-call Distribution.
// The callback entry fills a ground matrix from `d` and calls the same
// solver, so both return the same bits for the same inputs.
//
// Plan reuse: the direct entry can also hand back the optimal transport
// plan it found, and reused_plan_cost() re-prices that plan under a new
// ground matrix when a dual-feasibility check certifies that it is still
// optimal there. Algorithm 1's ground moves only slightly between sweeps,
// so most of its EMDs are answered this way without a solve (DESIGN.md
// §8.3).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace capman::math {

/// A discrete distribution: `mass[i]` on abstract point `i` (the point
/// identity is external; only the ground distance matters here). Masses are
/// normalized internally, so unnormalized histograms are accepted.
struct Distribution {
  std::vector<double> mass;
};

/// Ground distance between support point i of `p` and support point j of
/// `q`. Must be >= 0; EMD is a metric iff the ground distance is one and the
/// supports coincide.
using GroundDistance = std::function<double(std::size_t, std::size_t)>;

/// EMD(p, q; ground): minimum total cost of transporting the masses `p`
/// onto the masses `q` (normalized internally), where `ground` is the
/// row-major p.size() x q.size() ground-distance matrix. Throws
/// std::invalid_argument unless every mass is finite and >= 0, each side
/// has positive total mass and `ground` has p.size() * q.size() entries.
/// Zero masses drop out of the support; only the entries between two
/// positive-mass points are read. A non-empty `plan` (same shape as
/// `ground`, else std::invalid_argument) receives the optimal plan found:
/// the normalized mass moved from point i of p to point j of q at
/// plan[i * q.size() + j], 0 wherever a mass is 0.
double earth_movers_distance(std::span<const double> p,
                             std::span<const double> q,
                             std::span<const double> ground,
                             std::span<double> plan = {});

/// The cost of `plan` under `ground` if the plan is still optimal there,
/// else nullopt. `plan` must have been written by the direct entry above
/// for the same masses p and q; `ground` follows the same conventions.
/// The check computes dual potentials on the plan's support graph and
/// requires every reduced cost >= -1e-12 and every plan cell's within
/// +-1e-12 (the solver's own tolerance), so an accepted cost is within
/// 2e-12 of the optimum. A support graph that does not span every
/// positive-mass point (a degenerate plan) is not certified. An accepted
/// cost is summed exactly as the solver sums it, so under the ground the
/// plan was solved for it equals the solver's result bit for bit.
/// Throws std::invalid_argument on mis-shaped spans.
std::optional<double> reused_plan_cost(std::span<const double> p,
                                       std::span<const double> q,
                                       std::span<const double> plan,
                                       std::span<const double> ground);

/// EMD(p, q; d) through a ground-distance callback: calls `d` once per pair
/// of positive-mass points to fill a ground matrix, then solves exactly as
/// the direct entry above (same result bits, same exceptions). `d` runs
/// before the solve, so it may itself solve an EMD.
double earth_movers_distance(const Distribution& p, const Distribution& q,
                             const GroundDistance& d);

/// Closed-form EMD for distributions on the 1-D line with |x - y| ground
/// distance (equals the L1 distance between CDFs). Used to cross-check the
/// transport solver in tests.
double emd_1d(const std::vector<double>& p, const std::vector<double>& q);

}  // namespace capman::math
