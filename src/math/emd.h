// Earth Mover's Distance between two finite discrete distributions under an
// arbitrary ground-distance matrix (paper Algorithm 1, line 4:
// d <- EMD(p_a, p_b; G_M, 1 - S)), solved exactly as a transportation
// problem by successive shortest paths on dense np x nq arrays. The
// supports Algorithm 1 produces are a handful of points per side, so
// Dijkstra is a linear scan over the np + nq nodes with no heap and no
// adjacency lists, and the arrays live in a reused per-thread workspace,
// so a solve allocates nothing once its thread has seen a support that
// large (DESIGN.md §8.3).
#pragma once

#include <cstddef>
#include <functional>
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

/// EMD(p, q; d): minimum total cost of transporting the mass of p onto q.
/// Throws std::invalid_argument unless every mass is finite and >= 0 and
/// each distribution has positive total mass. Zero masses drop out of the
/// support; `d` is called once per pair of positive-mass points.
double earth_movers_distance(const Distribution& p, const Distribution& q,
                             const GroundDistance& d);

/// Closed-form EMD for distributions on the 1-D line with |x - y| ground
/// distance (equals the L1 distance between CDFs). Used to cross-check the
/// transport solver in tests.
double emd_1d(const std::vector<double>& p, const std::vector<double>& q);

}  // namespace capman::math
