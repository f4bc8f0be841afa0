// Hausdorff distance between two finite point sets under a caller-supplied
// ground metric. Algorithm 1 uses it to compare the action-neighbourhoods
// of two state nodes:  sigma_S(u,v) = C_S * (1 - Hausdorff(N_u, N_v; d_A)).
//
// The ground metric is a template parameter, so the solver's min/max scan
// calls it directly (inlined for a lambda) instead of through a
// type-erased std::function.
#pragma once

#include <algorithm>
#include <cstddef>

namespace capman::math {

/// Directed Hausdorff: max over a in A of min over b in B of d(a, b), where
/// `d(i, j)` is the distance between element i of A and element j of B.
/// Empty A yields 0; empty B with non-empty A yields +infinity-like 1.0
/// (distances in CAPMAN live in [0,1], so 1 is the diameter).
template <class Distance>
double directed_hausdorff(std::size_t size_a, std::size_t size_b,
                          const Distance& d) {
  if (size_a == 0) return 0.0;
  if (size_b == 0) return 1.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < size_a; ++i) {
    double best = d(i, 0);
    for (std::size_t j = 1; j < size_b; ++j) {
      best = std::min(best, d(i, j));
      // Early exit on an exact zero distance (the floor of the min scan);
      // a tolerance would change results.  capman-lint: allow(float-compare)
      if (best == 0.0) break;
    }
    worst = std::max(worst, best);
  }
  return worst;
}

/// Symmetric Hausdorff: max of the two directed distances.
template <class Distance>
double hausdorff(std::size_t size_a, std::size_t size_b, const Distance& d) {
  const double forward = directed_hausdorff(size_a, size_b, d);
  const double backward = directed_hausdorff(
      size_b, size_a, [&d](std::size_t j, std::size_t i) { return d(i, j); });
  return std::max(forward, backward);
}

}  // namespace capman::math
