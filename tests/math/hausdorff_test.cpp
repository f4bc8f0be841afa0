#include "math/hausdorff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "util/rng.h"

namespace capman::math {
namespace {

// Ground distance over two explicit point sets on the line.
auto line_distance(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return [&a, &b](std::size_t i, std::size_t j) {
    return std::abs(a[i] - b[j]);
  };
}

TEST(Hausdorff, IdenticalSetsZero) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(hausdorff(a.size(), a.size(), line_distance(a, a)), 0.0);
}

TEST(Hausdorff, KnownExample) {
  const std::vector<double> a{0.0, 1.0};
  const std::vector<double> b{0.0, 3.0};
  // directed(a->b): max(min(0,3), min(1,2)) = 1; directed(b->a): point 3 is
  // 2 away from nearest -> 2. Symmetric = 2... distances: |3-0|=3,|3-1|=2.
  EXPECT_DOUBLE_EQ(hausdorff(a.size(), b.size(), line_distance(a, b)), 2.0);
}

TEST(Hausdorff, DirectedAsymmetry) {
  const std::vector<double> a{0.0};
  const std::vector<double> b{0.0, 10.0};
  // a -> b: 0 (0 is in b). b -> a: point 10 is 10 away.
  EXPECT_DOUBLE_EQ(directed_hausdorff(a.size(), b.size(), line_distance(a, b)),
                   0.0);
  EXPECT_DOUBLE_EQ(directed_hausdorff(b.size(), a.size(), line_distance(b, a)),
                   10.0);
  EXPECT_DOUBLE_EQ(hausdorff(a.size(), b.size(), line_distance(a, b)), 10.0);
}

TEST(Hausdorff, EmptySets) {
  const auto d = [](std::size_t, std::size_t) { return 0.5; };
  EXPECT_DOUBLE_EQ(directed_hausdorff(0, 3, d), 0.0);
  EXPECT_DOUBLE_EQ(directed_hausdorff(3, 0, d), 1.0);
  EXPECT_DOUBLE_EQ(hausdorff(0, 0, d), 0.0);
  EXPECT_DOUBLE_EQ(hausdorff(3, 0, d), 1.0);
  EXPECT_DOUBLE_EQ(hausdorff(0, 3, d), 1.0);
}

TEST(Hausdorff, SubsetDirectedZero) {
  const std::vector<double> sub{1.0, 2.0};
  const std::vector<double> super{0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(
      directed_hausdorff(sub.size(), super.size(), line_distance(sub, super)),
      0.0);
}

TEST(Hausdorff, SymmetricProperty) {
  const std::vector<double> a{0.2, 0.9, 0.5};
  const std::vector<double> b{0.1, 0.4};
  const double ab = hausdorff(a.size(), b.size(), line_distance(a, b));
  const double ba = hausdorff(b.size(), a.size(), line_distance(b, a));
  EXPECT_DOUBLE_EQ(ab, ba);
}

TEST(Hausdorff, TriangleInequalityOnLineSets) {
  const std::vector<double> a{0.0, 1.0};
  const std::vector<double> b{0.5, 1.5};
  const std::vector<double> c{2.0};
  const double ab = hausdorff(a.size(), b.size(), line_distance(a, b));
  const double bc = hausdorff(b.size(), c.size(), line_distance(b, c));
  const double ac = hausdorff(a.size(), c.size(), line_distance(a, c));
  EXPECT_LE(ac, ab + bc + 1e-12);
}

// The type-erased solver the template replaced, kept verbatim as the
// reference: the same scan order, the same exact-zero early exit and the
// same empty-set conventions.
using ErasedDistance = std::function<double(std::size_t, std::size_t)>;

double reference_directed(std::size_t size_a, std::size_t size_b,
                          const ErasedDistance& d) {
  if (size_a == 0) return 0.0;
  if (size_b == 0) return 1.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < size_a; ++i) {
    double best = d(i, 0);
    for (std::size_t j = 1; j < size_b; ++j) {
      best = std::min(best, d(i, j));
      if (best == 0.0) break;
    }
    worst = std::max(worst, best);
  }
  return worst;
}

double reference_hausdorff(std::size_t size_a, std::size_t size_b,
                           const ErasedDistance& d) {
  const double forward = reference_directed(size_a, size_b, d);
  const double backward = reference_directed(
      size_b, size_a, [&d](std::size_t j, std::size_t i) { return d(i, j); });
  return std::max(forward, backward);
}

// Random matrices up to 6 x 6, empty sides included, with values drawn
// from a grid where exact zeros are common, so the early exit fires. The
// template must return the same bits and read the same entries.
TEST(Hausdorff, TemplateMatchesTypeErasedReference) {
  util::Rng rng{1919};
  int early_exits = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t na = rng.uniform_index(7);
    const std::size_t nb = rng.uniform_index(7);
    std::vector<double> m(na * nb);
    for (double& x : m) {
      x = rng.chance(0.3) ? 0.0
                          : 0.125 * static_cast<double>(rng.uniform_index(9));
    }
    std::size_t reads = 0;
    const auto d = [&](std::size_t i, std::size_t j) {
      ++reads;
      return m[i * nb + j];
    };
    std::size_t reference_reads = 0;
    const ErasedDistance erased = [&](std::size_t i, std::size_t j) {
      ++reference_reads;
      return m[i * nb + j];
    };

    EXPECT_EQ(directed_hausdorff(na, nb, d),
              reference_directed(na, nb, erased))
        << na << "x" << nb << " trial " << trial;
    EXPECT_EQ(hausdorff(na, nb, d), reference_hausdorff(na, nb, erased))
        << na << "x" << nb << " trial " << trial;
    EXPECT_EQ(reads, reference_reads) << na << "x" << nb << " trial " << trial;
    if (na > 0 && nb > 1 && reads < 2 * na * nb) ++early_exits;
  }
  EXPECT_GT(early_exits, 0);
}

}  // namespace
}  // namespace capman::math
