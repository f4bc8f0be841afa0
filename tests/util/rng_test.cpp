#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace capman::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng{8};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng{9};
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng{10};
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++seen[rng.uniform_index(10)];
  }
  for (int count : seen) EXPECT_GT(count, 700);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng{11};
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng{12};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ExponentialNonNegative) {
  Rng rng{13};
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(0.5), 0.0);
}

TEST(Rng, ParetoRespectsMinimum) {
  Rng rng{14};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, ParetoIsHeavyTailed) {
  Rng rng{15};
  // For alpha = 1.5, xm = 1: P(X > 10) = 10^-1.5 ~ 3.2%.
  int over = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.pareto(1.0, 1.5) > 10.0) ++over;
  }
  EXPECT_NEAR(static_cast<double>(over) / n, 0.0316, 0.006);
}

TEST(Rng, ChanceProbabilityRoughlyHonored) {
  Rng rng{18};
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng a{42};
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace capman::util
