#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "math/emd.h"
#include "util/rng.h"

namespace capman::math {
namespace {

// Brute-force check on 2x2 transportation instances: the flow on
// (source 0, sink 0) parameterizes the whole plan.
TEST(Emd, MatchesBruteForceOnTransportation) {
  util::Rng rng{77};
  for (int trial = 0; trial < 50; ++trial) {
    // Two sources (supply a, 1 - a), two sinks (demand c, 1 - c).
    const double a = rng.uniform(0.1, 0.9);
    const double c = rng.uniform(0.1, 0.9);
    double cost[2][2];
    for (auto& row : cost) {
      for (double& x : row) x = rng.uniform(0.0, 1.0);
    }
    const double emd = earth_movers_distance(
        Distribution{{a, 1.0 - a}}, Distribution{{c, 1.0 - c}},
        [&](std::size_t i, std::size_t j) { return cost[i][j]; });

    double best = 1e18;
    for (int k = 0; k <= 2000; ++k) {
      const double x = k / 2000.0;
      const double x01 = a - x;        // source0 -> sink1
      const double x10 = c - x;        // source1 -> sink0
      const double x11 = (1.0 - a) - x10;
      if (x01 < -1e-12 || x10 < -1e-12 || x11 < -1e-12 || x > a + 1e-12 ||
          x > c + 1e-12) {
        continue;
      }
      best = std::min(best, x * cost[0][0] + x01 * cost[0][1] +
                                x10 * cost[1][0] + x11 * cost[1][1]);
    }
    EXPECT_NEAR(emd, best, 2e-3);
  }
}

// Cheapest integral plan with the given row and column sums, by
// enumerating every plan cell by cell (row-major).
double brute_force_plan_cost(std::vector<int> supply, std::vector<int> demand,
                             const std::vector<double>& cost,
                             std::size_t cell = 0) {
  const std::size_t cols = demand.size();
  if (cell == supply.size() * cols) return 0.0;  // all sums are now zero
  const std::size_t i = cell / cols;
  const std::size_t j = cell % cols;
  // The last cell of a row must take the row's remainder; the last row
  // must take each column's remainder.
  const bool forced = j + 1 == cols || i + 1 == supply.size();
  const int hi = std::min(supply[i], demand[j]);
  const int lo = forced ? (j + 1 == cols ? supply[i] : demand[j]) : 0;
  double best = std::numeric_limits<double>::infinity();
  for (int x = lo; x <= hi; ++x) {
    supply[i] -= x;
    demand[j] -= x;
    best = std::min(best, x * cost[cell] + brute_force_plan_cost(
                                               supply, demand, cost, cell + 1));
    supply[i] += x;
    demand[j] += x;
    if (forced) break;
  }
  return best;
}

// Integer masses summing to m, with zeros allowed (at least one positive).
std::vector<int> random_composition(util::Rng& rng, std::size_t n, int m) {
  std::vector<int> parts(n, 0);
  for (int unit = 0; unit < m; ++unit) ++parts[rng.uniform_index(n)];
  return parts;
}

// The transportation LP is totally unimodular, so with masses in units of
// 1/m some optimal plan is integral in those units: enumerating integral
// plans gives the exact optimum. Ground distances come from a small grid
// so ties and zeros are common.
TEST(Emd, MatchesExactIntegralPlansUpTo3x4) {
  util::Rng rng{2024};
  int checked = 0;
  for (std::size_t np = 1; np <= 3; ++np) {
    for (std::size_t nq = 1; nq <= 4; ++nq) {
      for (int m = 1; m <= 6; ++m) {
        for (int trial = 0; trial < 12; ++trial) {
          const auto a = random_composition(rng, np, m);
          const auto b = random_composition(rng, nq, m);
          std::vector<double> cost(np * nq);
          for (double& c : cost) {
            c = 0.25 * static_cast<double>(rng.uniform_index(5));
          }
          const double exact = brute_force_plan_cost(a, b, cost) / m;
          Distribution p;
          Distribution q;
          p.mass.assign(a.begin(), a.end());
          q.mass.assign(b.begin(), b.end());
          const double emd = earth_movers_distance(
              p, q, [&](std::size_t i, std::size_t j) {
                return cost[i * nq + j];
              });
          EXPECT_NEAR(emd, exact, 1e-12)
              << np << "x" << nq << " m=" << m << " trial=" << trial;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 3 * 4 * 6 * 12);
}

// With one point on either side there is exactly one plan: everything
// moves to (or from) that point.
TEST(Emd, SinglePointSupportHasOnePlan) {
  util::Rng rng{31};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(6);
    std::vector<double> mass(n);
    std::vector<double> cost(n);
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      mass[k] = rng.uniform_index(4) == 0 ? 0.0 : rng.uniform(0.1, 2.0);
      cost[k] = rng.uniform();
      total += mass[k];
    }
    if (total == 0.0) {
      mass[0] = 1.0;
      total = 1.0;
    }
    double expected = 0.0;
    for (std::size_t k = 0; k < n; ++k) expected += mass[k] / total * cost[k];

    const Distribution point{{3.0}};
    const Distribution spread{mass};
    // 1 x n: the single row ships to every column.
    EXPECT_NEAR(earth_movers_distance(
                    point, spread,
                    [&](std::size_t, std::size_t j) { return cost[j]; }),
                expected, 1e-14);
    // n x 1: every row ships to the single column.
    EXPECT_NEAR(earth_movers_distance(
                    spread, point,
                    [&](std::size_t i, std::size_t) { return cost[i]; }),
                expected, 1e-14);
  }
}

// The solver reuses a per-thread workspace across calls. Whatever ran on
// the thread before — larger or smaller supports, zero masses — a solve
// must return exactly what the first solve on a fresh thread returns.
TEST(Emd, WorkspaceReuseIsExact) {
  struct Problem {
    Distribution p;
    Distribution q;
    std::vector<double> cost;  // row-major |p| x |q|
  };
  util::Rng rng{4242};
  // A prime count, so every stride below walks all of them.
  std::vector<Problem> problems;
  for (int k = 0; k < 47; ++k) {
    Problem pr;
    const std::size_t np = 1 + rng.uniform_index(8);
    const std::size_t nq = 1 + rng.uniform_index(8);
    for (std::size_t i = 0; i < np; ++i) {
      pr.p.mass.push_back(i > 0 && rng.chance(0.2) ? 0.0 : rng.uniform());
    }
    for (std::size_t j = 0; j < nq; ++j) {
      pr.q.mass.push_back(j > 0 && rng.chance(0.2) ? 0.0 : rng.uniform());
    }
    for (std::size_t c = 0; c < np * nq; ++c) {
      pr.cost.push_back(rng.chance(0.1) ? 0.0 : rng.uniform());
    }
    problems.push_back(std::move(pr));
  }
  const auto solve = [&problems](std::size_t k) {
    const Problem& pr = problems[k];
    const std::size_t nq = pr.q.mass.size();
    return earth_movers_distance(
        pr.p, pr.q,
        [&pr, nq](std::size_t i, std::size_t j) { return pr.cost[i * nq + j]; });
  };

  std::vector<double> fresh(problems.size());
  for (std::size_t k = 0; k < problems.size(); ++k) {
    std::thread([&fresh, &solve, k] { fresh[k] = solve(k); }).join();
  }

  // One thread, every problem twice in an interleaved order.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t n = 0; n < problems.size(); ++n) {
      const std::size_t k = (n * 7 + static_cast<std::size_t>(pass)) %
                            problems.size();
      EXPECT_EQ(solve(k), fresh[k]) << "problem " << k;
    }
  }

  // Four threads, each walking the problems in its own order.
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<double>> got(kThreads,
                                       std::vector<double>(problems.size()));
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t n = 0; n < problems.size(); ++n) {
        const std::size_t k = (n * (2 * t + 5) + t) % problems.size();
        got[t][k] = solve(k);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < problems.size(); ++k) {
      EXPECT_EQ(got[t][k], fresh[k]) << "thread " << t << ", problem " << k;
    }
  }

  // A ground distance that itself solves an EMD must not disturb the
  // outer solve's workspace.
  const Problem& outer = problems[0];
  const std::size_t nq = outer.q.mass.size();
  const double nested = earth_movers_distance(
      outer.p, outer.q, [&](std::size_t i, std::size_t j) {
        EXPECT_EQ(solve(problems.size() - 1), fresh.back());
        return outer.cost[i * nq + j];
      });
  EXPECT_EQ(nested, fresh[0]);

  // The direct entry, fed the same masses and cost matrix, returns the
  // same bits as the callback entry.
  for (std::size_t k = 0; k < problems.size(); ++k) {
    const Problem& pr = problems[k];
    EXPECT_EQ(earth_movers_distance(pr.p.mass, pr.q.mass, pr.cost), fresh[k])
        << "problem " << k;
  }
}

// The direct entry against the callback entry on random supports up to
// 8 x 8 with zero masses, tied masses, and costs of exactly 0 and 1. The
// direct matrix holds NaN wherever a zero-mass point sits, so any read of
// an entry outside the positive-mass support would show in the result.
TEST(Emd, DirectEntryMatchesCallbackEntryBitForBit) {
  util::Rng rng{8080};
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t np = 1 + rng.uniform_index(8);
    const std::size_t nq = 1 + rng.uniform_index(8);
    const auto masses = [&rng](std::size_t n) {
      std::vector<double> mass(n);
      for (double& m : mass) {
        const double roll = rng.uniform();
        m = roll < 0.25 ? 0.0 : roll < 0.5 ? 0.25 : rng.uniform(0.01, 1.0);
      }
      if (std::all_of(mass.begin(), mass.end(),
                      [](double m) { return m == 0.0; })) {
        mass[rng.uniform_index(n)] = 0.5;
      }
      return mass;
    };
    const std::vector<double> p = masses(np);
    const std::vector<double> q = masses(nq);
    std::vector<double> cost(np * nq);
    for (double& c : cost) {
      const double roll = rng.uniform();
      c = roll < 0.2 ? 0.0 : roll < 0.4 ? 1.0 : rng.uniform();
    }
    std::vector<double> ground = cost;
    for (std::size_t i = 0; i < np; ++i) {
      for (std::size_t j = 0; j < nq; ++j) {
        if (p[i] == 0.0 || q[j] == 0.0) ground[i * nq + j] = quiet_nan;
      }
    }
    const double via_callback = earth_movers_distance(
        Distribution{p}, Distribution{q},
        [&](std::size_t i, std::size_t j) { return cost[i * nq + j]; });
    EXPECT_EQ(earth_movers_distance(p, q, ground), via_callback)
        << np << "x" << nq << " trial " << trial;
  }
}

// Invalid masses throw std::invalid_argument from the direct entry exactly
// where they throw from the callback entry; so does a ground matrix of the
// wrong shape.
TEST(Emd, DirectEntryRejectsWhatTheCallbackEntryRejects) {
  const double inf = std::numeric_limits<double>::infinity();
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> good{0.5, 0.5};
  const std::vector<double> ground{0.0, 1.0, 1.0, 0.0};
  const auto d = [&ground](std::size_t i, std::size_t j) {
    return ground[i * 2 + j];
  };
  for (const std::vector<double>& bad :
       {std::vector<double>{-0.5, 1.0}, std::vector<double>{quiet_nan, 1.0},
        std::vector<double>{inf, 1.0}, std::vector<double>{0.0, 0.0}}) {
    EXPECT_THROW(earth_movers_distance(bad, good, ground),
                 std::invalid_argument);
    EXPECT_THROW(earth_movers_distance(good, bad, ground),
                 std::invalid_argument);
    EXPECT_THROW(earth_movers_distance(Distribution{bad}, Distribution{good}, d),
                 std::invalid_argument);
    EXPECT_THROW(earth_movers_distance(Distribution{good}, Distribution{bad}, d),
                 std::invalid_argument);
  }
  EXPECT_THROW(earth_movers_distance(std::vector<double>{},
                                     std::vector<double>{1.0},
                                     std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(earth_movers_distance(good, good, std::vector<double>{0.0}),
               std::invalid_argument);
  EXPECT_EQ(earth_movers_distance(good, good, ground), 0.0);
}

// A random transport instance for the plan-reuse tests: supports up to
// 6 x 6 with zero and tied masses, costs of exactly 0 and 1 among uniform
// ones.
struct PlanInstance {
  std::vector<double> p;
  std::vector<double> q;
  std::vector<double> ground;  // row-major |p| x |q|
};

PlanInstance random_plan_instance(util::Rng& rng) {
  const auto masses = [&rng](std::size_t n) {
    std::vector<double> mass(n);
    for (double& m : mass) {
      const double roll = rng.uniform();
      m = roll < 0.2 ? 0.0 : roll < 0.4 ? 0.25 : rng.uniform(0.01, 1.0);
    }
    if (std::all_of(mass.begin(), mass.end(),
                    [](double m) { return m == 0.0; })) {
      mass[rng.uniform_index(n)] = 0.5;
    }
    return mass;
  };
  PlanInstance in;
  in.p = masses(1 + rng.uniform_index(6));
  in.q = masses(1 + rng.uniform_index(6));
  in.ground.resize(in.p.size() * in.q.size());
  for (double& c : in.ground) {
    const double roll = rng.uniform();
    c = roll < 0.15 ? 0.0 : roll < 0.3 ? 1.0 : rng.uniform();
  }
  return in;
}

// Whether the plan's positive cells connect every positive-mass row and
// column (union-find over rows then columns): the supports the reuse
// check can certify.
bool plan_spans_support(const PlanInstance& in,
                        const std::vector<double>& plan) {
  const std::size_t np = in.p.size();
  const std::size_t nq = in.q.size();
  std::vector<std::size_t> root(np + nq);
  for (std::size_t k = 0; k < root.size(); ++k) root[k] = k;
  const auto find = [&root](std::size_t k) {
    while (root[k] != k) k = root[k];
    return k;
  };
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = 0; j < nq; ++j) {
      if (plan[i * nq + j] > 0.0) root[find(i)] = find(np + j);
    }
  }
  std::size_t components = 0;
  for (std::size_t k = 0; k < np + nq; ++k) {
    const double mass = k < np ? in.p[k] : in.q[k - np];
    if (mass > 0.0 && find(k) == k) ++components;
  }
  return components == 1;
}

// Under the ground it was solved for, the solver's own plan is certified
// whenever its support spans every positive-mass point, and its re-priced
// cost is the solver's result bit for bit.
TEST(EmdPlanReuse, SolversPlanPassesUnderItsOwnGround) {
  util::Rng rng{6161};
  int spanning = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const PlanInstance in = random_plan_instance(rng);
    std::vector<double> plan(in.ground.size(), -1.0);
    const double emd = earth_movers_distance(in.p, in.q, in.ground, plan);
    for (std::size_t i = 0; i < in.p.size(); ++i) {
      for (std::size_t j = 0; j < in.q.size(); ++j) {
        const double x = plan[i * in.q.size() + j];
        EXPECT_GE(x, 0.0);
        if (in.p[i] == 0.0 || in.q[j] == 0.0) {
          EXPECT_EQ(x, 0.0);
        }
      }
    }
    const std::optional<double> reused =
        reused_plan_cost(in.p, in.q, plan, in.ground);
    if (plan_spans_support(in, plan)) {
      ++spanning;
      ASSERT_TRUE(reused.has_value()) << "trial " << trial;
    }
    if (reused) {
      EXPECT_EQ(*reused, emd) << "trial " << trial;
    }
  }
  EXPECT_GT(spanning, 300);
}

// Under a perturbed ground, an accepted plan prices within the solver's
// tolerance of a fresh solve; a plan the perturbation made suboptimal by
// more than that is rejected.
TEST(EmdPlanReuse, AcceptedPlanMatchesFreshSolveUnderPerturbedGround) {
  util::Rng rng{6262};
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const PlanInstance in = random_plan_instance(rng);
    std::vector<double> plan(in.ground.size());
    earth_movers_distance(in.p, in.q, in.ground, plan);
    for (const double scale : {1e-9, 1e-4, 1e-2, 0.3}) {
      std::vector<double> moved = in.ground;
      for (double& c : moved) {
        c = std::clamp(c + scale * rng.uniform(-1.0, 1.0), 0.0, 1.0);
      }
      const double fresh = earth_movers_distance(in.p, in.q, moved);
      double priced = 0.0;
      for (std::size_t k = 0; k < plan.size(); ++k) {
        priced += plan[k] * moved[k];
      }
      const std::optional<double> reused =
          reused_plan_cost(in.p, in.q, plan, moved);
      if (reused) {
        ++accepted;
        EXPECT_NEAR(*reused, fresh, 1e-12) << "trial " << trial;
      } else {
        ++rejected;
      }
      if (priced > fresh + 1e-9) {
        EXPECT_FALSE(reused) << "trial " << trial;
      }
    }
  }
  EXPECT_GT(accepted, 600);
  EXPECT_GT(rejected, 100);
}

// A ground that makes another plan strictly cheaper: the diagonal plan of
// a diagonal ground must not survive the anti-diagonal one.
TEST(EmdPlanReuse, RejectsPlanThatAnotherPlanBeats) {
  const std::vector<double> p{0.6, 0.4};
  const std::vector<double> q{0.5, 0.5};
  const std::vector<double> diagonal{0.0, 1.0, 1.0, 0.0};
  std::vector<double> plan(4);
  EXPECT_NEAR(earth_movers_distance(p, q, diagonal, plan), 0.1, 1e-15);
  ASSERT_TRUE(reused_plan_cost(p, q, plan, diagonal).has_value());

  const std::vector<double> anti{1.0, 0.0, 0.0, 1.0};
  EXPECT_NEAR(earth_movers_distance(p, q, anti), 0.1, 1e-15);
  EXPECT_FALSE(reused_plan_cost(p, q, plan, anti).has_value());
  // The same plan under a slightly tilted diagonal ground is still optimal.
  const std::vector<double> tilted{0.0, 0.9, 1.0, 0.05};
  const std::optional<double> reused = reused_plan_cost(p, q, plan, tilted);
  ASSERT_TRUE(reused.has_value());
  EXPECT_NEAR(*reused, earth_movers_distance(p, q, tilted), 1e-15);

  // Mis-shaped spans throw, from both entries.
  std::vector<double> short_plan(3);
  EXPECT_THROW(earth_movers_distance(p, q, diagonal, short_plan),
               std::invalid_argument);
  EXPECT_THROW(reused_plan_cost(p, q, short_plan, diagonal),
               std::invalid_argument);
}

TEST(Emd, IdenticalDistributionsZero) {
  Distribution p{{0.3, 0.7}};
  const auto d = [](std::size_t i, std::size_t j) {
    return i == j ? 0.0 : 1.0;
  };
  EXPECT_NEAR(earth_movers_distance(p, p, d), 0.0, 1e-9);
}

TEST(Emd, DisjointPointMasses) {
  Distribution p{{1.0, 0.0}};
  Distribution q{{0.0, 1.0}};
  const auto d = [](std::size_t i, std::size_t j) {
    return i == j ? 0.0 : 0.8;
  };
  EXPECT_NEAR(earth_movers_distance(p, q, d), 0.8, 1e-9);
}

TEST(Emd, NormalizesUnnormalizedInputs) {
  Distribution p{{2.0, 2.0}};   // = {0.5, 0.5}
  Distribution q{{30.0, 10.0}}; // = {0.75, 0.25}
  const auto d = [](std::size_t i, std::size_t j) {
    return std::abs(static_cast<double>(i) - static_cast<double>(j));
  };
  // Move 0.25 mass a distance of 1.
  EXPECT_NEAR(earth_movers_distance(p, q, d), 0.25, 1e-9);
}

TEST(Emd, ThrowsOnEmptyDistribution) {
  Distribution p{{0.0}};
  Distribution q{{1.0}};
  const auto d = [](std::size_t, std::size_t) { return 1.0; };
  EXPECT_THROW(earth_movers_distance(p, q, d), std::invalid_argument);
}

TEST(Emd, ThrowsOnNegativeMass) {
  Distribution p{{-0.5, 1.0}};
  Distribution q{{0.5, 0.5}};
  const auto d = [](std::size_t i, std::size_t j) {
    return i == j ? 0.0 : 1.0;
  };
  EXPECT_THROW(earth_movers_distance(p, q, d), std::invalid_argument);
  EXPECT_THROW(earth_movers_distance(q, p, d), std::invalid_argument);
}

TEST(Emd, ThrowsOnNaNMass) {
  Distribution p{{std::numeric_limits<double>::quiet_NaN(), 1.0}};
  Distribution q{{0.5, 0.5}};
  const auto d = [](std::size_t i, std::size_t j) {
    return i == j ? 0.0 : 1.0;
  };
  EXPECT_THROW(earth_movers_distance(p, q, d), std::invalid_argument);
  EXPECT_THROW(earth_movers_distance(q, p, d), std::invalid_argument);
}

TEST(Emd, ThrowsOnInfiniteMass) {
  Distribution p{{std::numeric_limits<double>::infinity(), 1.0}};
  Distribution q{{0.5, 0.5}};
  const auto d = [](std::size_t i, std::size_t j) {
    return i == j ? 0.0 : 1.0;
  };
  EXPECT_THROW(earth_movers_distance(p, q, d), std::invalid_argument);
  EXPECT_THROW(earth_movers_distance(q, p, d), std::invalid_argument);
}

TEST(Emd, MatchesClosedForm1D) {
  util::Rng rng{123};
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(6);
    std::vector<double> p(n);
    std::vector<double> q(n);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = rng.uniform(0.01, 1.0);
      q[i] = rng.uniform(0.01, 1.0);
    }
    Distribution dp{p};
    Distribution dq{q};
    const auto ground = [](std::size_t i, std::size_t j) {
      return std::abs(static_cast<double>(i) - static_cast<double>(j));
    };
    EXPECT_NEAR(earth_movers_distance(dp, dq, ground), emd_1d(p, q), 1e-6);
  }
}

TEST(Emd, SymmetricWithMetricGround) {
  util::Rng rng{321};
  for (int trial = 0; trial < 20; ++trial) {
    Distribution p{{rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0),
                    rng.uniform(0.1, 1.0)}};
    Distribution q{{rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0),
                    rng.uniform(0.1, 1.0)}};
    const auto ground = [](std::size_t i, std::size_t j) {
      return i == j ? 0.0 : 0.5 + 0.1 * static_cast<double>(i + j);
    };
    const auto ground_t = [&](std::size_t i, std::size_t j) {
      return ground(j, i);
    };
    EXPECT_NEAR(earth_movers_distance(p, q, ground),
                earth_movers_distance(q, p, ground_t), 1e-7);
  }
}

TEST(Emd, BoundedByGroundDiameter) {
  util::Rng rng{55};
  for (int trial = 0; trial < 20; ++trial) {
    Distribution p{{rng.uniform(), rng.uniform(), rng.uniform(), 0.01}};
    Distribution q{{0.01, rng.uniform(), rng.uniform(), rng.uniform()}};
    const auto ground = [](std::size_t i, std::size_t j) {
      return i == j ? 0.0 : 1.0;
    };
    const double d = earth_movers_distance(p, q, ground);
    EXPECT_GE(d, -1e-9);
    EXPECT_LE(d, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace capman::math
