// The engine contracts of the parallel/memoized Algorithm 1 (see
// core/similarity.h): sharding across threads and the exact EMD cache are
// bit-identical transformations, and the SimilarityStats accounting always
// balances.
#include "core/similarity.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <utility>

#include "graph_test_util.h"

namespace capman::core {

/// The solve with every EMD a fresh transport solve: no plan reuse.
struct SimilarityTestAccess {
  static SimilarityResult solve_without_plan_reuse(
      const MdpGraph& graph, const SimilarityConfig& config,
      SimilarityWarmStart prior = {}) {
    return SimilaritySolver::solve(graph, config, prior, false);
  }
};

namespace {

SimilarityConfig base_config() {
  SimilarityConfig cfg;
  cfg.c_s = 1.0;
  cfg.c_a = 0.8;
  cfg.epsilon = 1e-6;
  cfg.max_iterations = 500;
  cfg.num_threads = 1;
  cfg.use_emd_cache = false;
  return cfg;
}

void expect_bit_identical(const math::Matrix& a, const math::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(a(r, c), b(r, c)) << "entry (" << r << ", " << c << ")";
    }
  }
}

void expect_bit_identical(const SimilarityResult& a,
                          const SimilarityResult& b) {
  expect_bit_identical(a.state_similarity, b.state_similarity);
  expect_bit_identical(a.action_similarity, b.action_similarity);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

TEST(SimilarityParallel, ThreadCountDoesNotChangeResults) {
  util::Rng rng{91};
  for (int trial = 0; trial < 3; ++trial) {
    const auto graph = testutil::random_graph(rng, 14, 3);
    SimilarityConfig cfg = base_config();
    const auto serial = compute_structural_similarity(graph, cfg);
    for (const std::size_t threads : {2, 4, 8}) {
      cfg.num_threads = threads;
      const auto parallel = compute_structural_similarity(graph, cfg);
      EXPECT_EQ(parallel.stats.threads_used, threads);
      expect_bit_identical(serial, parallel);
    }
  }
}

TEST(SimilarityParallel, EmdCacheDoesNotChangeResults) {
  util::Rng rng{92};
  for (int trial = 0; trial < 3; ++trial) {
    const auto graph = testutil::random_graph(rng, 14, 3);
    SimilarityConfig cfg = base_config();
    const auto uncached = compute_structural_similarity(graph, cfg);
    cfg.use_emd_cache = true;
    const auto cached = compute_structural_similarity(graph, cfg);
    expect_bit_identical(uncached, cached);
    // The cache must actually fire: rows over absorbing targets are
    // constant after the first sweep.
    EXPECT_GT(cached.stats.action_pairs_cached, 0u);
  }
}

TEST(SimilarityParallel, CacheAndThreadsComposeBitIdentically) {
  util::Rng rng{93};
  const auto graph = testutil::random_graph(rng, 16, 4);
  SimilarityConfig cfg = base_config();
  const auto serial = compute_structural_similarity(graph, cfg);
  cfg.num_threads = 4;
  cfg.use_emd_cache = true;
  const auto engine = compute_structural_similarity(graph, cfg);
  expect_bit_identical(serial, engine);
}

TEST(SimilarityParallel, StatsCountersAreConsistent) {
  util::Rng rng{94};
  const auto graph = testutil::random_graph(rng, 14, 3);
  for (const bool cache : {false, true}) {
    for (const std::size_t threads : {1, 3, 8}) {
      SimilarityConfig cfg = base_config();
      cfg.use_emd_cache = cache;
      cfg.num_threads = threads;
      const auto result = compute_structural_similarity(graph, cfg);
      EXPECT_TRUE(result.stats.consistent());
      // Totals are (pairs per sweep) * sweeps.
      EXPECT_EQ(result.stats.action_pairs_total % result.iterations, 0u);
      EXPECT_EQ(result.stats.state_pairs_total % result.iterations, 0u);
      EXPECT_EQ(result.stats.iteration_ms.size(), result.iterations);
      if (!cache) {
        EXPECT_EQ(result.stats.action_pairs_cached, 0u);
      }
      // A multi-sweep solve re-prices still-optimal plans.
      ASSERT_GT(result.iterations, 2u);
      EXPECT_GT(result.stats.action_pairs_reused, 0u);
    }
  }
}

// Plan reuse against the reference that solves every EMD afresh: the same
// sweep count and similarities within 1e-12, in both cache modes and from
// a warm start. Reuse must actually fire, and it takes work off the
// solver rather than adding visits.
TEST(SimilarityPlanReuse, MatchesFreshSolvesEverySweep) {
  util::Rng rng{96};
  for (int trial = 0; trial < 4; ++trial) {
    const auto graph = testutil::random_graph(rng, 18, 4, 3, 4);
    for (const bool cache : {false, true}) {
      SimilarityConfig cfg = base_config();
      cfg.use_emd_cache = cache;
      const auto reused = compute_structural_similarity(graph, cfg);
      const auto fresh =
          SimilarityTestAccess::solve_without_plan_reuse(graph, cfg);
      EXPECT_EQ(reused.iterations, fresh.iterations);
      EXPECT_EQ(reused.converged, fresh.converged);
      EXPECT_LE(reused.state_similarity.linf_distance(fresh.state_similarity),
                1e-12);
      EXPECT_LE(
          reused.action_similarity.linf_distance(fresh.action_similarity),
          1e-12);
      EXPECT_EQ(fresh.stats.action_pairs_reused, 0u);
      EXPECT_GT(reused.stats.action_pairs_reused, 0u);
      EXPECT_LT(reused.stats.action_pairs_computed,
                fresh.stats.action_pairs_computed);
      EXPECT_EQ(reused.stats.action_pairs_total,
                fresh.stats.action_pairs_total);

      // Warm-started from the reference's own converged result.
      const SimilarityWarmStart prior{&graph, &fresh};
      const auto warm = compute_structural_similarity(graph, cfg, prior);
      const auto warm_fresh =
          SimilarityTestAccess::solve_without_plan_reuse(graph, cfg, prior);
      EXPECT_EQ(warm.iterations, warm_fresh.iterations);
      EXPECT_LE(
          warm.state_similarity.linf_distance(warm_fresh.state_similarity),
          1e-12);
    }
  }
}

// Budget-style graph: every action comes as a triple of vertices with the
// same (to, probability) list and different rewards, like the budget-level
// copies of one learned action. Each triple also gets two near misses that
// must not join its class: the same targets with other probabilities, and
// the same probabilities with one target moved.
MdpGraph triple_graph(util::Rng& rng, std::size_t n_states,
                      std::size_t n_absorbing) {
  std::vector<StateVertex> states(n_states);
  std::vector<ActionVertex> actions;
  for (std::size_t s = 0; s < n_states; ++s) {
    states[s].state_id = s;
    if (s + n_absorbing >= n_states) continue;
    const std::size_t n_act = 1 + rng.uniform_index(2);
    for (std::size_t a = 0; a < n_act; ++a) {
      ActionVertex base;
      base.source = s;
      base.action_id = 0;
      const std::size_t fanout = 2 + rng.uniform_index(2);
      double total = 0.0;
      for (std::size_t t = 0; t < fanout; ++t) {
        base.transitions.push_back(
            {rng.uniform_index(n_states), rng.uniform(0.1, 1.0), 0.0});
        total += base.transitions.back().probability;
      }
      for (auto& e : base.transitions) e.probability /= total;
      ActionVertex reweighted = base;
      std::swap(reweighted.transitions.front().probability,
                reweighted.transitions.back().probability);
      ActionVertex retargeted = base;
      retargeted.transitions.back().to =
          (retargeted.transitions.back().to + 1) % n_states;
      for (int copy = 0; copy < 5; ++copy) {
        ActionVertex av = copy < 3 ? base : copy == 3 ? reweighted : retargeted;
        av.action_id = actions.size() % decision_action_space_size();
        for (auto& e : av.transitions) e.reward = rng.uniform();
        states[s].actions.push_back(actions.size());
        actions.push_back(std::move(av));
      }
    }
  }
  return MdpGraph::from_parts(std::move(states), std::move(actions));
}

TEST(SimilarityParallel, DuplicateDistributionsSolveOncePerSweep) {
  util::Rng rng{95};
  const auto graph = triple_graph(rng, 16, 4);
  const std::size_t na = graph.action_count();

  // Distinct ordered (class(a), class(b)) pairs over a < b, with classes
  // found here by direct comparison of the transition lists.
  std::vector<std::size_t> class_of(na);
  std::vector<std::size_t> reps;
  const auto same = [&graph](std::size_t x, std::size_t y) {
    const auto& tx = graph.action(x).transitions;
    const auto& ty = graph.action(y).transitions;
    if (tx.size() != ty.size()) return false;
    for (std::size_t i = 0; i < tx.size(); ++i) {
      if (tx[i].to != ty[i].to) return false;
      if (std::memcmp(&tx[i].probability, &ty[i].probability,
                      sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t a = 0; a < na; ++a) {
    std::size_t c = 0;
    while (c < reps.size() && !same(reps[c], a)) ++c;
    if (c == reps.size()) reps.push_back(a);
    class_of[a] = c;
  }
  ASSERT_LT(reps.size(), na);
  std::set<std::pair<std::size_t, std::size_t>> class_pairs;
  for (std::size_t a = 0; a < na; ++a) {
    for (std::size_t b = a + 1; b < na; ++b) {
      class_pairs.insert({class_of[a], class_of[b]});
    }
  }

  SimilarityConfig cfg = base_config();
  const auto reference = compute_structural_similarity(graph, cfg);
  for (const std::size_t threads : {1, 4}) {
    cfg.num_threads = threads;
    cfg.use_emd_cache = false;
    expect_bit_identical(reference, compute_structural_similarity(graph, cfg));
    cfg.use_emd_cache = true;
    const auto deduped = compute_structural_similarity(graph, cfg);
    expect_bit_identical(reference, deduped);
    EXPECT_TRUE(deduped.stats.consistent());
    EXPECT_LE(deduped.stats.action_pairs_computed,
              deduped.iterations * class_pairs.size());
    EXPECT_EQ(deduped.stats.action_pairs_total,
              deduped.iterations * na * (na - 1) / 2);
  }

  // The first sweep has nothing memoized: it solves exactly one EMD per
  // class pair with the cache on, and every action pair with it off.
  cfg.max_iterations = 1;
  for (const bool cache : {false, true}) {
    cfg.use_emd_cache = cache;
    const auto one = compute_structural_similarity(graph, cfg);
    EXPECT_EQ(one.stats.action_pairs_computed,
              cache ? class_pairs.size() : na * (na - 1) / 2);
  }
}

TEST(SimilarityParallel, EmptyAndTinyGraphsSurviveAllEngineModes) {
  const MdpGraph empty;
  const auto chain = testutil::two_state_chain(0.5);
  for (const bool cache : {false, true}) {
    for (const std::size_t threads : {1, 8}) {
      SimilarityConfig cfg = base_config();
      cfg.num_threads = threads;
      cfg.use_emd_cache = cache;
      EXPECT_TRUE(compute_structural_similarity(empty, cfg).converged);
      const auto result = compute_structural_similarity(chain, cfg);
      EXPECT_TRUE(result.converged);
      EXPECT_DOUBLE_EQ(result.state_similarity(0, 0), 1.0);
    }
  }
}

}  // namespace
}  // namespace capman::core
