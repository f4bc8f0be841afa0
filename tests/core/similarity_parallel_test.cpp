// The engine contracts of the parallel/memoized Algorithm 1 (see
// core/similarity.h): sharding across threads and the exact EMD cache are
// bit-identical transformations, and the SimilarityStats accounting always
// balances.
#include "core/similarity.h"

#include <gtest/gtest.h>

#include "graph_test_util.h"

namespace capman::core {
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
    }
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
