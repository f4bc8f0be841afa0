// Warm-started Algorithm 1 (core/similarity.h): seeding the recursion from
// a previous solve changes the sweep count, never the limit. Warm and cold
// results each lie within epsilon of the fixed point, the Eq. 3 base cases
// stay exact whatever the prior held, a missing prior is a cold solve bit
// for bit, and the scheduler's warm-started recalibrations stay
// bit-identical across thread counts and telemetry.
#include "core/similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/mdp.h"
#include "core/scheduler.h"
#include "core/value_iteration.h"
#include "graph_test_util.h"
#include "obs/metrics.h"

namespace capman::core {
namespace {

SimilarityConfig config(double epsilon) {
  SimilarityConfig cfg;
  cfg.c_s = 1.0;
  cfg.c_a = 0.8;
  cfg.epsilon = epsilon;
  cfg.max_iterations = 4000;
  cfg.num_threads = 1;
  return cfg;
}

double sup_distance(const math::Matrix& a, const math::Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      worst = std::max(worst, std::abs(a(r, c) - b(r, c)));
    }
  }
  return worst;
}

void expect_bit_identical(const SimilarityResult& a,
                          const SimilarityResult& b) {
  EXPECT_EQ(sup_distance(a.state_similarity, b.state_similarity), 0.0);
  EXPECT_EQ(sup_distance(a.action_similarity, b.action_similarity), 0.0);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

/// Snapshots of one learned MDP as observations accumulate, the shape a
/// scheduler's recalibrations see: later graphs gain states and action
/// vertices, and the counts under earlier ones keep shifting.
std::vector<MdpGraph> growing_graphs(std::uint64_t seed, std::size_t count) {
  util::Rng rng{seed};
  Mdp mdp{1.0, base_decision_action_space_size()};
  std::vector<MdpGraph> graphs;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t active = 6 + 4 * k;  // states in play so far
    for (int i = 0; i < 60; ++i) {
      const std::size_t state = rng.uniform_index(active);
      const DecisionAction action =
          DecisionAction::from_index(rng.uniform_index(8));
      const std::size_t next = rng.uniform() < 0.7
                                   ? rng.uniform_index(active)
                                   : rng.uniform_index(state_space_size());
      mdp.observe({state, action, next, rng.uniform()});
    }
    graphs.push_back(MdpGraph::from_mdp(mdp, 1.5));
  }
  return graphs;
}

TEST(SimilarityWarmStart, OwnConvergedResultConvergesInOneSweep) {
  util::Rng rng{7};
  for (int trial = 0; trial < 4; ++trial) {
    const MdpGraph graph = testutil::random_graph(rng, 14, 3);
    const SimilarityConfig cfg = config(1e-6);
    const SimilarityResult cold = compute_structural_similarity(graph, cfg);
    ASSERT_TRUE(cold.converged);
    ASSERT_GT(cold.iterations, 1u);
    const SimilarityResult warm =
        compute_structural_similarity(graph, cfg, {&graph, &cold});
    EXPECT_TRUE(warm.stats.warm_started);
    EXPECT_TRUE(warm.converged);
    EXPECT_EQ(warm.iterations, 1u);
  }
}

TEST(SimilarityWarmStart, GrowingSequenceStaysWithinTwoEpsilonOfCold) {
  const std::vector<MdpGraph> graphs = growing_graphs(17, 8);
  for (const double epsilon : {1e-2, 1e-4}) {
    const SimilarityConfig cfg = config(epsilon);
    SimilarityResult warm;
    const MdpGraph* prior_graph = nullptr;
    std::size_t cold_sweeps = 0;
    std::size_t warm_sweeps = 0;
    for (std::size_t k = 0; k < graphs.size(); ++k) {
      const SimilarityResult cold =
          compute_structural_similarity(graphs[k], cfg);
      SimilarityResult next =
          compute_structural_similarity(graphs[k], cfg, {prior_graph, &warm});
      ASSERT_TRUE(cold.converged);
      ASSERT_TRUE(next.converged);
      EXPECT_EQ(next.stats.warm_started, k > 0) << "graph " << k;
      EXPECT_LE(sup_distance(cold.state_similarity, next.state_similarity),
                2.0 * epsilon)
          << "graph " << k;
      EXPECT_LE(sup_distance(cold.action_similarity, next.action_similarity),
                2.0 * epsilon)
          << "graph " << k;
      cold_sweeps += cold.iterations;
      warm_sweeps += next.iterations;
      warm = std::move(next);
      prior_graph = &graphs[k];
    }
    EXPECT_LT(warm_sweeps, cold_sweeps) << "epsilon " << epsilon;
  }
}

// Eq. 10 on warm results: a growing sequence and an unrelated prior over
// the same state ids (the worst seed) both keep the competitiveness bound.
TEST(SimilarityWarmStart, CompetitivenessBoundHoldsOnWarmResults) {
  const double rho = 0.8;
  SimilarityConfig cfg = config(1e-9);
  cfg.c_a = rho;
  ValueIterationConfig vi_cfg;
  vi_cfg.rho = rho;
  vi_cfg.epsilon = 1e-12;

  util::Rng rng{31};
  const MdpGraph unrelated = testutil::random_graph(rng, 12, 3);
  const MdpGraph target = testutil::random_graph(rng, 12, 3);
  std::vector<std::pair<MdpGraph, MdpGraph>> cases;  // (prior, graph)
  cases.emplace_back(unrelated, target);
  const std::vector<MdpGraph> graphs = growing_graphs(23, 5);
  for (std::size_t k = 1; k < graphs.size(); ++k) {
    cases.emplace_back(graphs[k - 1], graphs[k]);
  }

  const double scale = 1.0 / (1.0 - rho);
  const double slack = 1e-5 * scale;
  for (const auto& [prior_graph, graph] : cases) {
    const SimilarityResult prior =
        compute_structural_similarity(prior_graph, cfg);
    const SimilarityResult sim =
        compute_structural_similarity(graph, cfg, {&prior_graph, &prior});
    ASSERT_TRUE(sim.converged);
    ASSERT_TRUE(sim.stats.warm_started);
    const ValueIterationResult values = solve_values(graph, vi_cfg);
    ASSERT_TRUE(values.converged);
    for (std::size_t u = 0; u < graph.state_count(); ++u) {
      for (std::size_t v = 0; v < graph.state_count(); ++v) {
        const double gap =
            std::abs(values.state_values[u] - values.state_values[v]);
        EXPECT_LE(gap, sim.state_distance(u, v) * scale + slack)
            << "states " << u << "," << v;
      }
    }
    for (std::size_t a = 0; a < graph.action_count(); ++a) {
      for (std::size_t b = 0; b < graph.action_count(); ++b) {
        const double gap =
            std::abs(values.action_values[a] - values.action_values[b]);
        EXPECT_LE(gap, sim.action_distance(a, b) * scale + slack)
            << "actions " << a << "," << b;
      }
    }
  }
}

/// A graph over CapmanState ids `ids`; `edges[i]` lists, for the state of
/// ids[i], one action vertex per entry, each moving to the vertex given.
MdpGraph graph_over(const std::vector<std::size_t>& ids,
                    const std::vector<std::vector<std::size_t>>& edges) {
  std::vector<StateVertex> states(ids.size());
  std::vector<ActionVertex> actions;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    states[i].state_id = ids[i];
    for (std::size_t k = 0; k < edges[i].size(); ++k) {
      ActionVertex a;
      a.source = i;
      a.action_id = k;
      a.transitions.push_back({edges[i][k], 0.6, 0.1 + 0.1 * k});
      a.transitions.push_back({(edges[i][k] + 1) % ids.size(), 0.4,
                               0.05 * static_cast<double>(ids[i])});
      states[i].actions.push_back(actions.size());
      actions.push_back(std::move(a));
    }
  }
  return MdpGraph::from_parts(std::move(states), std::move(actions));
}

TEST(SimilarityWarmStart, BaseCasesStayExactWhenVerticesChange) {
  SimilarityConfig cfg = config(1e-3);
  cfg.absorbing_distance = 0.3;
  // Prior: states 0-3 act, 4 is absorbing.
  const MdpGraph prior_graph =
      graph_over({0, 1, 2, 3, 4}, {{1, 4}, {2}, {3, 0}, {1, 2}, {}});
  // Now: 2 vanished, 5 and 6 appeared (6 absorbing), 3 turned absorbing
  // and 4 started acting.
  const MdpGraph graph = graph_over(
      {0, 1, 3, 4, 5, 6}, {{1, 3}, {2, 5}, {}, {0, 4}, {1, 2}, {}});
  const SimilarityResult prior =
      compute_structural_similarity(prior_graph, cfg);
  const SimilarityResult warm =
      compute_structural_similarity(graph, cfg, {&prior_graph, &prior});
  const SimilarityResult cold = compute_structural_similarity(graph, cfg);
  ASSERT_TRUE(warm.stats.warm_started);
  ASSERT_TRUE(warm.converged);

  for (std::size_t u = 0; u < graph.state_count(); ++u) {
    for (std::size_t v = 0; v < graph.state_count(); ++v) {
      const bool ua = graph.state(u).absorbing();
      const bool va = graph.state(v).absorbing();
      const double s = warm.state_similarity(u, v);
      if (u == v) {
        EXPECT_EQ(s, 1.0) << u;
      } else if (ua && va) {
        EXPECT_EQ(s, 1.0 - cfg.absorbing_distance) << u << "," << v;
      } else if (ua != va) {
        EXPECT_EQ(s, 0.0) << u << "," << v;
      }
    }
  }
  for (std::size_t a = 0; a < graph.action_count(); ++a) {
    EXPECT_EQ(warm.action_similarity(a, a), 1.0) << a;
  }
  EXPECT_LE(sup_distance(cold.state_similarity, warm.state_similarity),
            2.0 * cfg.epsilon);
  EXPECT_LE(sup_distance(cold.action_similarity, warm.action_similarity),
            2.0 * cfg.epsilon);
}

TEST(SimilarityWarmStart, MissingOrEmptyPriorIsBitIdenticalToCold) {
  util::Rng rng{5};
  const MdpGraph graph = testutil::random_graph(rng, 12, 3);
  const SimilarityConfig cfg = config(1e-4);
  const SimilarityResult cold = compute_structural_similarity(graph, cfg);
  const MdpGraph empty;
  const SimilarityResult empty_result =
      compute_structural_similarity(empty, cfg);
  // Same shapes, state ids 100+: no vertex matches.
  std::vector<StateVertex> states = graph.states();
  for (StateVertex& s : states) s.state_id += 100;
  const MdpGraph disjoint = MdpGraph::from_parts(states, graph.actions());
  const SimilarityResult disjoint_result =
      compute_structural_similarity(disjoint, cfg);

  for (const SimilarityWarmStart prior :
       {SimilarityWarmStart{}, SimilarityWarmStart{&graph, nullptr},
        SimilarityWarmStart{nullptr, &cold},
        SimilarityWarmStart{&empty, &empty_result},
        SimilarityWarmStart{&disjoint, &disjoint_result}}) {
    const SimilarityResult warm =
        compute_structural_similarity(graph, cfg, prior);
    EXPECT_FALSE(warm.stats.warm_started);
    expect_bit_identical(cold, warm);
  }
  // Warm-starting an empty graph from anything is the trivial solve.
  const SimilarityResult trivial =
      compute_structural_similarity(empty, cfg, {&graph, &cold});
  EXPECT_FALSE(trivial.stats.warm_started);
  expect_bit_identical(empty_result, trivial);
}

/// A scheduler fed a fixed observation stream, recalibrating after each
/// chunk; returns the similarity and values of every recalibration.
struct Recalibrations {
  std::vector<SimilarityResult> similarity;
  std::vector<ValueIterationResult> values;
};

Recalibrations drive_scheduler(std::size_t threads,
                               obs::MetricsRegistry* registry) {
  CapmanConfig cfg;
  cfg.similarity_threads = threads;
  OnlineScheduler sched{cfg, 3};
  sched.bind_metrics(registry);
  util::Rng rng{11};
  Recalibrations out;
  for (std::size_t k = 0; k < 6; ++k) {
    const std::size_t active = 8 + 4 * k;
    for (int i = 0; i < 80; ++i) {
      const std::size_t state = rng.uniform_index(active);
      const DecisionAction action =
          DecisionAction::from_index(rng.uniform_index(10));
      sched.observe({state, action, rng.uniform_index(active),
                     rng.uniform()});
    }
    sched.recalibrate();
    out.similarity.push_back(sched.similarity());
    out.values.push_back(sched.values());
  }
  return out;
}

TEST(SimilarityWarmStart, SchedulerBitIdenticalAcrossThreadsAndTelemetry) {
  obs::MetricsRegistry registry;
  const Recalibrations base = drive_scheduler(1, nullptr);
  const Recalibrations threaded = drive_scheduler(4, nullptr);
  const Recalibrations observed = drive_scheduler(1, &registry);
  for (const Recalibrations* other : {&threaded, &observed}) {
    ASSERT_EQ(other->similarity.size(), base.similarity.size());
    for (std::size_t k = 0; k < base.similarity.size(); ++k) {
      expect_bit_identical(base.similarity[k], other->similarity[k]);
      EXPECT_EQ(base.values[k].action_values, other->values[k].action_values);
      EXPECT_EQ(base.values[k].state_values, other->values[k].state_values);
    }
  }
  std::size_t sweeps = 0;
  for (std::size_t k = 0; k < base.similarity.size(); ++k) {
    EXPECT_EQ(base.similarity[k].stats.warm_started, k > 0) << k;
    sweeps += base.similarity[k].iterations;
  }
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or("similarity/warm_starts"),
            base.similarity.size() - 1);
  EXPECT_EQ(snap.counter_or("similarity/sweeps"), sweeps);
  EXPECT_EQ(snap.counter_or("similarity/solves"), base.similarity.size());
}

}  // namespace
}  // namespace capman::core
