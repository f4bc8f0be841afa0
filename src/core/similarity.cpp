#include "core/similarity.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "math/emd.h"
#include "math/hausdorff.h"
#include "obs/spans.h"
#include "util/thread_pool.h"

namespace capman::core {

std::vector<std::string> SimilarityConfig::validate() const {
  std::vector<std::string> errors;
  auto require = [&errors](bool ok, const char* message) {
    if (!ok) errors.emplace_back(message);
  };
  require(c_s > 0.0 && c_s <= 1.0, "c_s must be in (0, 1]");
  require(c_a > 0.0 && c_a < 1.0, "c_a must be in (0, 1)");
  require(epsilon > 0.0, "epsilon must be > 0");
  require(max_iterations > 0, "max_iterations must be > 0");
  require(absorbing_distance >= 0.0, "absorbing_distance must be >= 0");
  return errors;
}

void SimilarityStats::publish(obs::MetricsRegistry& registry) const {
  registry.counter("similarity/solves").add();
  registry.counter("similarity/action_pairs_total").add(action_pairs_total);
  registry.counter("similarity/action_pairs_computed")
      .add(action_pairs_computed);
  registry.counter("similarity/action_pairs_cached").add(action_pairs_cached);
  registry.counter("similarity/emd_plans_reused").add(action_pairs_reused);
  registry.counter("similarity/state_pairs_total").add(state_pairs_total);
  registry.counter("similarity/state_pairs_computed").add(state_pairs_computed);
  registry.counter("similarity/sweeps").add(iteration_ms.size());
  registry.counter("similarity/warm_starts").add(warm_started ? 1 : 0);
  registry.gauge("similarity/threads").set(static_cast<double>(threads_used));
}

namespace {

/// One class pair's EMD history. `plan` is the optimal transport plan of
/// its last solve (empty before the first), re-priced under each later
/// ground while math::reused_plan_cost() certifies it; it exists in every
/// mode, so a class pair's EMDs depend only on its own ground sequence.
/// With use_emd_cache the slot is also a memo: the last EMD together with
/// the exact ground-distance values it was found under. A hit requires the
/// current ground values to compare equal element-for-element, so it
/// returns exactly what re-pricing the same plan (or re-solving) would —
/// the memo cannot change a bit of the result, only skip the work.
struct EmdCacheEntry {
  std::vector<double> plan;
  std::vector<double> ground;
  double emd = 0.0;
  bool valid = false;
};

/// Hash of an action vertex's transition support, (to, probability bits)
/// in edge order — the complete input its EMDs read from the vertex.
std::uint64_t support_signature(const ActionVertex& v) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ v.transitions.size();
  for (const TransitionEdge& t : v.transitions) {
    for (const std::uint64_t word :
         {static_cast<std::uint64_t>(t.to),
          std::bit_cast<std::uint64_t>(t.probability)}) {
      h ^= word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
  }
  return h;
}

/// Bit-for-bit equality of two transition supports: the EMD of any pair of
/// vertices then depends on their classes alone.
bool same_support(const ActionVertex& a, const ActionVertex& b) {
  return std::equal(a.transitions.begin(), a.transitions.end(),
                    b.transitions.begin(), b.transitions.end(),
                    [](const TransitionEdge& x, const TransitionEdge& y) {
                      return x.to == y.to &&
                             std::bit_cast<std::uint64_t>(x.probability) ==
                                 std::bit_cast<std::uint64_t>(y.probability);
                    });
}

struct DistributionClasses {
  std::vector<std::uint32_t> of;  // action vertex -> class
  std::size_t count = 0;
  // The class mass table: class c's transition probabilities, in edge
  // order, are mass[begin[c] .. begin[c + 1]). Built once per solve, so
  // every EMD reads its masses as spans instead of rebuilding them.
  std::vector<double> mass;
  std::vector<std::size_t> begin{0};

  [[nodiscard]] std::span<const double> masses(std::uint32_t c) const {
    return std::span<const double>{mass}.subspan(begin[c],
                                                 begin[c + 1] - begin[c]);
  }
};

/// Distribution classes of the action vertices and their mass table: with
/// `dedupe`, vertices with bit-equal supports share a class (numbered in
/// first-occurrence order); without, every vertex is its own class.
DistributionClasses distribution_classes(const MdpGraph& graph,
                                         bool dedupe) {
  const std::size_t na = graph.action_count();
  DistributionClasses classes{std::vector<std::uint32_t>(na), 0, {}, {0}};
  // Support hash -> the first vertex of each class with that hash.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> firsts;
  for (std::uint32_t a = 0; a < na; ++a) {
    const ActionVertex& va = graph.action(a);
    if (dedupe) {
      std::vector<std::uint32_t>& same_hash = firsts[support_signature(va)];
      const auto it = std::find_if(
          same_hash.begin(), same_hash.end(), [&](std::uint32_t first) {
            return same_support(graph.action(first), va);
          });
      if (it != same_hash.end()) {
        classes.of[a] = classes.of[*it];
        continue;
      }
      same_hash.push_back(a);
    }
    classes.of[a] = static_cast<std::uint32_t>(classes.count++);
    for (const TransitionEdge& t : va.transitions) {
      classes.mass.push_back(t.probability);
    }
    classes.begin.push_back(classes.mass.size());
  }
  return classes;
}

/// Per-worker reusable buffers and counters; workers never share one, so
/// the hot loop allocates only when a support outgrows its buffer.
struct WorkerScratch {
  std::vector<double> ground;
  std::size_t action_computed = 0;
  std::size_t action_reused = 0;
  std::size_t state_computed = 0;
};

using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Copies `prior`'s similarity of every vertex pair that exists in both
/// graphs into the cold-started matrices: states matched by CapmanState id
/// and non-absorbing in both (other states' rows are Eq. 3 base cases or
/// have no prior value), action vertices matched by (source state id,
/// action id). Returns whether any pair was seeded.
bool seed_from_prior(const MdpGraph& graph, SimilarityWarmStart prior,
                     math::Matrix& s_mat, math::Matrix& a_mat) {
  if (prior.graph == nullptr || prior.result == nullptr) return false;
  const MdpGraph& old = *prior.graph;
  const math::Matrix& s_old = prior.result->state_similarity;
  const math::Matrix& a_old = prior.result->action_similarity;
  assert(old.state_count() == 0 || (s_old.rows() == old.state_count() &&
                                    a_old.rows() >= old.action_count()));

  // (new vertex, prior vertex) of every matched state, then action.
  std::vector<std::pair<std::size_t, std::size_t>> states;
  std::vector<std::pair<std::size_t, std::size_t>> actions;
  for (std::size_t u = 0; u < graph.state_count(); ++u) {
    if (graph.state(u).absorbing()) continue;
    const std::size_t p = old.vertex_of(graph.state(u).state_id);
    if (p != MdpGraph::npos && !old.state(p).absorbing()) {
      states.emplace_back(u, p);
    }
  }
  for (std::size_t a = 0; a < graph.action_count(); ++a) {
    const ActionVertex& va = graph.action(a);
    const std::size_t p = old.vertex_of(graph.state(va.source).state_id);
    if (p == MdpGraph::npos) continue;
    for (const std::size_t pa : old.state(p).actions) {
      if (old.action(pa).action_id == va.action_id) {
        actions.emplace_back(a, pa);
        break;
      }
    }
  }

  const auto copy = [](const auto& matched, const math::Matrix& from,
                       math::Matrix& to) {
    for (std::size_t i = 0; i < matched.size(); ++i) {
      for (std::size_t j = i + 1; j < matched.size(); ++j) {
        const double sim = from(matched[i].second, matched[j].second);
        to(matched[i].first, matched[j].first) = sim;
        to(matched[j].first, matched[i].first) = sim;
      }
    }
  };
  copy(states, s_old, s_mat);
  copy(actions, a_old, a_mat);
  return states.size() > 1 || actions.size() > 1;
}

}  // namespace

SimilarityResult SimilaritySolver::solve(const MdpGraph& graph,
                                         const SimilarityConfig& config,
                                         SimilarityWarmStart prior,
                                         bool reuse_plans) {
  assert(config.c_s > 0.0 && config.c_s <= 1.0);
  assert(config.c_a > 0.0 && config.c_a < 1.0);
  const obs::ScopedSpan solve_span{"similarity.solve", "core"};
  const std::size_t nv = graph.state_count();
  const std::size_t na = graph.action_count();

  // Publish at every exit so even trivial solves count; the registry is
  // write-only for the solver — toggling it cannot change a result bit.
  const auto publish = [&config](const SimilarityResult& r) {
    if (config.metrics == nullptr) return;
    r.stats.publish(*config.metrics);
    if (config.publish_timings) {
      obs::Histogram& sweeps = config.metrics->histogram(
          "similarity/sweep_ms",
          {0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0});
      for (const double ms : r.stats.iteration_ms) sweeps.observe(ms);
      config.metrics->gauge("similarity/total_ms").add(r.stats.total_ms);
    }
  };

  SimilarityResult result;
  result.state_similarity = math::Matrix::identity(std::max<std::size_t>(nv, 1));
  result.action_similarity = math::Matrix::identity(std::max<std::size_t>(na, 1));
  if (nv == 0) {
    result.converged = true;
    publish(result);
    return result;
  }

  math::Matrix& s_mat = result.state_similarity;
  math::Matrix& a_mat = result.action_similarity;

  // Base cases (Eq. 3). The sweeps below only write pairs of distinct
  // non-absorbing states, so one application holds for the whole solve.
  for (std::size_t u = 0; u < nv; ++u) {
    for (std::size_t v = 0; v < nv; ++v) {
      if (u == v) {
        s_mat(u, v) = 1.0;  // delta_S = 0
        continue;
      }
      const bool ua = graph.state(u).absorbing();
      const bool va = graph.state(v).absorbing();
      if (ua && va) {
        s_mat(u, v) = 1.0 - config.absorbing_distance;
      } else if (ua != va) {
        s_mat(u, v) = 0.0;  // delta_S = 1
      }
    }
  }
  // Warm start: only entries the sweeps rewrite take a prior value.
  result.stats.warm_started = seed_from_prior(graph, prior, s_mat, a_mat);

  // The work lists. Every unordered action pair a < b needs EMD(p_a, p_b),
  // which depends only on the ordered pair of their distribution classes,
  // so the EMD phase solves one representative action pair per class pair
  // (first occurrence in (a, b) order). The state list holds every
  // unordered pair of distinct non-absorbing states (absorbing pairs are
  // base cases). Fixed up front so sweeps shard over stable indices.
  constexpr std::uint32_t kNoPair = static_cast<std::uint32_t>(-1);
  const DistributionClasses classes =
      distribution_classes(graph, config.use_emd_cache);
  const std::size_t nc = classes.count;
  std::vector<std::uint32_t> class_pair_of(nc * nc, kNoPair);
  PairList class_pairs;
  for (std::uint32_t a = 0; a < na; ++a) {
    for (std::uint32_t b = a + 1; b < na; ++b) {
      std::uint32_t& slot =
          class_pair_of[classes.of[a] * nc + classes.of[b]];
      if (slot != kNoPair) continue;
      slot = static_cast<std::uint32_t>(class_pairs.size());
      class_pairs.push_back({a, b});
    }
  }
  const std::size_t action_pairs = na * (na - 1) / 2;
  PairList state_pairs;
  for (std::uint32_t u = 0; u < nv; ++u) {
    if (graph.state(u).absorbing()) continue;
    for (std::uint32_t v = u + 1; v < nv; ++v) {
      if (!graph.state(v).absorbing()) state_pairs.push_back({u, v});
    }
  }

  std::vector<double> rewards(na);
  for (std::size_t a = 0; a < na; ++a) {
    rewards[a] = graph.action(a).expected_reward();
  }

  util::ThreadPool pool(config.num_threads);
  pool.bind_metrics(config.metrics);
  const std::size_t workers = pool.worker_count();
  result.stats.threads_used = workers;
  std::vector<WorkerScratch> scratch(workers);

  // Per-EMD-solve spans are opt-in (SpanProfiler verbose mode): at tens of
  // thousands of microsecond-scale solves per sweep they dominate the
  // trace file, so the default profile carries only sweep/chunk spans.
  obs::SpanProfiler* const profiler = obs::SpanProfiler::current();
  const bool emd_spans = profiler != nullptr && profiler->verbose();

  std::vector<EmdCacheEntry> emd_cache(class_pairs.size());
  std::vector<double> class_emd(class_pairs.size());

  math::Matrix s_prev;
  math::Matrix a_prev;

  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    const obs::ScopedSpan sweep_span{"similarity.sweep", "core"};
    // Declared instrumentation: sweep wall time feeds SimilarityStats and
    // the optional timing metrics, never the fixed point itself.
    // capman-lint: allow(determinism)
    const auto iter_start = std::chrono::steady_clock::now();
    s_prev = s_mat;
    a_prev = a_mat;

    // Lines 3-5, EMD half: one EMD per class pair. Reads only s_prev,
    // writes disjoint class_emd cells per class pair — safe to shard.
    pool.parallel_for(
        class_pairs.size(),
        [&](std::size_t begin, std::size_t end, std::size_t worker) {
          WorkerScratch& sc = scratch[worker];
          for (std::size_t k = begin; k < end; ++k) {
            const auto [a, b] = class_pairs[k];
            const ActionVertex& va = graph.action(a);
            const ActionVertex& vb = graph.action(b);

            // Ground distances 1 - S over the two transition supports,
            // row-major |T_a| x |T_b| — the exact inputs of this EMD.
            const std::size_t ta = va.transitions.size();
            const std::size_t tb = vb.transitions.size();
            sc.ground.resize(ta * tb);
            for (std::size_t i = 0; i < ta; ++i) {
              for (std::size_t j = 0; j < tb; ++j) {
                sc.ground[i * tb + j] = std::clamp(
                    1.0 - s_prev(va.transitions[i].to, vb.transitions[j].to),
                    0.0, 1.0);
              }
            }

            EmdCacheEntry& entry = emd_cache[k];
            if (config.use_emd_cache) {
              if (entry.valid && entry.ground == sc.ground) {
                class_emd[k] = entry.emd;
                continue;
              }
              entry.ground = sc.ground;
              entry.valid = true;
            }
            // The last solve's plan if it is still optimal, else a solve
            // whose plan replaces it.
            const auto p = classes.masses(classes.of[a]);
            const auto q = classes.masses(classes.of[b]);
            std::optional<double> d_emd;
            if (reuse_plans && !entry.plan.empty()) {
              d_emd = math::reused_plan_cost(p, q, entry.plan, sc.ground);
            }
            if (d_emd) {
              ++sc.action_reused;
            } else {
              const double span_start = emd_spans ? profiler->now_us() : 0.0;
              entry.plan.resize(ta * tb);
              d_emd = math::earth_movers_distance(p, q, sc.ground, entry.plan);
              if (emd_spans) {
                profiler->complete("emd.solve", "math", span_start,
                                   profiler->now_us() - span_start);
              }
              ++sc.action_computed;
            }
            entry.emd = *d_emd;
            class_emd[k] = *d_emd;
          }
        });

    // Lines 3-5, assembly: every action pair combines its own reward
    // distance with its class pair's EMD. A few flops per pair, so it runs
    // here on the calling thread rather than as a third dispatch.
    for (std::size_t a = 0; a < na; ++a) {
      const std::uint32_t* row = &class_pair_of[classes.of[a] * nc];
      for (std::size_t b = a + 1; b < na; ++b) {
        const double d_emd = class_emd[row[classes.of[b]]];
        const double d_rwd = std::abs(rewards[a] - rewards[b]);
        const double sim = std::clamp(
            1.0 - (1.0 - config.c_a) * d_rwd - config.c_a * d_emd, 0.0, 1.0);
        a_mat(a, b) = sim;
        a_mat(b, a) = sim;
      }
    }

    // Lines 6-7: state similarities via Hausdorff over action neighbours.
    // Reads the a_mat just completed above (barrier between the phases),
    // writes disjoint s_mat cells per pair.
    pool.parallel_for(
        state_pairs.size(),
        [&](std::size_t begin, std::size_t end, std::size_t worker) {
          WorkerScratch& sc = scratch[worker];
          for (std::size_t k = begin; k < end; ++k) {
            const auto [u, v] = state_pairs[k];
            const StateVertex& su = graph.state(u);
            const StateVertex& sv = graph.state(v);
            const auto& nu = su.actions;
            const auto& nvv = sv.actions;
            const double h = math::hausdorff(
                nu.size(), nvv.size(), [&](std::size_t i, std::size_t j) {
                  return std::clamp(1.0 - a_mat(nu[i], nvv[j]), 0.0, 1.0);
                });
            const double sim = config.c_s * (1.0 - h);
            s_mat(u, v) = sim;
            s_mat(v, u) = sim;
            ++sc.state_computed;
          }
        });

    SimilarityStats& stats = result.stats;
    std::size_t solved = 0;
    std::size_t reused = 0;
    for (WorkerScratch& sc : scratch) {
      solved += sc.action_computed;
      reused += sc.action_reused;
      stats.state_pairs_computed += sc.state_computed;
      sc.action_computed = 0;
      sc.action_reused = 0;
      sc.state_computed = 0;
    }
    stats.action_pairs_total += action_pairs;
    stats.action_pairs_computed += solved;
    stats.action_pairs_reused += reused;
    stats.action_pairs_cached += action_pairs - solved - reused;
    stats.state_pairs_total += state_pairs.size();
    // capman-lint: allow(determinism)
    const auto iter_end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(iter_end - iter_start)
            .count();
    stats.iteration_ms.push_back(ms);
    stats.total_ms += ms;

    ++result.iterations;
    // Contraction-aware convergence: per-iteration movement delta implies a
    // distance to the fixed point of at most delta * c / (1 - c); stopping
    // on raw delta would under-iterate exactly when C_A -> 1 (the regime
    // Fig. 16 studies). Reduced on the calling thread in a fixed order, so
    // the stopping decision is identical for every thread count.
    const double delta = std::max(s_mat.linf_distance(s_prev),
                                  a_mat.linf_distance(a_prev));
    if (delta * config.c_a <= config.epsilon * (1.0 - config.c_a)) {
      result.converged = true;
      break;
    }
  }
  assert(s_mat.all_in(0.0, 1.0));
  assert(a_mat.all_in(0.0, 1.0));
  assert(result.stats.consistent());
  publish(result);
  return result;
}

SimilarityResult compute_structural_similarity(const MdpGraph& graph,
                                               const SimilarityConfig& config,
                                               SimilarityWarmStart prior) {
  return SimilaritySolver::solve(graph, config, prior, true);
}

}  // namespace capman::core
