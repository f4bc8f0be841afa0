// Scaling study of the parallel, memoized Algorithm 1 engine
// (core/similarity.cpp): wall-clock speedup of the engine over the serial
// path at 1/2/4/8 worker threads on learned-shape MDP graphs of growing
// |S|, plus the contribution of the exact EMD cache.
//
// The serial path is the engine with one thread and no cache —
// operation-for-operation the pre-engine implementation. Thread count and
// the EMD cache are bit-identical transformations, which this binary
// re-verifies on every graph.
//
// A budget-style graph replicates every action vertex at the three
// budget levels (identical transitions, fresh rewards), the shape
// learn_budget produces; its cached EMD solves gate the engine's
// one-EMD-per-distribution-class-pair dedupe.
//
// A last, recalibration-sequence row snapshots the graph one seeded CAPMAN
// controller learns at eight points of bench::mixed_drive and solves
// the snapshots in order at the scheduler's own Algorithm 1 settings,
// once cold and once warm-started from the previous snapshot's solve (as
// OnlineScheduler::recalibrate does). It counts sweeps and EMD solves for
// both, and checks that each warm result is within 2 * epsilon of the cold
// one.
//
// Columns: engine wall time [ms], speedup vs the serial path, sweeps, and
// the pair-visit breakdown (EMD solved / plans reused / cache hits) from
// SimilarityStats.
// With --csv, writes bench_similarity_scaling.csv with one row per
// (states, actions, mode, threads) configuration.
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/budget_level.h"
#include "core/similarity.h"
#include "mixed_drive.h"
#include "util/rng.h"

using namespace capman;

namespace {

// A learned-shape synthetic graph: like MdpGraph::from_mdp output, a large
// share of states are absorbing (observed only as targets, below the
// min-observations cut) and transitions are biased toward them. The
// absorbing core is what lets similarity rows freeze — the same structure
// the cache exploits on real recalibrations.
core::MdpGraph learned_shape_graph(std::size_t n_states, util::Rng& rng) {
  const std::size_t n_absorbing = n_states * 2 / 5;
  std::vector<core::StateVertex> states(n_states);
  std::vector<core::ActionVertex> actions;
  for (std::size_t s = 0; s < n_states; ++s) states[s].state_id = s;
  for (std::size_t s = 0; s + n_absorbing < n_states; ++s) {
    const std::size_t n_act = 1 + rng.uniform_index(3);
    for (std::size_t a = 0; a < n_act; ++a) {
      core::ActionVertex av;
      av.source = s;
      av.action_id = actions.size() % core::decision_action_space_size();
      const std::size_t fanout = 2 + rng.uniform_index(3);
      double total = 0.0;
      for (std::size_t t = 0; t < fanout; ++t) {
        core::TransitionEdge e;
        // 70% of transitions land in the absorbing core.
        e.to = rng.uniform() < 0.7
                   ? n_states - n_absorbing + rng.uniform_index(n_absorbing)
                   : rng.uniform_index(n_states);
        e.probability = rng.uniform(0.1, 1.0);
        e.reward = rng.uniform();
        total += e.probability;
        av.transitions.push_back(e);
      }
      for (auto& e : av.transitions) e.probability /= total;
      states[s].actions.push_back(actions.size());
      actions.push_back(std::move(av));
    }
  }
  return core::MdpGraph::from_parts(std::move(states), std::move(actions));
}

// The budget-level copies of a learned action: each action vertex of
// `graph` becomes three, one per budget level, with the same transition
// support and independently drawn rewards.
core::MdpGraph budget_replicated(const core::MdpGraph& graph,
                                 util::Rng& rng) {
  std::vector<core::StateVertex> states = graph.states();
  std::vector<core::ActionVertex> actions;
  for (core::StateVertex& state : states) {
    const std::vector<std::size_t> originals = std::move(state.actions);
    state.actions.clear();
    for (const std::size_t a : originals) {
      for (std::size_t level = 0; level < core::kBudgetLevelCount; ++level) {
        core::ActionVertex copy = graph.action(a);
        copy.action_id =
            (level * core::base_decision_action_space_size() +
             copy.action_id % core::base_decision_action_space_size());
        for (auto& e : copy.transitions) e.reward = rng.uniform();
        state.actions.push_back(actions.size());
        actions.push_back(std::move(copy));
      }
    }
  }
  return core::MdpGraph::from_parts(std::move(states), std::move(actions));
}

// The graphs a CAPMAN scheduler learns over bench::mixed_drive: one
// snapshot every 375 s of simulated time, eight in all.
std::vector<core::MdpGraph> recalibration_sequence(
    const core::CapmanConfig& config, std::uint64_t seed) {
  constexpr double kSnapshotEvery = 375.0;
  core::CapmanController controller{config, seed};
  std::vector<core::MdpGraph> graphs;
  const auto snapshot = [&] {
    graphs.push_back(core::MdpGraph::from_mdp(controller.scheduler().mdp(),
                                              config.min_observations));
  };
  double next_snapshot = kSnapshotEvery;
  bench::mixed_drive(controller, seed, [&](double t) {
    if (t >= next_snapshot) {
      snapshot();
      next_snapshot += kSnapshotEvery;
    }
  });
  snapshot();
  return graphs;
}

core::SimilarityConfig engine_config(std::size_t threads, bool cache) {
  core::SimilarityConfig cfg;
  cfg.c_s = 1.0;
  cfg.c_a = 0.9;  // strong coupling between the two similarity layers
  cfg.epsilon = 1e-3;
  cfg.max_iterations = 300;
  cfg.num_threads = threads;
  cfg.use_emd_cache = cache;
  return cfg;
}

struct Timed {
  core::SimilarityResult result;
  double ms = 0.0;
};

Timed run_timed(const core::MdpGraph& graph,
                const core::SimilarityConfig& cfg, int reps) {
  Timed best;
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto result = compute_structural_similarity(graph, cfg);
    const auto end = std::chrono::steady_clock::now();
    times.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    if (i == 0) best.result = std::move(result);
  }
  std::sort(times.begin(), times.end());
  best.ms = times[times.size() / 2];
  return best;
}

double max_abs_diff(const math::Matrix& a, const math::Matrix& b) {
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      worst = std::max(worst, std::abs(a(r, c) - b(r, c)));
    }
  }
  return worst;
}

bool bit_identical(const core::SimilarityResult& a,
                   const core::SimilarityResult& b) {
  return max_abs_diff(a.state_similarity, b.state_similarity) == 0.0 &&
         max_abs_diff(a.action_similarity, b.action_similarity) == 0.0 &&
         a.iterations == b.iterations;
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = bench::seed_from_args(argc, argv);
  const bool csv = bench::csv_requested(argc, argv);
  const bool json = bench::json_requested(argc, argv);
  util::Rng rng{seed};

  util::print_section(
      std::cout, "Similarity engine scaling - threads, EMD cache");

  std::unique_ptr<util::CsvWriter> csv_out;
  if (csv) {
    csv_out = std::make_unique<util::CsvWriter>(
        std::string{"bench_similarity_scaling.csv"});
    csv_out->header({"states", "actions", "mode", "threads", "ms", "speedup",
                     "sweeps", "emd_solved", "plans_reused", "cache_hits"});
  }

  bool all_identical = true;

  // One graph's study: the serial path, the engine at 1/2/4/8 threads and
  // the cache-off engine at 4, each checked bit-identical to serial.
  struct Study {
    core::SimilarityResult serial;
    core::SimilarityResult engine_1t;
    double speedup_4t = 0.0;
  };
  const auto study = [&](const core::MdpGraph& graph, int reps,
                         const std::string& label) {
    std::cout << "\n  " << label << "|S| = " << graph.state_count()
              << ", |Lambda| = " << graph.action_count() << " ("
              << graph.action_count() * (graph.action_count() - 1) / 2
              << " action pairs per sweep)\n";

    Study out;
    const auto serial = run_timed(graph, engine_config(1, false), reps);

    util::TextTable table({"mode", "threads", "ms", "speedup", "sweeps",
                           "EMD solved", "plans reused", "cache hits"});
    const auto report = [&](const std::string& mode, std::size_t threads,
                            const Timed& timed) {
      const auto& st = timed.result.stats;
      const double speedup = serial.ms / std::max(timed.ms, 1e-9);
      table.add_row(mode,
                    {static_cast<double>(threads), timed.ms, speedup,
                     static_cast<double>(timed.result.iterations),
                     static_cast<double>(st.action_pairs_computed),
                     static_cast<double>(st.action_pairs_reused),
                     static_cast<double>(st.action_pairs_cached)},
                    2);
      if (csv_out) {
        csv_out->cell(graph.state_count())
            .cell(graph.action_count())
            .cell(mode)
            .cell(threads)
            .cell(timed.ms)
            .cell(speedup)
            .cell(timed.result.iterations)
            .cell(st.action_pairs_computed)
            .cell(st.action_pairs_reused)
            .cell(st.action_pairs_cached);
        csv_out->end_row();
      }
      return speedup;
    };

    report("serial", 1, serial);
    for (const std::size_t threads : {1, 2, 4, 8}) {
      auto engine = run_timed(graph, engine_config(threads, true), reps);
      const double speedup = report("engine", threads, engine);
      if (!bit_identical(serial.result, engine.result)) {
        all_identical = false;
      }
      if (threads == 1) out.engine_1t = std::move(engine.result);
      if (threads == 4) out.speedup_4t = speedup;
    }
    // Cache off at 4 threads: the pure-threading row.
    const auto no_cache =
        run_timed(graph, engine_config(4, false), reps);
    report("no-cache", 4, no_cache);
    if (!bit_identical(serial.result, no_cache.result)) all_identical = false;
    table.print(std::cout);
    out.serial = serial.result;
    return out;
  };

  // Deterministic headline counts from the largest (96-state) graph and
  // the budget-style graph, for the BENCH_similarity_scaling.json artifact.
  double largest_speedup_4t = 0.0;
  std::uint64_t final_sweeps = 0;
  std::uint64_t final_emd_solved = 0;
  for (const std::size_t n_states : {24, 48, 96}) {
    const auto graph = learned_shape_graph(n_states, rng);
    const Study st = study(graph, n_states <= 48 ? 3 : 1, "");
    largest_speedup_4t = st.speedup_4t;
    final_sweeps = static_cast<std::uint64_t>(st.serial.iterations);
    final_emd_solved = st.serial.stats.action_pairs_computed;
  }
  const auto dup_graph = budget_replicated(learned_shape_graph(48, rng), rng);
  const std::uint64_t emd_solved_dup =
      study(dup_graph, 3, "budget-replicated, ")
          .engine_1t.stats.action_pairs_computed;

  // The recalibration sequence, cold and warm-started.
  core::CapmanConfig capman;
  capman.exploration_initial = 0.5;  // visit both batteries broadly
  core::SimilarityConfig seq_cfg = capman.similarity_config();
  seq_cfg.num_threads = 1;
  const std::vector<core::MdpGraph> sequence =
      recalibration_sequence(capman, seed);
  std::uint64_t sweeps_seq_cold = 0;
  std::uint64_t sweeps_seq_warm = 0;
  std::uint64_t emd_solved_seq_cold = 0;
  std::uint64_t emd_solved_seq_warm = 0;
  double worst_warm_gap = 0.0;
  bool seq_converged = true;
  {
    std::cout << "\n  recalibration sequence: " << sequence.size()
              << " learned graphs, |S| " << sequence.front().state_count()
              << " -> " << sequence.back().state_count() << ", |Lambda| "
              << sequence.front().action_count() << " -> "
              << sequence.back().action_count() << "\n";
    util::TextTable table({"graph", "|S|", "|Lambda|", "cold sweeps",
                           "warm sweeps", "cold EMD", "warm EMD",
                           "max |warm-cold|"});
    core::SimilarityResult warm;
    const core::MdpGraph* prior = nullptr;
    for (std::size_t k = 0; k < sequence.size(); ++k) {
      const core::MdpGraph& graph = sequence[k];
      const auto cold = compute_structural_similarity(graph, seq_cfg);
      auto next = compute_structural_similarity(graph, seq_cfg, {prior, &warm});
      const double gap =
          std::max(max_abs_diff(cold.state_similarity, next.state_similarity),
                   max_abs_diff(cold.action_similarity,
                                next.action_similarity));
      worst_warm_gap = std::max(worst_warm_gap, gap);
      seq_converged = seq_converged && cold.converged && next.converged;
      sweeps_seq_cold += cold.iterations;
      sweeps_seq_warm += next.iterations;
      emd_solved_seq_cold += cold.stats.action_pairs_computed;
      emd_solved_seq_warm += next.stats.action_pairs_computed;
      table.add_row({std::to_string(k), std::to_string(graph.state_count()),
                     std::to_string(graph.action_count()),
                     std::to_string(cold.iterations),
                     std::to_string(next.iterations),
                     std::to_string(cold.stats.action_pairs_computed),
                     std::to_string(next.stats.action_pairs_computed),
                     util::TextTable::format(gap, 5)});
      warm = std::move(next);
      prior = &graph;
    }
    table.print(std::cout);
  }
  const bool warm_within_bound =
      seq_converged && worst_warm_gap <= 2.0 * seq_cfg.epsilon;

  bench::measured_note(
      std::cout, std::string{"thread/cache modes bit-identical to serial: "} +
                     (all_identical ? "yes" : "NO - ENGINE BUG"));
  bench::measured_note(
      std::cout,
      "recalibration sequence, cold -> warm: " +
          std::to_string(sweeps_seq_cold) + " -> " +
          std::to_string(sweeps_seq_warm) + " sweeps, " +
          std::to_string(emd_solved_seq_cold) + " -> " +
          std::to_string(emd_solved_seq_warm) +
          " EMD solves; warm within 2*epsilon of cold: " +
          (warm_within_bound ? "yes" : "NO - WARM START BUG"));
  bench::measured_note(
      std::cout,
      "largest graph, engine x4 speedup over serial path: " +
          util::TextTable::format(largest_speedup_4t, 2) + "x");
  bench::paper_note(
      std::cout,
      "per-pair decomposition parallelises Algorithm 1 near-linearly on "
      "real cores; on a single-core host the speedup is carried by the "
      "exact EMD cache over the absorbing-frozen rows.");
  if (json) {
    // Counts are deterministic for a fixed seed; the x4 speedup is
    // machine-dependent and is reported but never gated.
    bench::BenchJson artifact{"similarity_scaling", seed};
    artifact.metric("bit_identical", all_identical ? 1.0 : 0.0);
    artifact.metric("sweeps_96", static_cast<double>(final_sweeps));
    artifact.metric("emd_solved_96", static_cast<double>(final_emd_solved));
    artifact.metric("emd_solved_dup", static_cast<double>(emd_solved_dup));
    artifact.metric("speedup_x4_96", largest_speedup_4t);
    artifact.metric("sweeps_seq_cold", static_cast<double>(sweeps_seq_cold));
    artifact.metric("sweeps_seq_warm", static_cast<double>(sweeps_seq_warm));
    artifact.metric("emd_solved_seq_cold",
                    static_cast<double>(emd_solved_seq_cold));
    artifact.metric("emd_solved_seq_warm",
                    static_cast<double>(emd_solved_seq_warm));
    artifact.write_file();
  }
  return all_identical && warm_within_bound ? 0 : 1;
}
