// Observability overhead: what telemetry costs on the simulator's hot
// path. Runs the same CAPMAN discharge cycle (the Fig. 12 workload) five
// ways —
//   1. telemetry off (no sinks, no profiler; the default for every bench),
//   2. full decision tracing (JSONL sink, the <5% budget configuration),
//   3. decisions + span profile,
//   4. decisions + spans + verbose per-EMD spans,
//   5. sampler + flight recorder + health monitor (the PR-8 time
//      dimension, also held to the <5% budget),
// and reports median wall time per configuration plus the overhead
// relative to the disabled baseline. The budget the observability layer
// is held to is <5% for configurations 2 and 5 (ScopedSpan is one relaxed
// atomic load when disabled; decision events are only assembled when a
// decision sink is on, step samples only on a sink's tick; serialisation
// goes through std::to_chars into a drain buffer, never per-field
// operator<<; the sampler/recorder/monitor run on the sim clock).
//
// Wall-clock numbers are machine-dependent; the binary prints PASS/WARN
// against the 5% budget rather than asserting, so CI noise cannot turn a
// slow container into a build failure. --smoke runs fewer repeats and adds
// a min-over-repeats verdict line ("SMOKE PASS" / "SMOKE WARN", robust to
// one-sided noise) that scripts/check_all.sh reports as advisory.
//
// What is gated is deterministic: per configuration, the work each sink
// did — decision records and JSONL bytes, sampler rows, flight events
// recorded, health evaluations. --json writes them (plus the overhead
// percentages, never gated) to BENCH_obs_overhead.json, which the
// obs_overhead_smoke CTest gate diffs exactly against
// bench/baselines/obs_overhead.json via scripts/check_bench_regress.py.
// Span counts stay out: worker spans depend on the core count.
// --csv writes the per-repeat samples to bench_obs_overhead.csv.
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "workload/generators.h"

using namespace capman;

namespace {

/// Deterministic work of one run's sinks, read back off its output files
/// (0 for a sink the configuration leaves off).
struct SinkWork {
  std::uint64_t decision_records = 0;
  std::uint64_t jsonl_bytes = 0;
  std::uint64_t sampler_rows = 0;
  std::uint64_t flight_events = 0;
  std::uint64_t health_evaluations = 0;
};

struct Sample {
  std::string config;
  double wall_ms = 0.0;
  std::size_t trace_events = 0;
  std::uint64_t decisions = 0;
  SinkWork work;
};

std::uint64_t count_lines(const std::string& path) {
  std::ifstream in{path};
  std::uint64_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

/// Events the flight recorder sequenced: every record carries its run-wide
/// seq, and with dump_at_end the newest event always lands in a dump, so
/// the largest seq + 1 is the recorder's event count.
std::uint64_t flight_events(const std::string& path) {
  std::ifstream in{path};
  std::uint64_t events = 0;
  const std::string key = "\"seq\":";
  for (std::string line; std::getline(in, line);) {
    const auto at = line.find(key);
    if (at == std::string::npos) continue;
    events = std::max<std::uint64_t>(
        events, std::stoull(line.substr(at + key.size())) + 1);
  }
  return events;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double minimum(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double overhead_pct(double baseline, double value) {
  return baseline > 0.0 ? 100.0 * (value - baseline) / baseline : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = bench::seed_from_args(argc, argv);
  const bool csv = bench::csv_requested(argc, argv);
  const bool json = bench::json_requested(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string{argv[i]} == "--smoke") smoke = true;
  }

  const device::PhoneModel phone{device::nexus_profile()};
  const auto trace =
      workload::make_video()->generate(util::Seconds{600.0}, seed);

  const int repeats = smoke ? 5 : 7;
  struct Config {
    const char* name;
    const char* slug;  // artifact key prefix
    bool decisions;
    bool spans;
    bool verbose;
    bool time_dim;  // sampler + flight recorder + health monitor
  };
  const std::vector<Config> configs = {
      {"disabled", "disabled", false, false, false, false},
      {"decisions", "decisions", true, false, false, false},
      {"decisions+spans", "decisions_spans", true, true, false, false},
      {"decisions+spans+verbose", "decisions_spans_verbose", true, true, true,
       false},
      {"sampler+recorder+health", "time_dim", false, false, false, true},
  };

  const std::string decisions_path = "bench_obs_overhead_decisions.jsonl";
  const std::string samples_path = "bench_obs_overhead_samples.csv";
  const std::string flight_path = "bench_obs_overhead_flight.jsonl";
  const auto run_config = [&](const Config& cfg) {
    sim::RunnerOptions options;
    options.seed = seed;
    // Real file sinks so the measurement includes serialisation and
    // flush, not just in-memory buffering.
    if (cfg.decisions) {
      options.config.telemetry.decision_trace_path = decisions_path;
    }
    if (cfg.spans) {
      options.config.telemetry.spans_path = "bench_obs_overhead_spans.json";
      options.config.telemetry.verbose_spans = cfg.verbose;
    }
    if (cfg.time_dim) {
      options.config.telemetry.sampler.enabled = true;
      options.config.telemetry.sampler.csv_path = samples_path;
      options.config.telemetry.recorder.enabled = true;
      options.config.telemetry.recorder.dump_path = flight_path;
      options.config.telemetry.recorder.dump_at_end = true;
      options.config.telemetry.health.enabled = true;
    }
    const sim::ExperimentRunner runner{phone, options};
    const auto start = std::chrono::steady_clock::now();
    const auto r = runner.run(trace, sim::PolicyKind::kCapman);
    const auto stop = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    SinkWork work;
    if (cfg.decisions) {
      work.decision_records = count_lines(decisions_path);
      work.jsonl_bytes = std::filesystem::file_size(decisions_path);
    }
    if (cfg.time_dim) {
      work.sampler_rows = count_lines(samples_path) - 1;  // header
      work.flight_events = flight_events(flight_path);
    }
    work.health_evaluations = r.health.evaluations;
    return Sample{cfg.name, wall_ms,
                  static_cast<std::size_t>(
                      r.metrics.counter_or("engine/trace_events", 0)),
                  r.metrics.counter_or("engine/consults", 0), work};
  };

  run_config(configs[0]);  // unmeasured warm-up (cold caches, page-in)

  // Repeats are interleaved round-robin across configurations so slow
  // machine drift (thermal, cache pressure from neighbours) spreads over
  // all rows instead of landing wholesale on whichever config ran last.
  std::vector<Sample> samples;
  std::vector<std::vector<double>> walls(configs.size());
  for (int rep = 0; rep < repeats; ++rep) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const Sample s = run_config(configs[i]);
      walls[i].push_back(s.wall_ms);
      samples.push_back(s);
    }
  }
  std::vector<double> medians;
  medians.reserve(configs.size());
  for (const auto& w : walls) medians.push_back(median(w));
  std::remove("bench_obs_overhead_spans.json");
  std::remove(decisions_path.c_str());
  std::remove(samples_path.c_str());
  std::remove(flight_path.c_str());

  util::print_section(std::cout, "Observability overhead (" + trace.name() +
                                     ", median of " +
                                     std::to_string(repeats) + " runs)");
  util::TextTable table({"configuration", "wall [ms]", "overhead [%]",
                         "trace events", "decisions"});
  for (std::size_t i = 0; i < configs.size(); ++i) {
    // events/decisions are identical across repeats (deterministic sim);
    // report this config's sample from the final round.
    const auto& last = samples[(repeats - 1) * configs.size() + i];
    table.add_row(configs[i].name,
                  {medians[i], overhead_pct(medians[0], medians[i]),
                   static_cast<double>(last.trace_events),
                   static_cast<double>(last.decisions)},
                  2);
  }
  table.print(std::cout);

  const double decisions_pct = overhead_pct(medians[0], medians[1]);
  const double time_dim_pct = overhead_pct(medians[0], medians[4]);
  const struct {
    const char* what;
    double pct;
  } budget_rows[] = {{"full decision tracing", decisions_pct},
                     {"sampler+recorder+health", time_dim_pct}};
  bool all_pass = true;
  for (const auto& row : budget_rows) {
    const bool pass = row.pct < 5.0;
    all_pass = all_pass && pass;
    std::cout << (pass ? "  PASS" : "  WARN") << ": " << row.what << " adds "
              << util::TextTable::format(row.pct, 2) << "% vs a 5% budget"
              << (pass ? "" : " (machine noise? re-run on an idle host)")
              << "\n";
  }
  bench::measured_note(std::cout,
                       "the disabled row is the bit-identical baseline every "
                       "other bench runs with: no sink, no ambient profiler, "
                       "ScopedSpan degenerates to one relaxed atomic load.");

  if (csv) {
    util::CsvWriter out{"bench_obs_overhead.csv"};
    out.header({"configuration", "wall_ms", "trace_events", "decisions"});
    for (const auto& s : samples) {
      out.cell(s.config).cell(s.wall_ms).cell(s.trace_events).cell(s.decisions);
      out.end_row();
    }
  }
  if (json) {
    // Wall times are machine noise; the artifact carries the deterministic
    // sink work per configuration (gated exactly) plus the overhead
    // percentages (NOISY, reported only). Every repeat does the same
    // work, so the final round's samples stand for all of them.
    bench::BenchJson artifact{"obs_overhead", seed};
    artifact.metric("decisions", static_cast<double>(samples.back().decisions));
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const SinkWork& work = samples[(repeats - 1) * configs.size() + i].work;
      const std::string slug = std::string(configs[i].slug) + ".";
      artifact.metric(slug + "decision_records",
                      static_cast<double>(work.decision_records));
      artifact.metric(slug + "jsonl_bytes",
                      static_cast<double>(work.jsonl_bytes));
      artifact.metric(slug + "sampler_rows",
                      static_cast<double>(work.sampler_rows));
      artifact.metric(slug + "flight_events",
                      static_cast<double>(work.flight_events));
      artifact.metric(slug + "health_evaluations",
                      static_cast<double>(work.health_evaluations));
    }
    artifact.metric("overhead_decisions_pct", decisions_pct);
    artifact.metric("overhead_time_dim_pct", time_dim_pct);
    artifact.write_file();
  }

  if (smoke) {
    // Min-over-repeats is the least noise-inflated estimate of true cost
    // on a time-shared machine — still wall clock, so advisory only.
    const double min_decisions = overhead_pct(minimum(walls[0]),
                                              minimum(walls[1]));
    const double min_time_dim = overhead_pct(minimum(walls[0]),
                                             minimum(walls[4]));
    const bool within = min_decisions < 5.0 && min_time_dim < 5.0;
    std::cout << (within ? "SMOKE PASS" : "SMOKE WARN")
              << ": min-over-repeats overhead decisions="
              << util::TextTable::format(min_decisions, 2)
              << "% time-dim=" << util::TextTable::format(min_time_dim, 2)
              << "% (budget 5%, advisory)\n";
  }
  return 0;  // the budget check warns rather than fails (CI noise)
}
