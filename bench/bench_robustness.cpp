// Robustness: how the switch-capable policies degrade when the comparator
// switch board misbehaves (sim/faults.h). Sweeps the stuck-comparator
// episode rate across CAPMAN / Dual / Heuristic and reports service time
// against the fault-free baseline plus the fault and degradation telemetry
// the run collected (SimResult::faults). A final full-chaos row turns every fault
// knob on at once for CAPMAN. --csv additionally writes the sweep rows to
// bench_robustness.csv; --json writes the BENCH_robustness.json headline
// artifact diffed against bench/baselines/robustness.json by
// scripts/check_bench_regress.py (all metrics deterministic for a seed).
//
// CAPMAN's DegradationGuard is armed automatically by ExperimentRunner
// whenever the fault plan can fire: a switch the facility never latched is
// detected from the observed active cell, the scheduler falls back to the
// active battery's safe policy, and retries with exponential backoff. Dual
// and Heuristic have no watchdog — their dropped switches stay dropped —
// which is exactly the asymmetry this sweep shows.
#include "bench_common.h"

#include "workload/generators.h"

using namespace capman;

namespace {

sim::FaultPlanConfig stuck_plan(double rate_per_min, std::uint64_t seed) {
  sim::FaultPlanConfig plan;
  plan.seed = seed;
  plan.stuck_rate_per_min = rate_per_min;
  plan.stuck_min_duration = util::Seconds{30.0};
  plan.stuck_max_duration = util::Seconds{90.0};
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = bench::seed_from_args(argc, argv);
  const bool csv = bench::csv_requested(argc, argv);
  const bool json = bench::json_requested(argc, argv);
  const device::PhoneModel phone{device::nexus_profile()};
  const auto trace =
      workload::make_video()->generate(util::Seconds{600.0}, seed);

  const std::vector<sim::PolicyKind> policies = {sim::PolicyKind::kCapman,
                                                 sim::PolicyKind::kDual,
                                                 sim::PolicyKind::kHeuristic};

  // Fault-free baselines: a plain runner, no injection layer at all.
  sim::RunnerOptions baseline_options;
  baseline_options.seed = seed;
  const sim::ExperimentRunner baseline{phone, baseline_options};
  std::vector<double> baseline_service;
  for (const auto kind : policies) {
    baseline_service.push_back(baseline.run(trace, kind).service_time_s);
  }

  util::print_section(std::cout,
                      "Robustness - stuck-comparator rate sweep (" +
                          trace.name() + ")");
  util::TextTable table({"scenario", "service [min]", "vs fault-free [%]",
                         "stuck [s]", "dropped req", "detected", "fallbacks",
                         "retries"});
  std::unique_ptr<util::CsvWriter> csv_out;
  if (csv) {
    csv_out = std::make_unique<util::CsvWriter>("bench_robustness.csv");
    csv_out->header({"rate_per_min", "policy", "service_s", "vs_baseline_pct",
                     "stuck_s", "dropped_requests", "detected", "fallbacks",
                     "retries"});
  }
  // Fault columns come off SimResult::faults, the stats the engine also
  // publishes under faults/* in the registry.
  const auto report = [&](const std::string& scenario, const std::string& rate,
                          const char* policy, const sim::SimResult& r,
                          double baseline_s) {
    const sim::FaultStats& faults = r.faults;
    const double vs = sim::improvement_pct(r.service_time_s, baseline_s);
    table.add_row(scenario,
                  {r.service_time_s / 60.0, vs, faults.stuck_time_s,
                   static_cast<double>(faults.dropped_requests),
                   static_cast<double>(faults.detected_switch_failures),
                   static_cast<double>(faults.fallback_episodes),
                   static_cast<double>(faults.fallback_retries)},
                  1);
    if (csv_out != nullptr) {
      csv_out->cell(rate)
          .cell(policy)
          .cell(r.service_time_s)
          .cell(vs)
          .cell(faults.stuck_time_s)
          .cell(faults.dropped_requests)
          .cell(faults.detected_switch_failures)
          .cell(faults.fallback_episodes)
          .cell(faults.fallback_retries);
      csv_out->end_row();
    }
  };
  // Headline artifact for the regression gate (bench/baselines/
  // robustness.json): every metric below is a pure function of the seed,
  // so the checker holds them to REL_TOL.
  bench::BenchJson artifact{"robustness", seed};
  for (const double rate : {0.0, 0.5, 1.0, 2.0}) {
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const auto kind = policies[i];
      // Distinct fault seed per rate so scenarios are independent draws;
      // the same seed across policies so they face the same episodes.
      sim::RunnerOptions options;
      options.seed = seed;
      options.faults =
          stuck_plan(rate, seed + 100 * static_cast<std::uint64_t>(rate * 10));
      const sim::ExperimentRunner runner{phone, options};
      const auto r = runner.run(trace, kind);
      report(util::TextTable::format(rate, 1) + "/min  " +
                 sim::to_string(kind),
             util::TextTable::format(rate, 1), sim::to_string(kind), r,
             baseline_service[i]);
      if (rate == 1.0) {
        const std::string policy = sim::to_string(kind);
        const sim::FaultStats& faults = r.faults;
        artifact.metric(policy + "_service_s_rate1", r.service_time_s);
        artifact.metric(policy + "_stuck_s_rate1", faults.stuck_time_s);
        if (kind == sim::PolicyKind::kCapman) {
          artifact.metric("capman_detected_rate1",
                          static_cast<double>(
                              faults.detected_switch_failures));
          artifact.metric("capman_fallbacks_rate1",
                          static_cast<double>(faults.fallback_episodes));
          artifact.metric("capman_retries_rate1",
                          static_cast<double>(faults.fallback_retries));
        }
      }
    }
  }

  // Everything at once: stuck comparator, latency jitter and spikes,
  // transient request loss, supercap droop, noisy/dropping sensors.
  sim::FaultPlanConfig chaos = stuck_plan(1.0, seed + 7);
  chaos.latency_jitter_frac = 0.3;
  chaos.latency_spike_prob = 0.05;
  chaos.transient_fail_prob = 0.1;
  chaos.droop_prob = 0.2;
  chaos.soc_bias = 0.02;
  chaos.soc_noise_stddev = 0.01;
  chaos.temp_noise_stddev_c = 0.5;
  chaos.sensor_dropout_prob = 0.05;
  sim::RunnerOptions chaos_options;
  chaos_options.seed = seed;
  chaos_options.faults = chaos;
  const sim::ExperimentRunner chaos_runner{phone, chaos_options};
  const auto rc = chaos_runner.run(trace, sim::PolicyKind::kCapman);
  report("full chaos  CAPMAN", "chaos", "CAPMAN", rc, baseline_service[0]);
  table.print(std::cout);

  if (json) {
    const sim::FaultStats& chaos_faults = rc.faults;
    artifact.metric("capman_service_s_chaos", rc.service_time_s);
    artifact.metric("capman_dropped_chaos",
                    static_cast<double>(chaos_faults.dropped_requests));
    artifact.metric("baseline_capman_service_s", baseline_service[0]);
    artifact.write_file();
  }

  bench::measured_note(std::cout,
                       "the 0.0/min rows are bit-identical to the fault-free "
                       "baseline (the injection layer is never built); under "
                       "stuck episodes CAPMAN detects the unlatched switch, "
                       "parks on the live cell and retries with backoff.");
  return 0;
}
