#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "digest.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "stats.h"
#include "traced_policy.h"
#include "workload/generators.h"

namespace perfbench {

namespace core = capman::core;
namespace device = capman::device;
namespace sim = capman::sim;
namespace util = capman::util;
namespace wl = capman::workload;

namespace {

// Graphs replayed through Algorithm 1 and value iteration per traced run.
constexpr std::size_t kReplayGraphs = 48;

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

/// A cycle's statistics are usable: positive finite service time and
/// finite energy and temperature figures.
bool sane(const sim::SimResult& r) {
  return finite_positive(r.service_time_s) &&
         std::isfinite(r.energy_delivered_j) && r.energy_delivered_j >= 0.0 &&
         std::isfinite(r.max_cpu_temp_c);
}

std::string fixed(double v, int digits) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(digits) << v;
  return out.str();
}

std::string signed_pct(double v) {
  std::ostringstream out;
  out << std::showpos << std::fixed << std::setprecision(1) << v << '%';
  return out.str();
}

/// Drops the figure series, keeping what the obs probes fold.
sim::SimResult without_series(sim::SimResult result) {
  result.soc_series = {};
  result.power_series = {};
  result.cpu_temp_series = {};
  result.surface_temp_series = {};
  result.tec_power_series = {};
  return result;
}

/// Span statistics of one policy kind's decorated cycles.
struct KindSpans {
  SpanLog log;
  double run_s = 0.0;  // outer spans: ExperimentRunner::run
};

/// The traced run's cycles. Each cycle runs twice, undecorated and
/// decorated, alternating which goes first so warm-up and host drift fall
/// on both sides alike; the two SimResults must be identical.
class TracedCycles {
 public:
  void run(const sim::ExperimentRunner& runner, const wl::Trace& trace,
           sim::PolicyKind kind) {
    KindSpans& spans = spans_[static_cast<std::size_t>(kind)];
    sim::SimResult plain;
    sim::SimResult traced;
    auto run_plain = [&] {
      const double start = now_s();
      plain = runner.run(trace, kind);
      untraced_s_ += now_s() - start;
    };
    if (cycles_ % 2 == 0) {
      run_plain();
      traced = run_decorated_cycle(runner, trace, kind, spans);
    } else {
      traced = run_decorated_cycle(runner, trace, kind, spans);
      run_plain();
    }
    ++cycles_;
    if (result_digest(plain) != result_digest(traced)) ++failed_;
    sim_s_ += plain.service_time_s;
    steps_ += plain.metrics.counter_or("engine/steps");
    plain = without_series(std::move(plain));
    if (kind == sim::PolicyKind::kCapman) capman_.push_back(plain);
    plain_.push_back(std::move(plain));
  }

  /// One decorated cycle of a policy kind the workload does not race, so
  /// every policy.<Kind>.* metric is timed on this workload's inputs. A
  /// probe feeds only the per-kind metrics and CAPMAN's captured graphs,
  /// never the engine self time, the shares or the registry counts.
  void probe(const sim::ExperimentRunner& runner, const wl::Trace& trace,
             sim::PolicyKind kind) {
    run_decorated_cycle(runner, trace, kind,
                        probes_[static_cast<std::size_t>(kind)]);
  }

  /// Undecorated results in run order, series dropped.
  [[nodiscard]] const std::vector<sim::SimResult>& results() const {
    return plain_;
  }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t engine_steps() const { return steps_; }
  [[nodiscard]] std::size_t graphs() const { return graphs_.size(); }

  /// Tracing overhead, span self times and shares, registry counters,
  /// solver replays and the simulated switch and rebudget counts.
  void report(MetricValues& metrics) const {
    double run_s = 0.0;
    double on_event_s = 0.0;
    double maintenance_s = 0.0;
    for (const KindSpans& own : spans_) {
      run_s += own.run_s;
      on_event_s += own.log.on_event_total_s();
      maintenance_s += own.log.maintenance_total_s;
    }
    for (const sim::PolicyKind kind : sim::all_policy_kinds()) {
      const KindSpans& k = spans_for(kind);
      std::vector<double> us;
      us.reserve(k.log.on_event_s.size());
      for (const double s : k.log.on_event_s) us.push_back(s * 1e6);
      const std::string prefix =
          std::string{"policy."} + sim::to_string(kind) + ".on_event_us.";
      metrics.set(prefix + "p50", quantile(us, 0.5));
      metrics.set(prefix + "p99", quantile(us, 0.99));
      metrics.set(prefix + "calls", static_cast<double>(us.size()));
    }
    const KindSpans& capman = spans_for(sim::PolicyKind::kCapman);
    if (capman.run_s > 0.0) {
      metrics.set("policy.CAPMAN.maintenance_share",
                  capman.log.maintenance_total_s / capman.run_s);
    }
    std::vector<double> recal_ms;
    for (const double s : capman.log.recalibration_s) {
      recal_ms.push_back(s * 1e3);
    }
    metrics.set("policy.CAPMAN.recal_ms.p50", quantile(recal_ms, 0.5));
    metrics.set("policy.CAPMAN.recal_ms.p99", quantile(recal_ms, 0.99));

    const double self_s = run_s - on_event_s - maintenance_s;
    metrics.set("sim.engine.steps", static_cast<double>(steps_));
    if (steps_ > 0) {
      metrics.set("sim.engine.self_ns_per_step",
                  self_s * 1e9 / static_cast<double>(steps_));
    }
    if (run_s > 0.0) {
      metrics.set("trace.share.engine_self", self_s / run_s);
      metrics.set("trace.share.on_event", on_event_s / run_s);
      metrics.set("trace.share.maintenance", maintenance_s / run_s);
    }
    if (untraced_s_ > 0.0 && run_s > 0.0) {
      const double untraced = sim_s_ / untraced_s_;
      const double traced = sim_s_ / run_s;
      metrics.set("trace.untraced_sim_s_per_s", untraced);
      metrics.set("trace.traced_sim_s_per_s", traced);
      metrics.set("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);
    }

    add_capman_counters(capman_, metrics);
    replay_solvers(graphs_, kReplayGraphs, metrics);
    double switches = 0.0;
    double rebudgets = 0.0;
    for (const auto& r : plain_) {
      switches += static_cast<double>(r.switch_count);
      rebudgets += static_cast<double>(r.budget_rebudgets);
    }
    metrics.set("battery.switches", switches);
    metrics.set("core.power_budget.rebudgets", rebudgets);
  }

 private:
  sim::SimResult run_decorated_cycle(const sim::ExperimentRunner& runner,
                                     const wl::Trace& trace,
                                     sim::PolicyKind kind, KindSpans& spans) {
    TracedPolicy policy{runner.build_policy(kind), spans.log,
                        [this](const core::MdpGraph& graph) {
                          graphs_.push_back(graph);
                        }};
    const double start = now_s();
    sim::SimResult result = runner.run(trace, policy);
    spans.run_s += now_s() - start;
    return result;
  }

  /// The workload's own spans of `kind`, or its probe's when the workload
  /// does not race that kind.
  [[nodiscard]] const KindSpans& spans_for(sim::PolicyKind kind) const {
    const auto k = static_cast<std::size_t>(kind);
    return spans_[k].run_s > 0.0 ? spans_[k] : probes_[k];
  }

  std::array<KindSpans, 5> spans_;
  std::array<KindSpans, 5> probes_;
  std::vector<core::MdpGraph> graphs_;
  std::vector<sim::SimResult> plain_;
  std::vector<sim::SimResult> capman_;
  double untraced_s_ = 0.0;
  double sim_s_ = 0.0;
  std::uint64_t steps_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// paper_cycle

/// Paper Fig. 12 reference gains of CAPMAN, per paper_suite() trace, over
/// Practice and over Dual (NaN where the paper gives none).
struct PaperGain {
  double vs_practice;
  double vs_dual;
};
constexpr double kNone = std::numeric_limits<double>::quiet_NaN();
constexpr std::array<PaperGain, 6> kPaperGains = {{
    {50.0, 0.0},      // Geekbench: +50% over Practice, about equal to Dual
    {kNone, 21.3},    // PCMark
    {67.1, 55.08},    // Video
    {76.0, kNone},    // eta-20%
    {105.0, kNone},   // eta-50%
    {114.0, kNone},   // eta-80%
}};

std::string paper_figure(double v) {
  return std::isnan(v) ? std::string{"n/a"} : signed_pct(v);
}

/// Seed of the k-th Fig. 12 input set of a run: the run seed itself for
/// k = 0, a splitmix64 mix of it otherwise, so nearby run seeds never
/// share input sets.
std::uint64_t input_seed(std::uint64_t seed, std::size_t k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * k;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The Fig. 12 experiment on kInputSets input sets. One repetition runs the
/// full experiment (six traces x five policies) on every set, so each
/// repetition's rate spans several trace realizations instead of one.
class PaperCycle final : public Workload {
 public:
  static constexpr std::size_t kInputSets = 2;

  explicit PaperCycle(std::uint64_t seed)
      : seed_(seed), phone_(device::nexus_profile()) {}

  void setup() override {
    sets_.clear();
    generate_us_.clear();
    for (std::size_t k = 0; k < kInputSets; ++k) {
      InputSet set;
      set.seed = input_seed(seed_, k);
      for (const auto& generator : wl::paper_suite()) {
        const double start = now_s();
        set.traces.push_back(
            generator->generate(util::Seconds{600.0}, set.seed));
        generate_us_.push_back((now_s() - start) * 1e6);
      }
      sim::RunnerOptions options;
      options.seed = set.seed;
      options.capman.similarity_threads = 1;
      set.runner = std::make_unique<sim::ExperimentRunner>(phone_, options);
      for (const sim::PolicyKind kind : sim::all_policy_kinds()) {
        if (!set.runner->build_policy(kind)) {
          throw std::runtime_error("no policy for kind");
        }
      }
      sets_.push_back(std::move(set));
    }
  }

  RepOutcome run_once() override {
    RepOutcome out;
    for (InputSet& set : sets_) {
      set.last.clear();
      for (const auto& trace : set.traces) {
        try {
          const sim::ComparisonResult comparison = set.runner->compare(trace);
          for (const auto& entry : comparison.entries()) {
            const sim::SimResult& r = entry.result;
            out.sim_s += r.service_time_s;
            out.sane = out.sane && sane(r);
            out.digests.push_back(cycle_digest(r));
            set.last.push_back({trace.name(), entry.kind, r.service_time_s});
          }
        } catch (const std::exception&) {
          out.lost += sim::all_policy_kinds().size();
          out.digests.resize(out.digests.size() +
                             sim::all_policy_kinds().size());
        }
        out.cycles += sim::all_policy_kinds().size();
      }
    }
    return out;
  }

  void report(std::ostream& out) const override {
    out << "simulated statistics (model unvalidated against hardware; the "
           "repo holds no measured reference)\n";
    for (const InputSet& set : sets_) {
      if (set.last.empty()) continue;
      out << " input set seed " << set.seed << "\n";
      for (const sim::PolicyKind kind : sim::all_policy_kinds()) {
        std::vector<double> minutes;
        for (const auto& cycle : set.last) {
          if (cycle.kind == kind) minutes.push_back(cycle.service_s / 60.0);
        }
        out << "  " << std::left << std::setw(10) << sim::to_string(kind)
            << " mean service time "
            << fixed(sum(minutes) /
                         static_cast<double>(
                             std::max<std::size_t>(minutes.size(), 1)),
                     1)
            << " min over " << minutes.size() << " traces\n";
      }
      out << "  CAPMAN gain per trace (measured | paper Fig. 12):\n";
      for (std::size_t t = 0; t < set.traces.size(); ++t) {
        const std::string& name = set.traces[t].name();
        const double capman = set.service(name, sim::PolicyKind::kCapman);
        const double practice = set.service(name, sim::PolicyKind::kPractice);
        const double dual = set.service(name, sim::PolicyKind::kDual);
        if (capman <= 0.0 || practice <= 0.0 || dual <= 0.0) continue;
        const PaperGain& paper = kPaperGains[t % kPaperGains.size()];
        out << "    " << std::left << std::setw(10) << name
            << " vs Practice " << std::setw(8)
            << signed_pct(sim::improvement_pct(capman, practice)) << "| "
            << std::setw(8) << paper_figure(paper.vs_practice)
            << "  vs Dual " << std::setw(8)
            << signed_pct(sim::improvement_pct(capman, dual)) << "| "
            << paper_figure(paper.vs_dual) << "\n";
      }
    }
  }

  // Traces the first input set: the experiment bench_fig12_discharge_cycle
  // runs at the same seed.
  TraceOutcome trace(std::ostream& out) override {
    const InputSet& set = sets_.front();
    // ExperimentRunner::compare is ExperimentRunner::run per policy kind;
    // the traced run makes those calls itself so it can decorate them.
    TracedCycles cycles;
    for (const auto& trace : set.traces) {
      for (const sim::PolicyKind kind : sim::all_policy_kinds()) {
        cycles.run(*set.runner, trace, kind);
      }
    }
    TraceOutcome outcome{cycles.cycles(), cycles.failed(), {}};
    cycles.report(outcome.metrics);
    outcome.metrics.set("workload.generate_us", median(generate_us_));
    probe_layers(set.traces, phone_, set.runner->config().dt.value(),
                 cycles.results(), outcome.metrics);
    out << "traced " << outcome.cycles << " cycles, " << outcome.failed
        << " differ from their untraced run; " << cycles.graphs()
        << " CAPMAN graphs captured\n";
    return outcome;
  }

 private:
  struct Cycle {
    std::string trace;
    sim::PolicyKind kind;
    double service_s;
  };

  struct InputSet {
    std::uint64_t seed = 0;
    std::vector<wl::Trace> traces;
    std::unique_ptr<sim::ExperimentRunner> runner;
    std::vector<Cycle> last;  // this set's cycles in the last repetition

    [[nodiscard]] double service(const std::string& trace,
                                 sim::PolicyKind kind) const {
      for (const auto& cycle : last) {
        if (cycle.trace == trace && cycle.kind == kind) return cycle.service_s;
      }
      return 0.0;
    }
  };

  std::uint64_t seed_;
  device::PhoneModel phone_;
  std::vector<InputSet> sets_;
  std::vector<double> generate_us_;
};

// ---------------------------------------------------------------------------
// Fleets

device::PhoneProfile profile_for(sim::FleetPhone phone) {
  switch (phone) {
    case sim::FleetPhone::kNexus: return device::nexus_profile();
    case sim::FleetPhone::kHonor: return device::honor_profile();
    case sim::FleetPhone::kLenovo: return device::lenovo_profile();
  }
  return device::nexus_profile();
}

std::unique_ptr<wl::WorkloadGenerator> make_generator(
    const sim::PopulationSpec::WorkloadChoice& choice) {
  switch (choice.workload) {
    case sim::FleetWorkload::kGeekbench: return wl::make_geekbench();
    case sim::FleetWorkload::kPcmark: return wl::make_pcmark();
    case sim::FleetWorkload::kVideo: return wl::make_video();
    case sim::FleetWorkload::kLocalVideo: return wl::make_local_video();
    case sim::FleetWorkload::kIdleScreenOn: return wl::make_idle_screen_on();
    case sim::FleetWorkload::kEtaStatic: return wl::make_eta_static(choice.eta);
    case sim::FleetWorkload::kScreenToggle:
      return wl::make_screen_toggle(choice.toggle_period);
  }
  return wl::make_video();
}

/// One fleet device rebuilt from its public DeviceSpec the way
/// FleetRunner::run builds it, so the traced run can decorate its
/// policies. The traced run checks the rebuilt cycles fold into exactly
/// the aggregates FleetRunner reports.
struct DeviceInputs {
  sim::SimConfig config;
  device::PhoneModel phone;
  wl::Trace trace;
  std::uint64_t seed;
};

DeviceInputs device_inputs(const sim::FleetConfig& fleet,
                           std::uint64_t device_id) {
  const sim::DeviceSpec spec =
      sim::FleetRunner::sample_device(fleet.population, fleet.seed, device_id);
  sim::SimConfig config = fleet.base;
  config.record_series = false;
  config.telemetry = capman::obs::TelemetryConfig{};
  config.telemetry.health = fleet.health;
  config.telemetry.health.alerts_path.clear();
  config.pack_config.big_chemistry = spec.big_chemistry;
  config.pack_config.big_capacity_mah = spec.big_capacity_mah;
  config.pack_config.little_chemistry = spec.little_chemistry;
  config.pack_config.little_capacity_mah = spec.little_capacity_mah;
  config.practice_capacity_mah =
      spec.big_capacity_mah + spec.little_capacity_mah;
  config.thermal_config.ambient = spec.ambient;
  config.faults = sim::FaultPlanConfig{};
  return {config, device::PhoneModel{profile_for(spec.phone)},
          make_generator(spec.workload)
              ->generate(fleet.population.trace_horizon, spec.seed),
          spec.seed};
}

struct FleetShape {
  std::vector<sim::PolicyKind> policies;
  std::size_t devices;
  bool budget;
};

// Device counts keep one repetition at a few seconds on 2 workers and each
// worker's half of the shards large enough that the per-seed imbalance
// between the halves stays small.
FleetShape shape_of(WorkloadId id) {
  if (id == WorkloadId::kFleetCapman) {
    return {{sim::PolicyKind::kCapman}, 224, false};
  }
  if (id == WorkloadId::kFleetBudget) {
    return {{sim::PolicyKind::kCapman, sim::PolicyKind::kDual}, 96, true};
  }
  return {{sim::PolicyKind::kDual, sim::PolicyKind::kHeuristic}, 2400, false};
}

/// The sub-scale population preset shared by capman_fleet and
/// bench_fleet_scaling: dt 0.25 s, 500-800 / 200-350 mAh cells, 120 s
/// trace horizon, 2 h maximum duration.
sim::FleetConfig fleet_config(const FleetShape& shape, std::uint64_t seed) {
  sim::FleetConfig config;
  config.device_count = shape.devices;
  config.threads = 2;
  config.seed = seed;
  config.policies = shape.policies;
  config.base.dt = util::Seconds{0.25};
  config.base.max_duration = util::hours(2.0);
  config.base.record_series = false;
  config.population.big_capacity_mah_lo = 500.0;
  config.population.big_capacity_mah_hi = 800.0;
  config.population.little_capacity_mah_lo = 200.0;
  config.population.little_capacity_mah_hi = 350.0;
  config.population.trace_horizon = util::Seconds{120.0};
  config.capman.similarity_threads = 1;
  if (shape.budget) {
    config.base.budget.enabled = true;
    config.base.budget.base_budget_mw = util::Milliwatts{2500.0};
    config.base.budget.cap_method = core::CapMethod::kRelax;
    config.capman.learn_budget = true;
  }
  return config;
}

double fleet_sim_s(const sim::FleetResult& result) {
  double seconds = 0.0;
  for (const auto& aggregate : result.policies) {
    seconds += static_cast<double>(aggregate.lifetime_us.raw()) * 1e-6;
  }
  return seconds;
}

bool same_aggregate(const sim::PolicyAggregate& a,
                    const sim::PolicyAggregate& b) {
  return a.devices == b.devices && a.brownouts == b.brownouts &&
         a.truncated == b.truncated && a.switch_total == b.switch_total &&
         a.lifetime_us == b.lifetime_us && a.max_temp_mc == b.max_temp_mc &&
         a.energy_delivered_mj == b.energy_delivered_mj;
}

std::string snapshot_json(const capman::obs::MetricsSnapshot& snapshot) {
  std::ostringstream json;
  snapshot.write_json(json);
  return json.str();
}

class Fleet final : public Workload {
 public:
  Fleet(WorkloadId id, std::uint64_t seed)
      : shape_(shape_of(id)), seed_(seed) {}

  // Set-up is what a fleet does before its first simulated step: validate
  // the config and build the FleetRunner, then sample device 0 and build
  // its trace, validated runner and policies.
  void setup() override {
    config_ = fleet_config(shape_, seed_);
    runner_ = std::make_unique<sim::FleetRunner>(config_);
    devices_.clear();
    add_device(0);
  }

  RepOutcome run_once() override {
    RepOutcome out;
    const std::uint64_t cycles = config_.device_count * config_.policies.size();
    out.cycles = cycles;
    out.cycles_per_digest = cycles;
    try {
      last_ = runner_->run();
      out.sim_s = fleet_sim_s(last_);
      out.lost = last_.quarantined_devices * config_.policies.size();
      out.sane = finite_positive(out.sim_s) &&
                 last_.total_engine_steps > 0;
      out.digests.push_back(snapshot_digest(last_.metrics));
    } catch (const std::exception&) {
      out.lost = cycles;
      out.digests.push_back(0);
    }
    return out;
  }

  void report(std::ostream& out) const override {
    out << "simulated statistics (model unvalidated against hardware; the "
           "repo holds no measured reference)\n";
    for (const auto& aggregate : last_.policies) {
      out << "  " << std::left << std::setw(10) << sim::to_string(aggregate.kind)
          << " devices " << aggregate.devices << "  mean lifetime "
          << fixed(aggregate.mean_lifetime_s(), 1) << " s  p10/p50/p90 "
          << fixed(aggregate.lifetime_s_sketch.quantile(0.1), 1) << "/"
          << fixed(aggregate.lifetime_s_sketch.quantile(0.5), 1) << "/"
          << fixed(aggregate.lifetime_s_sketch.quantile(0.9), 1)
          << " s  brownout " << fixed(aggregate.brownout_fraction() * 100.0, 1)
          << "%  truncated " << aggregate.truncated << "\n";
    }
  }

  // Traces the first quarter of the devices (each cycle runs twice there),
  // so the traced run costs about as much as an untraced one.
  TraceOutcome trace(std::ostream& out) override {
    sim::FleetConfig traced = config_;
    traced.device_count = std::max<std::size_t>(config_.device_count / 4, 1);
    devices_.clear();
    for (std::uint64_t id = 0; id < traced.device_count; ++id) add_device(id);
    // Sampling plus trace generation alone, without the runner and policy
    // construction add_device also pays.
    const double generate_start = now_s();
    for (std::uint64_t id = 0; id < traced.device_count; ++id) {
      if (device_inputs(config_, id).trace.empty()) {
        throw std::runtime_error("empty trace");
      }
    }
    const double generate_s = now_s() - generate_start;

    TracedCycles cycles;
    for (const auto& d : devices_) {
      for (const sim::PolicyKind kind : config_.policies) {
        cycles.run(*d.runner, d.trace, kind);
      }
    }
    for (const sim::PolicyKind kind : sim::all_policy_kinds()) {
      if (std::find(config_.policies.begin(), config_.policies.end(), kind) ==
          config_.policies.end()) {
        cycles.probe(*devices_.front().runner, devices_.front().trace, kind);
      }
    }
    TraceOutcome outcome{cycles.cycles(), cycles.failed(), {}};
    MetricValues& metrics = outcome.metrics;

    // The rebuilt devices, folded in device order, must give exactly the
    // aggregates FleetRunner reports for the same devices.
    const std::size_t policies = config_.policies.size();
    std::vector<sim::PolicyAggregate> aggregates(policies);
    for (std::size_t i = 0; i < cycles.results().size(); ++i) {
      aggregates[i % policies].add(cycles.results()[i], false);
    }
    const sim::FleetResult subset = sim::FleetRunner{traced}.run();
    bool rebuilt = subset.total_engine_steps == cycles.engine_steps() &&
                   subset.policies.size() == policies;
    for (std::size_t p = 0; rebuilt && p < policies; ++p) {
      rebuilt = same_aggregate(subset.policies[p], aggregates[p]);
    }

    // The whole fleet at 1 and 2 workers: speed-up and byte-identical
    // snapshots.
    sim::FleetConfig one = config_;
    one.threads = 1;
    double start = now_s();
    const sim::FleetResult serial = sim::FleetRunner{one}.run();
    const double serial_s = now_s() - start;
    start = now_s();
    const sim::FleetResult parallel = runner_->run();
    const double parallel_s = now_s() - start;
    const bool identical =
        snapshot_json(serial.metrics) == snapshot_json(parallel.metrics);
    const std::uint64_t fleet_cycles =
        (traced.device_count + 2 * config_.device_count) * policies;
    outcome.cycles += fleet_cycles;
    if (!identical || !rebuilt) outcome.failed += fleet_cycles;
    outcome.failed += (subset.quarantined_devices +
                       serial.quarantined_devices +
                       parallel.quarantined_devices) *
                      policies;

    metrics.set("sim.fleet.speedup_2w", serial_s / parallel_s);
    std::vector<double> shard_steps;
    for (const auto& shard : parallel.shards) {
      shard_steps.push_back(static_cast<double>(shard.engine_steps));
    }
    const double mean_steps =
        sum(shard_steps) / static_cast<double>(shard_steps.size());
    if (mean_steps > 0.0) {
      metrics.set("sim.fleet.shard_steps_max_over_mean",
                  *std::max_element(shard_steps.begin(), shard_steps.end()) /
                      mean_steps);
    }

    cycles.report(metrics);
    metrics.set("workload.generate_us",
                generate_s * 1e6 / static_cast<double>(traced.device_count));
    std::vector<wl::Trace> traces;
    for (std::size_t i = 0; i < std::min<std::size_t>(devices_.size(), 16);
         ++i) {
      traces.push_back(devices_[i].trace);
    }
    probe_layers(traces, devices_.front().runner->phone(),
                 config_.base.dt.value(), cycles.results(), metrics);
    out << "traced " << cycles.cycles() << " cycles, " << cycles.failed()
        << " differ from their untraced run; fleet snapshots at 1 and 2 "
        << "workers " << (identical ? "identical" : "DIFFER")
        << "; rebuilt devices " << (rebuilt ? "match" : "DO NOT match")
        << " the fleet aggregates; " << cycles.graphs()
        << " CAPMAN graphs captured\n";
    return outcome;
  }

 private:
  struct Device {
    wl::Trace trace;
    std::unique_ptr<sim::ExperimentRunner> runner;
  };

  /// Rebuilds device `id` as FleetRunner::run does: sampled identity,
  /// generated trace, validated runner, and one policy per raced kind.
  void add_device(std::uint64_t id) {
    DeviceInputs inputs = device_inputs(config_, id);
    auto runner = std::make_unique<sim::ExperimentRunner>(
        inputs.phone, sim::RunnerOptions{inputs.config, inputs.seed,
                                         std::nullopt, config_.capman});
    for (const sim::PolicyKind kind : config_.policies) {
      if (!runner->build_policy(kind)) {
        throw std::runtime_error("no policy for kind");
      }
    }
    devices_.push_back({std::move(inputs.trace), std::move(runner)});
  }

  FleetShape shape_;
  std::uint64_t seed_;
  sim::FleetConfig config_;
  std::unique_ptr<sim::FleetRunner> runner_;
  std::vector<Device> devices_;
  sim::FleetResult last_;
};

}  // namespace

std::optional<WorkloadId> parse_workload(std::string_view name) {
  for (const WorkloadId id : all_workloads()) {
    if (name == to_string(id)) return id;
  }
  return std::nullopt;
}

const char* to_string(WorkloadId id) {
  switch (id) {
    case WorkloadId::kPaperCycle: return "paper_cycle";
    case WorkloadId::kFleetBaseline: return "fleet_baseline";
    case WorkloadId::kFleetCapman: return "fleet_capman";
    case WorkloadId::kFleetBudget: return "fleet_budget";
  }
  return "?";
}

const std::vector<WorkloadId>& all_workloads() {
  static const std::vector<WorkloadId> kAll = {
      WorkloadId::kPaperCycle, WorkloadId::kFleetBaseline,
      WorkloadId::kFleetCapman, WorkloadId::kFleetBudget};
  return kAll;
}

std::unique_ptr<Workload> make_workload(WorkloadId id, std::uint64_t seed) {
  if (id == WorkloadId::kPaperCycle) return std::make_unique<PaperCycle>(seed);
  return std::make_unique<Fleet>(id, seed);
}

}  // namespace perfbench
