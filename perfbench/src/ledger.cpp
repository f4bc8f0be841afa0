#include "ledger.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "battery/cell.h"
#include "battery/pack.h"
#include "core/config.h"
#include "core/power_budget.h"
#include "core/similarity.h"
#include "core/value_iteration.h"
#include "device/power_consumer.h"
#include "math/emd.h"
#include "obs/sketch.h"
#include "sim/fleet.h"
#include "stats.h"
#include "thermal/phone_thermal.h"
#include "thermal/tec_consumer.h"

namespace perfbench {

namespace core = capman::core;
namespace util = capman::util;

// ---------------------------------------------------------------------------
// Catalogue

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"sim_s_per_s", "s/s", "higher"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mib", "MiB", "lower"},
  };
  return kMetrics;
}

namespace {

std::vector<MetricSpec> build_per_layer() {
  std::vector<MetricSpec> m = {
      {"sim.engine.steps", "count", "lower"},
      {"sim.engine.self_ns_per_step", "ns", "lower"},
      {"sim.fleet.speedup_2w", "x", "higher"},
      {"sim.fleet.shard_steps_max_over_mean", "ratio", "lower"},
  };
  for (const char* kind : {"Oracle", "CAPMAN", "Dual", "Heuristic",
                           "Practice"}) {
    const std::string prefix = std::string{"policy."} + kind + ".on_event_us.";
    m.push_back({prefix + "p50", "us", "lower"});
    m.push_back({prefix + "p99", "us", "lower"});
    m.push_back({prefix + "calls", "count", "lower"});
  }
  const std::vector<MetricSpec> rest = {
      {"policy.CAPMAN.maintenance_share", "ratio", "lower"},
      {"policy.CAPMAN.recal_ms.p50", "ms", "lower"},
      {"policy.CAPMAN.recal_ms.p99", "ms", "lower"},
      {"core.scheduler.recalibrations", "count", "lower"},
      {"core.scheduler.vi_sweeps", "count", "lower"},
      {"core.scheduler.decisions_exact", "count", "higher"},
      {"core.scheduler.decisions_transferred", "count", "higher"},
      {"core.scheduler.decisions_fallback", "count", "lower"},
      {"core.scheduler.decisions_explored", "count", "lower"},
      {"core.similarity.solves", "count", "lower"},
      {"core.similarity.action_pairs_computed", "count", "lower"},
      {"core.similarity.action_pairs_cached", "count", "higher"},
      {"core.similarity.action_pair_visits", "count", "lower"},
      {"core.similarity.cache_hit_ratio", "ratio", "higher"},
      {"core.similarity.state_pairs_computed", "count", "lower"},
      {"core.similarity.replayed_graphs", "count", "higher"},
      {"core.similarity.solve_us.p50", "us", "lower"},
      {"core.similarity.solve_us.p99", "us", "lower"},
      {"core.similarity.sweeps_per_solve", "count", "lower"},
      {"core.similarity.fanout_ratio", "ratio", "lower"},
      {"core.value_iteration.solve_us.p50", "us", "lower"},
      {"math.emd.support_max", "count", "lower"},
      {"math.emd.ns.k2", "ns", "lower"},
      {"math.emd.ns.k4", "ns", "lower"},
      {"math.emd.ns.k8", "ns", "lower"},
      {"core.power_budget.rebudget_ns", "ns", "lower"},
      {"core.power_budget.rebudgets", "count", "lower"},
      {"thermal.step_ns.dt50ms", "ns", "lower"},
      {"thermal.step_ns.dt250ms", "ns", "lower"},
      {"battery.pack_step_ns", "ns", "lower"},
      {"battery.cell_draw_ns", "ns", "lower"},
      {"battery.switches", "count", "lower"},
      {"device.power_ns", "ns", "lower"},
      {"workload.generate_us", "us", "lower"},
      {"workload.cursor_advance_ns", "ns", "lower"},
      {"obs.aggregate_add_ns", "ns", "lower"},
      {"obs.sketch_merge_us", "us", "lower"},
      {"trace.untraced_sim_s_per_s", "s/s", "higher"},
      {"trace.traced_sim_s_per_s", "s/s", "higher"},
      {"trace.overhead_pct", "%", "lower"},
      {"trace.share.engine_self", "ratio", "lower"},
      {"trace.share.on_event", "ratio", "lower"},
      {"trace.share.maintenance", "ratio", "lower"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

bool known_metric(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& spec : *list) {
      if (name == spec.name) return true;
    }
  }
  return false;
}

}  // namespace

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = build_per_layer();
  return kMetrics;
}

void MetricValues::set(const std::string& name, double value) {
  if (!known_metric(name)) {
    throw std::logic_error("metric '" + name + "' is not in the catalogue");
  }
  values_[name] = value;
}

void MetricValues::add(const std::string& name, double value) {
  set(name, get(name) + value);
}

double MetricValues::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------------------
// Registry counters

void add_capman_counters(const std::vector<capman::sim::SimResult>& capman,
                         MetricValues& metrics) {
  static const std::array<std::pair<const char*, const char*>, 11> kCounters =
      {{{"scheduler/recalibrations", "core.scheduler.recalibrations"},
        {"scheduler/vi_sweeps", "core.scheduler.vi_sweeps"},
        {"scheduler/decisions_exact", "core.scheduler.decisions_exact"},
        {"scheduler/decisions_transferred",
         "core.scheduler.decisions_transferred"},
        {"scheduler/decisions_fallback", "core.scheduler.decisions_fallback"},
        {"scheduler/decisions_explored", "core.scheduler.decisions_explored"},
        {"similarity/solves", "core.similarity.solves"},
        {"similarity/action_pairs_computed",
         "core.similarity.action_pairs_computed"},
        {"similarity/action_pairs_cached",
         "core.similarity.action_pairs_cached"},
        {"similarity/state_pairs_computed",
         "core.similarity.state_pairs_computed"},
        {"similarity/action_pairs_total",
         "core.similarity.action_pair_visits"}}};
  for (const auto& result : capman) {
    for (const auto& [registry_name, metric] : kCounters) {
      metrics.add(metric, static_cast<double>(
                              result.metrics.counter_or(registry_name)));
    }
  }
  // Hits over the pairs that could hit: computed + cached (frozen-pair
  // skips never reach the cache).
  const double computed = metrics.get("core.similarity.action_pairs_computed");
  const double cached = metrics.get("core.similarity.action_pairs_cached");
  metrics.set("core.similarity.cache_hit_ratio",
              computed + cached > 0.0 ? cached / (computed + cached) : 0.0);
}

// ---------------------------------------------------------------------------
// Probes

// Results of probed calls land here so the optimizer cannot drop them.
double g_sink = 0.0;

namespace {

/// Median over `batches` of the mean time per call of `body(i)`, i in
/// [0, ops), in nanoseconds.
template <typename Body>
double ns_per_op(std::size_t ops, Body&& body, std::size_t batches = 7) {
  std::vector<double> per_op;
  std::size_t i = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::int64_t start = now_ns();
    for (std::size_t end = i + ops; i < end; ++i) body(i);
    per_op.push_back(static_cast<double>(now_ns() - start) /
                     static_cast<double>(ops));
  }
  return median(per_op);
}

double probe_thermal(double dt) {
  capman::thermal::PhoneThermal thermal{};
  return ns_per_op(20000, [&](std::size_t i) {
    const double cpu_w = 0.5 + 0.25 * static_cast<double>(i % 9);
    g_sink += thermal
                  .step(util::Watts{cpu_w}, util::Watts{0.05},
                        util::Watts{0.4}, util::Seconds{dt})
                  .value();
  });
}

double probe_cell(double dt) {
  const capman::battery::Cell fresh{capman::battery::Chemistry::kNCA, 1700.0};
  capman::battery::Cell cell = fresh;
  return ns_per_op(20000, [&](std::size_t i) {
    const double load_w = 0.8 + 0.2 * static_cast<double>(i % 7);
    g_sink += cell.draw(util::Watts{load_w}, util::Seconds{dt})
                  .delivered.value();
    if (cell.soc() < 0.2) cell = fresh;
  });
}

double probe_pack(double dt) {
  capman::battery::DualBatteryPack pack{};
  double now = 0.0;
  return ns_per_op(20000, [&](std::size_t i) {
    if (i % 400 == 0) {
      pack.request((i / 400) % 2 == 0 ? capman::battery::BatterySelection::kLittle
                                      : capman::battery::BatterySelection::kBig,
                   util::Seconds{now});
    }
    const double load_w = 0.8 + 0.2 * static_cast<double>(i % 7);
    now += dt;
    g_sink += pack.step(util::Watts{load_w}, util::Seconds{dt},
                        util::Seconds{now})
                  .delivered.value();
    if (pack.soc() < 0.2) pack.recharge();
  });
}

double probe_rebudget(const capman::device::PhoneModel& phone) {
  capman::thermal::PhoneThermal thermal{};
  capman::device::CpuPowerConsumer cpu{phone.cpu()};
  capman::device::ScreenPowerConsumer screen{phone.screen()};
  capman::device::WifiPowerConsumer wifi{phone.wifi()};
  capman::thermal::TecPowerConsumer tec{thermal.tec()};
  std::array<capman::device::PowerConsumer*,
             capman::device::kConsumerKindCount>
      consumers{&cpu, &screen, &wifi, &tec};
  core::PowerBudgetArbiterConfig config;
  config.enabled = true;
  config.base_budget_mw = util::Milliwatts{2500.0};
  core::PowerBudgetArbiter arbiter{config};
  return ns_per_op(5000, [&](std::size_t i) {
    core::BudgetInputs in;
    in.big_soc = 1.0 - static_cast<double>(i % 97) / 100.0;
    in.little_soc = 1.0 - static_cast<double>(i % 89) / 100.0;
    in.rail_v = 3.4 + 0.01 * static_cast<double>(i % 50);
    in.skin_c = 30.0 + static_cast<double>(i % 17);
    in.cell_c = 28.0 + static_cast<double>(i % 23);
    in.hotspot_c = 40.0 + static_cast<double>(i % 31);
    g_sink += arbiter.rebudget(in, core::BudgetLevel::kFull, consumers)
                  .granted_mw.raw();
  });
}

/// earth_movers_distance between two random distributions over `k`
/// points each, with distances between random points on a line as the
/// ground metric: the shape of Algorithm 1's inner call.
double probe_emd(std::size_t k) {
  std::uint64_t state = 0x9E3779B97F4A7C15ULL ^ k;
  auto uniform = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  auto distribution = [&] {
    capman::math::Distribution d;
    double total = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      d.mass.push_back(0.05 + uniform());
      total += d.mass.back();
    }
    for (double& m : d.mass) m /= total;
    return d;
  };
  const capman::math::Distribution p = distribution();
  const capman::math::Distribution q = distribution();
  std::vector<double> xs(k);
  std::vector<double> ys(k);
  for (std::size_t i = 0; i < k; ++i) {
    xs[i] = uniform();
    ys[i] = uniform();
  }
  const capman::math::GroundDistance ground = [&](std::size_t i,
                                                  std::size_t j) {
    return std::abs(xs[i] - ys[j]);
  };
  return ns_per_op(2000, [&](std::size_t) {
    g_sink += capman::math::earth_movers_distance(p, q, ground);
  });
}

}  // namespace

void replay_solvers(const std::vector<core::MdpGraph>& graphs,
                    std::size_t max_graphs, MetricValues& metrics) {
  if (graphs.empty() || max_graphs == 0) return;
  const core::CapmanConfig capman{};
  core::SimilarityConfig serial = capman.similarity_config();
  serial.num_threads = 1;
  core::SimilarityConfig fanout = serial;
  fanout.num_threads = 0;  // one worker per core: the library default
  const core::ValueIterationConfig vi = capman.value_iteration_config();

  std::vector<std::size_t> picks;
  const std::size_t count = std::min(max_graphs, graphs.size());
  for (std::size_t k = 0; k < count; ++k) {
    picks.push_back(k * graphs.size() / count);
  }

  std::vector<double> solve_us;
  std::vector<double> vi_us;
  double sweeps = 0.0;
  double serial_s = 0.0;
  double fanout_s = 0.0;
  std::size_t support_max = 0;
  for (const core::MdpGraph& graph : graphs) {
    for (const auto& action : graph.actions()) {
      support_max = std::max(support_max, action.transitions.size());
    }
  }

  for (const std::size_t index : picks) {
    const core::MdpGraph& graph = graphs[index];
    double start = now_s();
    const core::SimilarityResult result =
        core::compute_structural_similarity(graph, serial);
    const double serial_solve = now_s() - start;
    solve_us.push_back(serial_solve * 1e6);
    serial_s += serial_solve;
    sweeps += static_cast<double>(result.iterations);

    start = now_s();
    g_sink += core::compute_structural_similarity(graph, fanout).iterations;
    fanout_s += now_s() - start;

    start = now_s();
    g_sink += static_cast<double>(core::solve_values(graph, vi).iterations);
    vi_us.push_back((now_s() - start) * 1e6);
  }

  metrics.set("core.similarity.replayed_graphs",
              static_cast<double>(picks.size()));
  metrics.set("core.similarity.solve_us.p50", quantile(solve_us, 0.5));
  metrics.set("core.similarity.solve_us.p99", quantile(solve_us, 0.99));
  metrics.set("core.similarity.sweeps_per_solve",
              sweeps / static_cast<double>(picks.size()));
  metrics.set("core.similarity.fanout_ratio",
              serial_s > 0.0 ? fanout_s / serial_s : 0.0);
  metrics.set("core.value_iteration.solve_us.p50", median(vi_us));
  metrics.set("math.emd.support_max", static_cast<double>(support_max));
}

void probe_layers(const std::vector<capman::workload::Trace>& traces,
                  const capman::device::PhoneModel& phone, double dt,
                  const std::vector<capman::sim::SimResult>& results,
                  MetricValues& metrics) {
  metrics.set("thermal.step_ns.dt50ms", probe_thermal(0.05));
  metrics.set("thermal.step_ns.dt250ms", probe_thermal(0.25));
  metrics.set("battery.cell_draw_ns", probe_cell(dt));
  metrics.set("battery.pack_step_ns", probe_pack(dt));
  metrics.set("core.power_budget.rebudget_ns", probe_rebudget(phone));
  metrics.set("math.emd.ns.k2", probe_emd(2));
  metrics.set("math.emd.ns.k4", probe_emd(4));
  metrics.set("math.emd.ns.k8", probe_emd(8));

  std::vector<capman::device::DeviceDemand> demands;
  for (const auto& trace : traces) {
    for (const auto& event : trace.events()) demands.push_back(event.demand);
  }
  if (!demands.empty()) {
    metrics.set("device.power_ns", ns_per_op(20000, [&](std::size_t i) {
                  g_sink += phone.power(demands[i % demands.size()])
                                .total()
                                .value();
                }));
  }
  if (!traces.empty()) {
    capman::workload::TraceCursor cursor{traces.front()};
    double t = 0.0;
    metrics.set("workload.cursor_advance_ns",
                ns_per_op(20000, [&](std::size_t) {
                  t += dt;
                  g_sink += cursor.advance(t) ? 1.0 : 0.0;
                }));
  }
  if (!results.empty()) {
    capman::sim::PolicyAggregate aggregate;
    metrics.set("obs.aggregate_add_ns",
                ns_per_op(2000, [&](std::size_t i) {
                  aggregate.add(results[i % results.size()], false);
                }));
    metrics.set("obs.sketch_merge_us",
                ns_per_op(200, [&](std::size_t) {
                  capman::obs::QuantileSketch merged;
                  merged.merge(aggregate.lifetime_s_sketch);
                  merged.merge(aggregate.max_temp_c_sketch);
                  merged.merge(aggregate.switches_sketch);
                  g_sink += static_cast<double>(merged.count());
                }) * 1e-3);
  }
}

}  // namespace perfbench
