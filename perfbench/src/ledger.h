// The layer ledger: metric catalogue plus per-layer probes.
//
// Each probe times calls into one module's public functions from outside
// the program (thermal, battery, device, workload, obs, core, math), or
// replays a solver on MDP graphs captured from a traced CAPMAN run. The
// catalogue below fixes every metric name, unit and direction; the
// benchmark prints exactly these names and BENCHMARK.json lists them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/mdp_graph.h"
#include "device/phone.h"
#include "sim/metrics.h"
#include "workload/trace.h"

namespace perfbench {

struct MetricSpec {
  std::string name;
  const char* unit;
  const char* better;  // "higher" or "lower"
};

/// Host-time metrics of an untraced run (--trace 0).
const std::vector<MetricSpec>& end_to_end_metrics();
/// Layer metrics of a traced run (--trace 1). A layer the workload does
/// not exercise reads 0, and so does its companion count.
const std::vector<MetricSpec>& per_layer_metrics();

/// Metric name -> value. set() refuses names outside the catalogues, so a
/// typo cannot create a metric nobody reads.
class MetricValues {
 public:
  void set(const std::string& name, double value);
  void add(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

/// Sums the deterministic scheduler and Algorithm-1 counters of CAPMAN
/// cycles into core.scheduler.* and core.similarity.* counts.
void add_capman_counters(const std::vector<capman::sim::SimResult>& capman,
                         MetricValues& metrics);

/// Replays compute_structural_similarity and solve_values on up to
/// `max_graphs` of `graphs` (evenly spaced), at one thread and at one
/// thread per core. Fills core.similarity.solve_us.*, .sweeps_per_solve,
/// .replayed_graphs, .fanout_ratio, core.value_iteration.solve_us.p50, and
/// math.emd.support_max (the largest transition support in `graphs`).
void replay_solvers(const std::vector<capman::core::MdpGraph>& graphs,
                    std::size_t max_graphs, MetricValues& metrics);

/// Probes of single calls: thermal step at dt 0.05 s and 0.25 s, cell
/// draw and pack step at `dt`, the power-budget rebudget,
/// earth_movers_distance at supports 2, 4 and 8, PhoneModel::power over the
/// demands of `traces`, TraceCursor::advance at `dt`, and
/// PolicyAggregate::add / QuantileSketch::merge over `results`.
void probe_layers(const std::vector<capman::workload::Trace>& traces,
                  const capman::device::PhoneModel& phone, double dt,
                  const std::vector<capman::sim::SimResult>& results,
                  MetricValues& metrics);

}  // namespace perfbench
