// One engine step's ground truth, as the observe stage hands it to every
// per-step sink (obs/telemetry.h): the figure series, the Perfetto sim
// track, the MetricsSampler, the HealthMonitor and the FlightRecorder's
// edge detectors all read this one struct, so they can never disagree on
// what the step looked like.
//
// Ground truth, not the policy's view: the sinks model the management
// facility's own sensors (fuel gauge, thermistors, comparator), like the
// power-budget arbiter does, so fault-corrupted sensor readings never
// reach them.
#pragma once

#include <cstdint>

namespace capman::obs {

struct StepSample {
  double t_s = 0.0;       // simulation time of the step
  double soc = 0.0;       // combined pack state of charge [0, 1]
  double load_w = 0.0;    // pack load: device + policy maintenance + TEC
  double demand_w = 0.0;  // device demand served (after budget shaping)
  double hotspot_c = 0.0;
  double skin_c = 0.0;
  double cell_c = 0.0;
  double tec_w = 0.0;     // TEC draw this step

  bool budget_active = false;  // a power-budget arbiter is in force
  double granted_mw = 0.0;     // its grant (0 without an arbiter)
  /// The sagging rail forced a comparator-relax rebudget this step, at
  /// rail voltage rail_v.
  bool relax_rebudget = false;
  double rail_v = 0.0;

  std::uint64_t switch_count = 0;  // cumulative pack switches
  const char* active = "";         // cell carrying the load
  bool guard = false;              // DegradationGuard riding the fallback
  bool stuck = false;              // comparator inside a stuck episode
};

}  // namespace capman::obs
