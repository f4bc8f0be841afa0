#include "sim/metrics.h"

namespace capman::sim {

void FaultStats::publish(obs::MetricsRegistry& registry) const {
  registry.counter("faults/stuck_episodes").add(stuck_episodes);
  registry.gauge("faults/stuck_time_s").add(stuck_time_s);
  registry.counter("faults/dropped_requests").add(dropped_requests);
  registry.counter("faults/transient_failures").add(transient_failures);
  registry.counter("faults/transient_retries").add(transient_retries);
  registry.counter("faults/jittered_switches").add(jittered_switches);
  registry.counter("faults/latency_spikes").add(latency_spikes);
  registry.counter("faults/droop_episodes").add(droop_episodes);
  registry.counter("faults/sensor_dropouts").add(sensor_dropouts);
  registry.counter("faults/corrupted_reads").add(corrupted_reads);
  registry.counter("faults/detected_switch_failures")
      .add(detected_switch_failures);
  registry.counter("faults/fallback_episodes").add(fallback_episodes);
  registry.counter("faults/fallback_retries").add(fallback_retries);
}

}  // namespace capman::sim
