// The mixed drive the Algorithm 1 benches learn their runtime graphs from:
// a CAPMAN controller replays five 600 s workloads back to back (eta-50 %,
// Video, idle screen-on, a 30 s screen toggle, PCMark), the same path the
// real scheduler takes, with fixed per-interval energy accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/controller.h"
#include "workload/generators.h"

namespace capman::bench {

/// Feeds the drive's events to `controller` in time order, calling
/// `before_event(t)` ahead of each event at simulated time t (seconds).
template <typename BeforeEvent>
void mixed_drive(core::CapmanController& controller, std::uint64_t seed,
                 BeforeEvent&& before_event) {
  std::vector<std::unique_ptr<workload::WorkloadGenerator>> generators;
  generators.push_back(workload::make_eta_static(0.5));
  generators.push_back(workload::make_video());
  generators.push_back(workload::make_idle_screen_on());
  generators.push_back(workload::make_screen_toggle(util::Seconds{30.0}));
  generators.push_back(workload::make_pcmark());
  double t0 = 0.0;
  for (const auto& gen : generators) {
    const auto trace = gen->generate(util::Seconds{600.0}, seed);
    auto current = battery::BatterySelection::kBig;
    for (const auto& event : trace.events()) {
      const double t = t0 + event.time_s;
      before_event(t);
      current = controller.on_event(event.action, event.demand.state_vector(),
                                    current, util::Seconds{t});
      controller.record_step(util::Joules{1.0}, util::Joules{0.1}, true);
    }
    t0 += 600.0;
  }
}

}  // namespace capman::bench
