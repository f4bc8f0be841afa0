// A trace is a time-ordered sequence of (action, device-demand) events; the
// demand holds until the next event. Traces repeat (loop) when a discharge
// cycle outlives the generated horizon.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "device/phone.h"
#include "util/units.h"
#include "workload/event.h"

namespace capman::workload {

struct TraceEvent {
  double time_s = 0.0;
  Action action;
  device::DeviceDemand demand;
};

class Trace {
 public:
  Trace() = default;
  Trace(std::string name, std::vector<TraceEvent> events, double horizon_s);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] double horizon_s() const { return horizon_s_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Average demanded device power under `phone`, for sizing experiments.
  [[nodiscard]] util::Watts average_power(
      const device::PhoneModel& phone) const;

 private:
  std::string name_;
  std::vector<TraceEvent> events_;
  double horizon_s_ = 0.0;
};

/// Incremental builder keeping events time-ordered.
class TraceBuilder {
 public:
  explicit TraceBuilder(std::string name) : name_(std::move(name)) {}

  /// Appends an event; `time_s` must be non-decreasing.
  void add(double time_s, Action action, const device::DeviceDemand& demand);

  [[nodiscard]] double last_time() const {
    return events_.empty() ? 0.0 : events_.back().time_s;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  Trace build(double horizon_s) &&;

 private:
  std::string name_;
  std::vector<TraceEvent> events_;
};

/// A cursor that replays a trace, looping past the horizon. The simulator
/// calls `advance` once per step and reads the event in force from
/// `current`.
class TraceCursor {
 public:
  explicit TraceCursor(const Trace& trace);

  /// Advance to time t and report whether a new event fired since the last
  /// call (the MDP observes transitions on events). Local time is
  /// fmod(t, horizon) bit for bit, but inside one loop it comes from one
  /// subtraction off the loop's cached start time (see local_time), and
  /// the next event is found by walking on from the last call's answer.
  bool advance(double t);

  /// The event in force at the time of the last `advance` call: the last
  /// event at or before it, looping past the horizon. Its demand holds
  /// until the next event. Requires a prior `advance`.
  [[nodiscard]] const TraceEvent& current() const;

  /// Absolute time of the next event strictly after t (looping). At the
  /// time of the last `advance` call it reads the answer that call found;
  /// at any other t it searches the trace. Both give the same bits.
  [[nodiscard]] double next_event_time(double t) const;

 private:
  /// Index of the first event at or after `from` strictly later than
  /// `local` (events.size() if none).
  [[nodiscard]] std::size_t upper_bound_of(double local,
                                           std::size_t from) const;
  /// fmod(t, horizon) for t in loop `loop` (floor(t / horizon)): t minus
  /// the loop's cached start when that start is an exact multiple of the
  /// horizon and t lies within the loop, fmod otherwise.
  double local_time(double t, std::size_t loop);

  const Trace* trace_;
  std::size_t last_index_ = static_cast<std::size_t>(-1);
  std::size_t last_loop_ = static_cast<std::size_t>(-1);
  // The time and local time of the last advance (NaN and +inf before the
  // first, so next_event_time searches and advance binary-searches) and
  // the first event strictly after it.
  double last_t_ = std::numeric_limits<double>::quiet_NaN();
  double last_local_ = std::numeric_limits<double>::infinity();
  std::size_t next_ = 0;
  // The loop local_time last cached the start of, that start, and whether
  // it is an exact multiple of the horizon.
  std::size_t base_loop_ = static_cast<std::size_t>(-1);
  double base_ = 0.0;
  bool base_exact_ = false;
};

}  // namespace capman::workload
