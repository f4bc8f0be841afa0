#include "workload/trace.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace capman::workload {

Trace::Trace(std::string name, std::vector<TraceEvent> events,
             double horizon_s)
    : name_(std::move(name)),
      events_(std::move(events)),
      horizon_s_(horizon_s) {
  assert(std::is_sorted(events_.begin(), events_.end(),
                        [](const TraceEvent& a, const TraceEvent& b) {
                          return a.time_s < b.time_s;
                        }));
  assert(horizon_s_ > 0.0);
}

util::Watts Trace::average_power(const device::PhoneModel& phone) const {
  if (events_.empty()) return util::Watts{0.0};
  double energy = 0.0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const double t0 = events_[i].time_s;
    const double t1 = i + 1 < events_.size() ? events_[i + 1].time_s : horizon_s_;
    energy += phone.power(events_[i].demand).total().value() * (t1 - t0);
  }
  return util::Watts{energy / horizon_s_};
}

void TraceBuilder::add(double time_s, Action action,
                       const device::DeviceDemand& demand) {
  assert(events_.empty() || time_s >= events_.back().time_s);
  events_.push_back({time_s, action, demand});
}

Trace TraceBuilder::build(double horizon_s) && {
  return Trace{std::move(name_), std::move(events_), horizon_s};
}

TraceCursor::TraceCursor(const Trace& trace) : trace_(&trace) {
  assert(!trace.empty());
}

std::size_t TraceCursor::upper_bound_of(double local, std::size_t from) const {
  const auto& events = trace_->events();
  const auto it = std::upper_bound(
      events.begin() + static_cast<std::ptrdiff_t>(from), events.end(), local,
      [](double value, const TraceEvent& e) { return value < e.time_s; });
  return static_cast<std::size_t>(std::distance(events.begin(), it));
}

const TraceEvent& TraceCursor::current() const {
  assert(last_index_ < trace_->events().size());
  return trace_->events()[last_index_];
}

double TraceCursor::next_event_time(double t) const {
  const auto& events = trace_->events();
  const double horizon = trace_->horizon_s();
  // At the last advanced time the cursor already holds both answers.
  const bool at_last = std::bit_cast<std::uint64_t>(t) ==
                       std::bit_cast<std::uint64_t>(last_t_);
  const double local = at_last ? last_local_ : std::fmod(t, horizon);
  const std::size_t next = at_last ? next_ : upper_bound_of(local, 0);
  if (next == events.size()) {
    // Wrap to the first event of the next loop.
    return t + (horizon - local) + events.front().time_s;
  }
  return t + (events[next].time_s - local);
}

double TraceCursor::local_time(double t, std::size_t loop) {
  const double horizon = trace_->horizon_s();
  if (loop != base_loop_) {
    // A new loop: cache its start loop * horizon, and keep it only when
    // it is an exact multiple of the horizon (fmod is exact, so a zero
    // remainder proves it; a tolerance would not).
    constexpr std::size_t kExactIntegers = std::size_t{1} << 52;
    base_loop_ = loop;
    base_ = static_cast<double>(loop) * horizon;
    // capman-lint: allow(float-compare)
    base_exact_ = loop < kExactIntegers && std::fmod(base_, horizon) == 0.0;
  }
  // With base = n * horizon exactly and base <= t < base + horizon, t -
  // base is exact (Sterbenz's lemma for n >= 1, trivially for n = 0) and
  // equals fmod(t, horizon). A rounded difference cannot pass the range
  // check: past 2 * base it is at least base >= horizon.
  const double local = t - base_;
  if (base_exact_ && local >= 0.0 && local < horizon) return local;
  return std::fmod(t, horizon);
}

bool TraceCursor::advance(double t) {
  const auto& events = trace_->events();
  const auto loop =
      static_cast<std::size_t>(std::floor(t / trace_->horizon_s()));
  const double local = local_time(t, loop);
  // next_ becomes the first event strictly after `local`. Until local time
  // wraps it only moves forward, a step or two per call, so walk on from
  // the last call's answer and binary-search only what a long jump leaves.
  if (local >= last_local_) {
    constexpr std::size_t kWalk = 8;
    const std::size_t stop = std::min(events.size(), next_ + kWalk);
    while (next_ < stop && !(local < events[next_].time_s)) ++next_;
    if (next_ == stop) next_ = upper_bound_of(local, next_);
  } else {
    next_ = upper_bound_of(local, 0);
  }
  last_t_ = t;
  last_local_ = local;
  // The last event at or before local; before the first event of a loop
  // the previous loop's tail demand is in force.
  const std::size_t idx = next_ == 0 ? events.size() - 1 : next_ - 1;
  const bool fired = idx != last_index_ || loop != last_loop_;
  last_index_ = idx;
  last_loop_ = loop;
  return fired;
}

}  // namespace capman::workload
