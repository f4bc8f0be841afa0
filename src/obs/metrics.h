// Thread-safe metrics registry: the measurement substrate of the stack
// (paper Fig. 5 "profile/monitor" box, generalised).
//
// Three instrument kinds, all lock-free on the write path:
//  * Counter   — monotonically increasing uint64 (events, pairs, steps).
//  * Gauge     — last-written double (ratios, accumulated seconds/joules).
//  * Histogram — fixed, caller-supplied bucket upper bounds (an implicit
//                +inf bucket is appended), atomic per-bucket counts plus
//                running count/sum. Bounds are fixed at registration so
//                snapshots from different runs line up column-for-column.
//
// Registration (name -> instrument) takes a mutex; the returned references
// are stable for the registry's lifetime, so hot paths resolve a handle
// once and then touch only atomics. snapshot() is deterministic: names are
// held in a sorted map, so two registries fed the same values in any
// interleaving serialise identically — the property the decision-trace
// bit-identity tests and the CSV/JSON exporters rely on.
//
// The per-subsystem stats structs (core::DecisionStats,
// core::SimilarityStats, core::DegradationStats, sim::FaultStats,
// obs::HealthStats) reach a registry by one route: their publish(). The
// registry is write-only for them; nothing reconstructs a struct from a
// snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace capman::obs {

/// Monotonic event counter. add() is wait-free; relaxed ordering is enough
/// because readers only consume totals after the writers quiesced (end of
/// run / end of solve).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written double with an accumulate helper (CAS loop: GCC's
/// std::atomic<double>::fetch_add is C++20-library-dependent).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bound histogram: bucket i counts observations <= bounds[i]; the
/// final bucket (index bounds.size()) counts everything beyond the last
/// bound. Bounds must be strictly increasing.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time, deterministically ordered copy of a registry. Plain data:
/// safe to store in results (sim::SimResult::metrics), compare, serialise.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  std::vector<CounterValue> counters;      // sorted by name
  std::vector<GaugeValue> gauges;          // sorted by name
  std::vector<HistogramValue> histograms;  // sorted by name

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Counter value by exact name, `fallback` when absent.
  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback = 0) const;
  /// Gauge value by exact name, `fallback` when absent.
  [[nodiscard]] double gauge_or(std::string_view name,
                                double fallback = 0.0) const;
  /// Histogram by exact name, nullptr when absent.
  [[nodiscard]] const HistogramValue* find_histogram(
      std::string_view name) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Key order is the (sorted) snapshot order, so output is reproducible.
  void write_json(std::ostream& out) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  // Non-copyable AND non-movable: instrument handles (Counter&/Gauge&/
  // Histogram&) returned below alias registry-owned storage, and
  // subsystems hold them across the registry's lifetime — a move would
  // silently dangle every bound instrument. Locked in by
  // tests/util/type_traits_test.
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  MetricsRegistry(MetricsRegistry&&) = delete;
  MetricsRegistry& operator=(MetricsRegistry&&) = delete;

  /// Instrument by name, created on first use; the reference stays valid
  /// for the registry's lifetime. Re-registering a histogram name with
  /// different bounds keeps the original bounds (first writer wins).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Deterministic copy: instruments appear sorted by name regardless of
  /// registration or update order.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  mutable util::Mutex mutex_;  // guards the maps, not the instruments
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      CAPMAN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      CAPMAN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      CAPMAN_GUARDED_BY(mutex_);
};

}  // namespace capman::obs
