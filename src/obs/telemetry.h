// Per-run telemetry bundle: one MetricsRegistry plus every enabled sink
// (decision JSONL, span profiler, figure series, sampler, flight
// recorder, health monitor), built by the simulation engine from the
// TelemetryConfig on sim::SimConfig and torn down (files written) at the
// end of the run.
//
// Determinism contract: sinks only observe, and disabled sinks are never
// constructed. With every sink off (the default TelemetryConfig and no
// figure series) the bundle is a registry plus a null decision sink — no
// file I/O, no profiler installed, no RNG, no floating-point work on the
// simulation path — and due() and deciding() stay false, so a run with
// default telemetry is bit-identical to a pre-telemetry build. The registry itself is always live: subsystems
// publish their stats into it (publish() is the one route from a stats
// struct to the registry) and the engine surfaces the final snapshot in
// sim::SimResult::metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/decision_trace.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "obs/step_sample.h"
#include "obs/timeseries.h"

namespace capman::obs {

struct TelemetryConfig {
  /// End-of-run MetricsSnapshot as JSON ("" = don't write; the snapshot is
  /// still surfaced in SimResult::metrics either way).
  std::string metrics_json_path;
  /// Decision-trace JSONL, one record per scheduler consultation.
  std::string decision_trace_path;
  /// Chrome trace-event JSON (chrome://tracing / Perfetto).
  std::string spans_path;
  /// Per-EMD-solve spans in addition to the coarse sweep/chunk spans.
  bool verbose_spans = false;
  /// Publish wall-clock timing instruments (histograms/gauges) into the
  /// registry. Off by default so two identical runs produce identical
  /// snapshots (timings are the one nondeterministic measurement).
  bool timing_metrics = false;
  /// End-of-run OpenMetrics text exposition of the snapshot ("" = don't
  /// write). Complements metrics_json_path with the Prometheus wire format.
  std::string openmetrics_path;
  /// Sim-clock periodic sampling into downsampling ring buffers.
  SamplerConfig sampler;
  /// Black-box event ring, dumped as JSONL on trigger.
  FlightRecorderConfig recorder;
  /// Declarative health watchdogs over trailing windows.
  HealthConfig health;

  [[nodiscard]] bool decisions_enabled() const {
    return !decision_trace_path.empty();
  }
  [[nodiscard]] bool spans_enabled() const { return !spans_path.empty(); }
  [[nodiscard]] bool any_sink() const {
    return !metrics_json_path.empty() || decisions_enabled() ||
           spans_enabled() || !openmetrics_path.empty() || sampler.enabled ||
           recorder.enabled || health.enabled;
  }

  /// Human-readable configuration errors; empty means valid. Aggregated by
  /// sim::SimConfig::validate() under "telemetry.".
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// The engine's one route out: it hands over one StepSample per observed
/// step and one DecisionEvent per consultation, and Telemetry fans them
/// out to every sink that is on. The engine names no sink.
class Telemetry {
 public:
  /// Builds the enabled sinks. `figure_period_s` > 0 additionally records
  /// the five figure series (unbounded) on that sim-clock cadence. When
  /// spans are on, installs the profiler as the ambient SpanProfiler (and
  /// labels the calling thread "sim-main") until finish().
  explicit Telemetry(const TelemetryConfig& config,
                     double figure_period_s = 0.0);

  [[nodiscard]] MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] bool timing_metrics() const { return config_.timing_metrics; }

  /// True when some per-step sink wants the step at `t_s`. With every
  /// per-step sink off this is `t_s >= +inf`: the whole observe stage is
  /// one branch, and the caller skips assembling the sample.
  [[nodiscard]] bool due(double t_s) const { return t_s >= next_due_s_; }
  /// Feed one step to the figure series, the Perfetto counters, the
  /// sampler, the flight recorder's edge detectors and the health monitor.
  void observe(const StepSample& sample);

  /// True when some sink wants decision events (the JSONL trace, the
  /// flight recorder or the ambient profiler's decision track).
  [[nodiscard]] bool deciding() const { return deciding_; }
  void decide(const DecisionEvent& event);

  /// Black-box landing: the run is unwinding from an exception at `t_s`.
  /// Never throws (a failing dump must not mask the original error).
  void crash(double t_s) noexcept;

  /// Close the run at `t_end_s`: complete the engine.run span, dump the
  /// flight recorder when dump_at_end asks, uninstall the profiler,
  /// snapshot the registry and write every configured output file. Call
  /// once, after instrumented threads quiesced.
  MetricsSnapshot finish(double t_end_s);

  /// Move the figure series out (untouched when none were recorded).
  void take_figures(TimeSeries& soc, TimeSeries& power_w,
                    TimeSeries& hotspot_c, TimeSeries& skin_c,
                    TimeSeries& tec_w);
  /// Health stats and alert log (untouched when the monitor is off).
  void take_health(HealthStats& stats, std::vector<HealthAlert>& alerts);

 private:
  void schedule_next();

  TelemetryConfig config_;
  MetricsRegistry registry_;
  std::unique_ptr<DecisionSink> decisions_;
  std::unique_ptr<SpanProfiler> profiler_;
  std::optional<SpanProfiler::Scope> scope_;  // after profiler_: dies first
  SpanProfiler* ambient_ = nullptr;  // installed profiler at construction
  double run_start_us_ = 0.0;
  std::unique_ptr<MetricsSampler> figures_;
  std::unique_ptr<MetricsSampler> sampler_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::unique_ptr<HealthMonitor> health_;
  double next_due_s_ = 0.0;
  bool deciding_ = false;

  // Flight-recorder edge detectors: the ring records transitions, not
  // levels, so a quiet run stays quiet even with the recorder armed.
  std::uint64_t last_switch_count_ = 0;
  bool last_stuck_ = false;
  bool last_guard_ = false;
};

}  // namespace capman::obs
