#include "obs/telemetry.h"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/openmetrics.h"
#include "util/config_check.h"

namespace capman::obs {

std::vector<std::string> TelemetryConfig::validate() const {
  std::vector<std::string> errors;
  if (verbose_spans && !spans_enabled()) {
    errors.push_back("verbose_spans requires spans_path to be set");
  }
  util::append_errors(errors, "sampler.", sampler.validate());
  util::append_errors(errors, "recorder.", recorder.validate());
  util::append_errors(errors, "health.", health.validate());
  // Each enabled sink writes (and truncates) its own file; two sinks
  // sharing a path would silently clobber each other.
  const struct {
    const char* name;
    const std::string& path;
  } sinks[] = {{"metrics_json_path", metrics_json_path},
               {"decision_trace_path", decision_trace_path},
               {"spans_path", spans_path},
               {"openmetrics_path", openmetrics_path},
               {"sampler.csv_path", sampler.csv_path},
               {"recorder.dump_path", recorder.dump_path},
               {"health.alerts_path", health.alerts_path}};
  constexpr std::size_t kSinkCount = sizeof sinks / sizeof sinks[0];
  for (std::size_t i = 0; i < kSinkCount; ++i) {
    for (std::size_t j = i + 1; j < kSinkCount; ++j) {
      if (!sinks[i].path.empty() && sinks[i].path == sinks[j].path) {
        errors.push_back(std::string(sinks[i].name) + " and " +
                         sinks[j].name + " must not share a file (" +
                         sinks[i].path + ")");
      }
    }
  }
  return errors;
}

namespace {

// Channel order of the figure series (Figs. 12-15) and of the configured
// sampler; the StepSample fields feeding them line up in observe().
constexpr const char* kFigureChannels[] = {"soc", "power_w", "cpu_temp_c",
                                           "surface_temp_c", "tec_w"};
constexpr const char* kSamplerChannels[] = {
    "soc", "power_w", "hotspot_c", "skin_c", "cell_c", "demand_w",
    "granted_mw"};

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out{path, std::ios::trunc};
  if (!out) {
    throw std::runtime_error("Telemetry: cannot open " + path);
  }
  return out;
}

template <std::size_t N>
std::unique_ptr<MetricsSampler> make_sampler(
    const SamplerConfig& config, const char* const (&channels)[N]) {
  auto sampler = std::make_unique<MetricsSampler>(config);
  for (const char* name : channels) sampler->channel(name);
  return sampler;
}

template <std::size_t N>
void sample_row(MetricsSampler& sampler, double t_s, const double (&row)[N]) {
  for (std::size_t i = 0; i < N; ++i) sampler.set(i, row[i]);
  sampler.sample(util::Seconds{t_s});
}

}  // namespace

Telemetry::Telemetry(const TelemetryConfig& config, double figure_period_s)
    : config_(config) {
  if (config_.decisions_enabled()) {
    decisions_ =
        std::make_unique<JsonlDecisionSink>(config_.decision_trace_path);
  } else {
    decisions_ = std::make_unique<DecisionSink>();  // null object
  }
  if (config_.spans_enabled()) {
    profiler_ = std::make_unique<SpanProfiler>(
        SpanProfiler::Options{config_.verbose_spans});
    set_current_thread_label("sim-main");
    scope_.emplace(*profiler_);
  }
  // The run's own profiler, or one a caller installed around the run.
  ambient_ = SpanProfiler::current();
  if (ambient_ != nullptr) run_start_us_ = ambient_->now_us();
  // Disabled components are never constructed (determinism contract);
  // with all of them off, due() and deciding() stay false and the engine
  // skips both stages.
  if (figure_period_s > 0.0) {
    SamplerConfig figures;
    figures.enabled = true;
    figures.period_s = figure_period_s;
    figures.capacity = TimeSeries::kUnbounded;
    figures_ = make_sampler(figures, kFigureChannels);
  }
  if (config_.sampler.enabled) {
    sampler_ = make_sampler(config_.sampler, kSamplerChannels);
  }
  if (config_.recorder.enabled) {
    recorder_ = std::make_unique<FlightRecorder>(config_.recorder);
  }
  if (config_.health.enabled) {
    health_ = std::make_unique<HealthMonitor>(config_.health);
  }
  deciding_ =
      decisions_->enabled() || recorder_ != nullptr || ambient_ != nullptr;
  schedule_next();
}

void Telemetry::schedule_next() {
  // The recorder's edge detectors read every step; the periodic sinks
  // only their own ticks.
  if (recorder_ != nullptr) {
    next_due_s_ = -std::numeric_limits<double>::infinity();
    return;
  }
  double next = std::numeric_limits<double>::infinity();
  if (figures_ != nullptr) next = std::min(next, figures_->next_sample_s());
  if (sampler_ != nullptr) next = std::min(next, sampler_->next_sample_s());
  if (health_ != nullptr) next = std::min(next, health_->next_eval_s());
  next_due_s_ = next;
}

void Telemetry::observe(const StepSample& s) {
  const util::Seconds t{s.t_s};
  if (figures_ != nullptr && figures_->due(t)) {
    sample_row(*figures_, s.t_s,
               {s.soc, s.load_w, s.hotspot_c, s.skin_c, s.tec_w});
    // Mirror the key series onto Perfetto counter tracks (sim timeline),
    // at the figure cadence.
    if (ambient_ != nullptr) {
      ambient_->sim_counter("soc", s.t_s, s.soc);
      ambient_->sim_counter("power_w", s.t_s, s.load_w);
      ambient_->sim_counter("cpu_temp_c", s.t_s, s.hotspot_c);
    }
  }
  if (recorder_ != nullptr) {
    if (s.relax_rebudget) {
      recorder_->record(s.t_s, FlightEventKind::kBudget, "relax-rebudget",
                        "rail_v=" + std::to_string(s.rail_v), s.granted_mw);
    }
    if (s.switch_count != last_switch_count_) {
      recorder_->record(s.t_s, FlightEventKind::kSwitch, "latched",
                        std::string("active=") + s.active,
                        static_cast<double>(s.switch_count));
      last_switch_count_ = s.switch_count;
    }
    if (s.stuck != last_stuck_) {
      recorder_->record(s.t_s, FlightEventKind::kFault,
                        s.stuck ? "stuck-enter" : "stuck-exit");
      last_stuck_ = s.stuck;
    }
    if (s.guard != last_guard_) {
      recorder_->record(s.t_s, FlightEventKind::kGuard,
                        s.guard ? "fallback-enter" : "fallback-exit");
      last_guard_ = s.guard;
    }
  }
  if (sampler_ != nullptr && sampler_->due(t)) {
    sample_row(*sampler_, s.t_s,
               {s.soc, s.load_w, s.hotspot_c, s.skin_c, s.cell_c, s.demand_w,
                s.granted_mw});
  }
  if (health_ != nullptr && s.t_s >= health_->next_eval_s()) {
    const auto& fired = health_->evaluate(s);
    if (recorder_ != nullptr && !fired.empty()) {
      for (const auto& alert : fired) {
        recorder_->record(s.t_s, FlightEventKind::kAlert,
                          to_string(alert.rule), alert.detail, alert.value);
      }
      if (recorder_->config().dump_on_alert) {
        recorder_->trigger(s.t_s, std::string("alert:") +
                                      to_string(fired.front().rule));
      }
    }
  }
  schedule_next();
}

void Telemetry::decide(const DecisionEvent& event) {
  if (recorder_ != nullptr) {
    if (event.budget_active) {
      recorder_->record(event.t_s, FlightEventKind::kBudget, "rebudget",
                        "level=" + std::to_string(event.budget_level),
                        event.granted_mw);
    }
    recorder_->record(event.t_s, FlightEventKind::kDecision, event.event,
                      std::string("policy=") + event.policy +
                          " chosen=" + event.chosen,
                      event.demand_w);
  }
  decisions_->record(event);
  if (ambient_ != nullptr) {
    ambient_->sim_instant(event.event, "decision",
                          SpanProfiler::kDecisionTrack, event.t_s);
  }
}

void Telemetry::crash(double t_s) noexcept {
  if (recorder_ == nullptr) return;
  try {
    recorder_->record(t_s, FlightEventKind::kEngine, "exception");
    recorder_->trigger(t_s, "engine-exception");
  } catch (...) {  // a failing dump must not mask the original error
  }
}

void Telemetry::take_figures(TimeSeries& soc, TimeSeries& power_w,
                             TimeSeries& hotspot_c, TimeSeries& skin_c,
                             TimeSeries& tec_w) {
  if (figures_ == nullptr) return;
  soc = figures_->take(0);
  power_w = figures_->take(1);
  hotspot_c = figures_->take(2);
  skin_c = figures_->take(3);
  tec_w = figures_->take(4);
}

void Telemetry::take_health(HealthStats& stats,
                            std::vector<HealthAlert>& alerts) {
  if (health_ == nullptr) return;
  stats = health_->stats();
  alerts = health_->alerts();
}

MetricsSnapshot Telemetry::finish(double t_end_s) {
  // engine.run is closed by hand (not RAII) so the span lands in the
  // buffers before the trace is serialised below.
  if (ambient_ != nullptr) {
    ambient_->complete("engine.run", "sim", run_start_us_,
                       ambient_->now_us() - run_start_us_);
    registry_.counter("engine/trace_events").add(ambient_->event_count());
  }
  if (recorder_ != nullptr && recorder_->config().dump_at_end) {
    recorder_->trigger(t_end_s, "end-of-run");
  }
  scope_.reset();  // uninstall before serialising the trace
  if (health_ != nullptr) {
    health_->stats().publish(registry_);
  }
  MetricsSnapshot snap = registry_.snapshot();
  if (!config_.metrics_json_path.empty()) {
    auto out = open_or_throw(config_.metrics_json_path);
    snap.write_json(out);
    out << '\n';
  }
  if (!config_.openmetrics_path.empty()) {
    auto out = open_or_throw(config_.openmetrics_path);
    write_openmetrics(out, snap);
  }
  if (profiler_ != nullptr && !config_.spans_path.empty()) {
    auto out = open_or_throw(config_.spans_path);
    profiler_->write_chrome_trace(out);
    out << '\n';
  }
  if (sampler_ != nullptr && !config_.sampler.csv_path.empty()) {
    auto out = open_or_throw(config_.sampler.csv_path);
    sampler_->write_csv(out);
  }
  if (health_ != nullptr && !config_.health.alerts_path.empty()) {
    auto out = open_or_throw(config_.health.alerts_path);
    health_->write_alerts(out);
  }
  if (recorder_ != nullptr) {
    recorder_->flush();
  }
  decisions_->flush();
  return snap;
}

}  // namespace capman::obs
