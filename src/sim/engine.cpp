#include "sim/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>

#include "device/power_consumer.h"
#include "obs/spans.h"
#include "thermal/tec_consumer.h"
#include "util/config_check.h"

namespace capman::sim {

namespace {

// Consumers + arbiter for one run, built only when the budget plan is
// enabled: without a rig the loop below is byte-for-byte the pre-arbiter
// code path, so disabled configs are bit-identical by construction (the
// same discipline FaultInjector follows).
struct ArbiterRig {
  ArbiterRig(const core::PowerBudgetArbiterConfig& config,
             const device::PhoneModel& phone, const thermal::Tec& tec_model)
      : cpu(phone.cpu()),
        screen(phone.screen()),
        wifi(phone.wifi()),
        tec(tec_model),
        arbiter(config) {}

  device::CpuPowerConsumer cpu;
  device::ScreenPowerConsumer screen;
  device::WifiPowerConsumer wifi;
  thermal::TecPowerConsumer tec;
  std::array<device::PowerConsumer*, device::kConsumerKindCount> consumers{
      &cpu, &screen, &wifi, &tec};
  core::PowerBudgetArbiter arbiter;
};

}  // namespace

std::vector<std::string> SimConfig::validate() const {
  std::vector<std::string> errors;
  auto require = [&errors](bool ok, const char* message) {
    if (!ok) errors.emplace_back(message);
  };
  require(dt.value() > 0.0, "dt must be > 0");
  require(max_duration.value() > 0.0, "max_duration must be > 0");
  require(death_grace.value() > 0.0, "death_grace must be > 0");
  require(series_period.value() > 0.0, "series_period must be > 0");
  require(practice_capacity_mah > 0.0, "practice_capacity_mah must be > 0");
  util::append_errors(errors, "pack_config.", pack_config.validate());
  util::append_errors(errors, "thermal_config.", thermal_config.validate());
  util::append_errors(errors, "cooling_config.", cooling_config.validate());
  util::append_errors(errors, "telemetry.", telemetry.validate());
  util::append_errors(errors, "budget.", budget.validate());
  // FaultPlanConfig already prefixes its errors with "faults.".
  util::append_errors(errors, "", faults.validate());
  return errors;
}

SimEngine::SimEngine(const SimConfig& config) : config_(config) {
  util::throw_if_invalid("SimConfig", config_.validate());
}

SimResult SimEngine::run(const workload::Trace& trace,
                         policy::BatteryPolicy& policy,
                         const device::PhoneModel& phone) const {
  SimResult result;
  result.workload = trace.name();
  result.policy = policy.name();
  result.phone = phone.profile().name;

  // Telemetry bundle (src/obs): the registry plus every enabled sink,
  // built per run so concurrent engines never share sinks. The engine's
  // only route out is one StepSample per observed step and one
  // DecisionEvent per consultation; the policy's registry binding is
  // detached before returning (run_cycles reuses policy instances).
  obs::Telemetry telemetry{
      config_.telemetry,
      config_.record_series ? config_.series_period.value() : 0.0};
  policy.bind_metrics(&telemetry.registry(), telemetry.timing_metrics());

  // Fault injection (sim/faults.h). The injector is only built when the
  // plan is enabled: with no injector the run is byte-for-byte the code
  // path that existed before the fault layer, so zero-fault configs are
  // bit-identical by construction (and the force_injection_path hook lets
  // tests assert the decorated path is identical too).
  std::unique_ptr<FaultInjector> injector;
  if (config_.faults.enabled()) {
    injector = std::make_unique<FaultInjector>(config_.faults);
  }

  // Power source: the Practice baseline runs the original single-battery
  // phone; everything else runs the big.LITTLE pack (with the decorated
  // switch facility when faults are injected).
  std::unique_ptr<battery::PowerSource> source;
  const battery::DualBatteryPack* dual = nullptr;
  if (policy.wants_single_pack()) {
    source = std::make_unique<battery::SingleBatteryPack>(
        config_.practice_chemistry, config_.practice_capacity_mah);
  } else {
    std::unique_ptr<battery::SwitchFacility> facility;
    if (injector) {
      facility = injector->make_switch_facility(
          config_.pack_config.switch_config);
    }
    auto pack = std::make_unique<battery::DualBatteryPack>(
        config_.pack_config, std::move(facility));
    dual = pack.get();
    source = std::move(pack);
  }

  thermal::PhoneThermal thermal{config_.thermal_config, config_.tec_params};
  thermal::CoolingController cooling{config_.cooling_config};
  workload::TraceCursor cursor{trace};

  // Power-budget arbiter (core/power_budget.h). The arbiter models the
  // management facility's own hardware (fuel gauge, comparator, thermistor
  // next to the pack), so it reads ground truth, never the policy's
  // possibly-corrupted sensor view.
  std::unique_ptr<ArbiterRig> rig;
  double last_rail_v = config_.budget.nominal_v;
  double last_rebudget_s = 0.0;
  core::BudgetLevel budget_level = core::BudgetLevel::kFull;
  double sum_budget_x_dt = 0.0;
  double shed_j = 0.0;
  std::uint64_t throttled_steps = 0;
  std::uint64_t tec_vetoes = 0;
  const auto budget_inputs = [&]() {
    core::BudgetInputs in;
    in.big_soc = source->big_soc();
    in.little_soc = source->little_soc();
    in.active = source->active();
    in.rail_v = last_rail_v;
    in.supercap_fill = dual != nullptr ? dual->supercap().fill() : 1.0;
    in.skin_c = thermal.surface_temperature().value();
    in.cell_c = thermal.battery_temperature().value();
    in.hotspot_c = thermal.cpu_temperature().value();
    return in;
  };
  if (config_.budget.enabled) {
    rig = std::make_unique<ArbiterRig>(config_.budget, phone, thermal.tec());
    rig->arbiter.rebudget(budget_inputs(), budget_level, rig->consumers);
  }

  const double dt_s = config_.dt.value();
  const util::Seconds dt = config_.dt;
  double t = 0.0;
  double unmet_s = 0.0;
  double last_consult_s = -1.0;
  double tec_power_w = 0.0;  // TEC draw decided last step (one-step lag)
  device::ComponentPower comp;  // power of the demand served this step
  double raw_demand_w = 0.0;    // unshaped demand power (arbiter runs)
  double shed_w = 0.0;          // raw minus shaped power (arbiter runs)
  std::size_t priced_rebudgets = 0;  // rebudget_count() at the last pricing
  double sum_power_x_dt = 0.0;
  util::RunningStats cpu_temp_stats;
  util::RunningStats surface_temp_stats;
  double tec_on_s = 0.0;

  // Run counters, published into the registry after the loop (locals keep
  // the hot loop free of atomics even when telemetry is fully enabled).
  std::uint64_t steps = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t consults = 0;
  std::uint64_t emergency_consults = 0;
  std::uint64_t unmet_steps = 0;

  // Black-box landing on crash: if anything in the loop below throws, the
  // telemetry dumps what it holds before the exception unwinds past the
  // engine.
  struct CrashGuard {
    obs::Telemetry& telemetry;
    const double& now_s;
    int armed = std::uncaught_exceptions();
    ~CrashGuard() {
      if (std::uncaught_exceptions() > armed) telemetry.crash(now_s);
    }
  } crash_guard{telemetry, t};

  while (t < config_.max_duration.value()) {
    const bool fired = cursor.advance(t);
    const workload::TraceEvent& event = cursor.current();
    const device::DeviceDemand& demand = event.demand;
    // The demand changes only when an event fires, so its power is priced
    // once per event. Budget shaping: each consumer trims its slice of the
    // raw demand under the cap it was granted; the raw-minus-shaped draw
    // is the shed power (user-visible throttling the budget bought safety
    // with). Caps move only inside rebudget() and pricing is pure, so the
    // shaped demand is re-priced only when an event fires or the arbiter
    // has rebudgeted since the last pricing.
    if (rig) {
      const std::size_t rebudgets = rig->arbiter.rebudget_count();
      if (fired || rebudgets != priced_rebudgets) {
        if (fired) raw_demand_w = phone.power(demand).total().value();
        device::DeviceDemand shaped = demand;
        rig->cpu.shape(shaped);
        rig->screen.shape(shaped);
        rig->wifi.shape(shaped);
        comp = phone.power(shaped);
        shed_w = raw_demand_w - comp.total().value();
        priced_rebudgets = rebudgets;
      }
      if (shed_w > 1e-12) {
        ++throttled_steps;
        shed_j += shed_w * dt_s;
      }
    } else if (fired) {
      comp = phone.power(demand);
    }

    // The policy is consulted on every trace event; additionally, the rail
    // monitor (comparator input) triggers an emergency consultation when
    // the previous step's demand went unmet - the paper's facility "can
    // switch between batteries in milliseconds". The emergency consult only
    // helps a policy whose decision logic actually picks the other cell.
    const bool emergency = unmet_s > 0.0 && t - last_consult_s >= 0.2;
    if (fired || emergency) {
      const obs::ScopedSpan consult_span{"engine.consult", "sim"};
      if (fired) ++events_fired;
      ++consults;
      policy::PolicyContext ctx;
      ctx.now_s = t;
      ctx.device = demand.state_vector();
      ctx.demand_w = comp.total().value();
      ctx.active = source->active();
      if (injector) {
        // Policies observe the world through the (possibly corrupted)
        // sensor channels, never the ground truth.
        ctx.big_soc = injector->read_big_soc(source->big_soc());
        ctx.little_soc = injector->read_little_soc(source->little_soc());
        ctx.hotspot_c =
            injector->read_hotspot_c(thermal.cpu_temperature().value());
      } else {
        ctx.big_soc = source->big_soc();
        ctx.little_soc = source->little_soc();
        ctx.hotspot_c = thermal.cpu_temperature().value();
      }
      ctx.emergency = emergency && !fired;
      if (ctx.emergency) ++emergency_consults;
      ctx.interval_avg_w = comp.total().value();
      ctx.interval_duration_s = cursor.next_event_time(t) - t;
      ctx.pack = dual;
      if (rig) {
        // capman-lint: allow(raw-unit, policy context carries plain doubles)
        ctx.granted_budget_mw = rig->arbiter.last_grant().granted_mw.raw();
        ctx.budget_level = budget_level;
      }
      const auto choice = policy.on_event(ctx, event.action);
      source->request(choice, util::Seconds{t});
      last_consult_s = t;
      if (rig) {
        // Every consultation re-arbitrates: the policy's preferred level
        // (learned, for CAPMAN with learn_budget) meets the battery and
        // thermal reality the arbiter derives the budget from.
        budget_level = policy.preferred_budget_level();
        rig->arbiter.rebudget(budget_inputs(), budget_level, rig->consumers);
        last_rebudget_s = t;
      }

      // One decision event per consultation: what the policy saw, what it
      // chose and why, and what the actuator did with it. Assembly is
      // skipped entirely when no decision sink is on.
      if (telemetry.deciding()) {
        obs::DecisionEvent ev;
        ev.seq = consults - 1;
        ev.t_s = t;
        ev.policy = result.policy.c_str();
        ev.event = ctx.emergency ? "rail-monitor"
                                 : workload::to_string(event.action.kind);
        ev.param = static_cast<int>(event.action.param_bucket);
        ev.emergency = ctx.emergency;
        ev.cpu = device::to_string(ctx.device.cpu);
        ev.screen = device::to_string(ctx.device.screen);
        ev.wifi = device::to_string(ctx.device.wifi);
        ev.active = battery::to_string(ctx.active);
        ev.chosen = battery::to_string(choice);
        ev.detail = policy.last_decision_detail();
        ev.switch_requested = choice != ctx.active;
        if (dual != nullptr) {
          ev.switch_accepted =
              ev.switch_requested && dual->switch_facility().target() == choice;
          ev.switch_pending = dual->switch_facility().switch_pending();
        }
        ev.guard_fallback = policy.degradation().in_fallback;
        ev.fault_stuck =
            injector != nullptr && injector->stuck_now(util::Seconds{t});
        ev.big_soc = ctx.big_soc;
        ev.little_soc = ctx.little_soc;
        ev.hotspot_c = ctx.hotspot_c;
        ev.demand_w = ctx.demand_w;
        if (rig) {
          ev.budget_active = true;
          ev.budget_level = static_cast<int>(budget_level);
          // capman-lint: allow(raw-unit, decision events carry plain doubles)
          ev.granted_mw = rig->arbiter.last_grant().granted_mw.raw();
        }
        telemetry.decide(ev);
      }
    }

    // Thermal actuation (TEC on/off) from the current hot-spot reading.
    if (config_.enable_tec) {
      cooling.update(thermal);
      // The TEC runs at rated current or not at all, so the budget gates
      // it: a grant below the worst-case draw vetoes the turn-on.
      if (rig && thermal.tec().is_on() && !rig->tec.allows_on()) {
        thermal.tec().turn_off();
        ++tec_vetoes;
      }
    } else {
      thermal.tec().turn_off();
    }

    const util::Watts maintenance = policy.maintenance(util::Seconds{t});
    const util::Watts load =
        comp.total() + maintenance + util::Watts{tec_power_w};

    const auto step = source->step(load, dt, util::Seconds{t});
    policy.record_step(step.delivered, step.losses, step.demand_met);
    bool relax_rebudget = false;
    if (rig) {
      last_rail_v = step.rail_voltage.value();
      // Comparator-relax rebudget: the sagging rail is the comparator
      // tripping, so the optimistic voltage factor gets re-derived (rate
      // limited; comparator-less kStatic boards cannot see the rail).
      if (config_.budget.cap_method == core::CapMethod::kRelax &&
          last_rail_v < config_.budget.rebudget_trigger_v &&
          t - last_rebudget_s >= config_.budget.min_rebudget_gap_s) {
        rig->arbiter.note_voltage_trigger();
        rig->arbiter.rebudget(budget_inputs(), budget_level, rig->consumers);
        last_rebudget_s = t;
        relax_rebudget = true;
      }
      // capman-lint: allow(raw-unit, time-weighted budget integral is double)
      sum_budget_x_dt += rig->arbiter.last_grant().effective_mw.raw() * dt_s;
    }

    // Thermal integration; CPU node carries compute + policy maintenance,
    // board carries screen/WiFi dissipation, battery carries its losses.
    const util::Watts tec_power =
        thermal.step(comp.cpu + maintenance, step.heat,
                     comp.screen + comp.wifi, dt);
    tec_power_w = tec_power.value();

    // --- Metrics ---
    result.energy_delivered_j += step.delivered.value();
    result.energy_lost_j += step.losses.value();
    result.tec_energy_j += tec_power_w * dt_s;
    if (thermal.tec().is_on()) tec_on_s += dt_s;
    sum_power_x_dt += load.value() * dt_s;
    cpu_temp_stats.add(thermal.cpu_temperature().value());
    surface_temp_stats.add(thermal.surface_temperature().value());

    // --- Observe: one ground-truth sample for every per-step sink ---
    if (telemetry.due(t)) {
      obs::StepSample sample;
      sample.t_s = t;
      sample.soc = source->soc();
      sample.load_w = load.value();
      sample.demand_w = comp.total().value();
      sample.hotspot_c = thermal.cpu_temperature().value();
      sample.skin_c = thermal.surface_temperature().value();
      sample.cell_c = thermal.battery_temperature().value();
      sample.tec_w = tec_power_w;
      if (rig) {
        sample.budget_active = true;
        // capman-lint: allow(raw-unit, step samples carry plain doubles)
        sample.granted_mw = rig->arbiter.last_grant().granted_mw.raw();
        sample.relax_rebudget = relax_rebudget;
        sample.rail_v = last_rail_v;
      }
      sample.switch_count = source->switch_count();
      sample.active = battery::to_string(source->active());
      sample.guard = policy.degradation().in_fallback;
      sample.stuck =
          injector != nullptr && injector->stuck_now(util::Seconds{t});
      telemetry.observe(sample);
    }

    ++steps;
    if (!step.demand_met) ++unmet_steps;

    // --- Death conditions ---
    // Leaky integrator: unmet demand accumulates; met demand forgives it
    // only slowly (a user tolerates one stutter, not one every few
    // seconds). A phone limping along on brief recovery dribbles therefore
    // still dies, as real hardware does on a sagging rail.
    if (!step.demand_met) {
      unmet_s += dt_s;
      if (unmet_s >= config_.death_grace.value()) {
        result.died_of_brownout = !step.exhausted;
        t += dt_s;
        break;
      }
    } else {
      unmet_s = std::max(0.0, unmet_s - 0.1 * dt_s);
    }
    if (step.exhausted) {
      t += dt_s;
      break;
    }
    t += dt_s;
  }

  result.service_time_s = t;
  result.truncated = t >= config_.max_duration.value();
  result.avg_power_w = t > 0.0 ? sum_power_x_dt / t : 0.0;
  result.avg_cpu_temp_c = cpu_temp_stats.mean();
  result.max_cpu_temp_c = cpu_temp_stats.max();
  result.avg_surface_temp_c = surface_temp_stats.mean();
  result.max_surface_temp_c = surface_temp_stats.max();
  result.tec_on_fraction = t > 0.0 ? tec_on_s / t : 0.0;
  result.switch_count = source->switch_count();
  result.big_active_s =
      source->activation_time(battery::BatterySelection::kBig).value();
  result.little_active_s =
      source->activation_time(battery::BatterySelection::kLittle).value();
  result.end_big_soc = source->big_soc();
  result.end_little_soc = source->little_soc();
  if (injector) {
    // Collect while the pack (and thus the decorated facility) is alive.
    result.faults = injector->collect();
    const auto degradation = policy.degradation();
    result.faults.detected_switch_failures = degradation.failures_detected;
    result.faults.fallback_episodes = degradation.fallback_episodes;
    result.faults.fallback_retries = degradation.retries;
  }

  // --- Telemetry teardown -------------------------------------------------
  // Publish the run's cumulative stats into the registry, then snapshot it
  // (writing any configured output files) and surface the snapshot and the
  // sinks' results on the result. Publication order does not matter:
  // snapshots are sorted.
  obs::MetricsRegistry& registry = telemetry.registry();
  registry.counter("engine/steps").add(steps);
  registry.counter("engine/events_fired").add(events_fired);
  registry.counter("engine/consults").add(consults);
  registry.counter("engine/emergency_consults").add(emergency_consults);
  registry.counter("engine/unmet_steps").add(unmet_steps);
  registry.counter("switch/count").add(result.switch_count);
  registry.gauge("switch/big_active_s").set(result.big_active_s);
  registry.gauge("switch/little_active_s").set(result.little_active_s);
  if (injector) result.faults.publish(registry);
  if (rig) {
    result.avg_budget_mw = t > 0.0 ? sum_budget_x_dt / t : 0.0;
    result.budget_shed_j = shed_j;
    result.budget_throttled_steps = throttled_steps;
    result.budget_rebudgets = rig->arbiter.rebudget_count();
    result.budget_tec_vetoes = tec_vetoes;
    registry.counter("arbiter/throttled_steps").add(throttled_steps);
    registry.counter("arbiter/tec_vetoes").add(tec_vetoes);
    registry.gauge("arbiter/shed_j").set(shed_j);
    registry.gauge("arbiter/avg_budget_mw").set(result.avg_budget_mw);
    rig->arbiter.publish_metrics(registry);
  }
  policy.publish_metrics(registry);
  policy.bind_metrics(nullptr, false);
  result.metrics = telemetry.finish(t);
  telemetry.take_figures(result.soc_series, result.power_series,
                         result.cpu_temp_series, result.surface_temp_series,
                         result.tec_power_series);
  telemetry.take_health(result.health, result.health_alerts);
  return result;
}

}  // namespace capman::sim
