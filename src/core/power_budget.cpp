#include "core/power_budget.h"

#include <algorithm>
#include <cmath>

#include "util/config_check.h"

namespace capman::core {

const char* to_string(CapMethod method) {
  switch (method) {
    case CapMethod::kRelax: return "relax";
    case CapMethod::kStatic: return "static";
  }
  return "?";
}

util::Milliwatts CorecapSplit::cap_for(device::ConsumerKind kind) const {
  switch (kind) {
    case device::ConsumerKind::kCpu: return cpu_mw;
    case device::ConsumerKind::kScreen: return screen_mw;
    case device::ConsumerKind::kWifi: return wifi_mw;
    case device::ConsumerKind::kTec: return tec_mw;
  }
  return util::Milliwatts{};
}

std::vector<CorecapRow> default_corecap_table() {
  using namespace util::literals;
  // budget     cpu-priority {cpu, screen, wifi, tec}
  //            cooling-priority {cpu, screen, wifi, tec}
  return {
      {1000.0_mw,
       {620.0_mw, 205.0_mw, 120.0_mw, 0.0_mw},
       {420.0_mw, 205.0_mw, 120.0_mw, 200.0_mw}},
      {1800.0_mw,
       {1150.0_mw, 320.0_mw, 250.0_mw, 0.0_mw},
       {520.0_mw, 205.0_mw, 150.0_mw, 900.0_mw}},
      {2800.0_mw,
       {1700.0_mw, 500.0_mw, 500.0_mw, 0.0_mw},
       {620.0_mw, 240.0_mw, 170.0_mw, 1700.0_mw}},
      {3600.0_mw,
       {1950.0_mw, 700.0_mw, 850.0_mw, 0.0_mw},
       {900.0_mw, 450.0_mw, 500.0_mw, 1700.0_mw}},
      {4400.0_mw,
       {2050.0_mw, 900.0_mw, 1350.0_mw, 100.0_mw},
       {1250.0_mw, 650.0_mw, 800.0_mw, 1700.0_mw}},
      {5400.0_mw,
       {2050.0_mw, 1040.0_mw, 2080.0_mw, 230.0_mw},
       {1650.0_mw, 900.0_mw, 1150.0_mw, 1700.0_mw}},
  };
}

namespace {

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

void validate_split(const CorecapRow& row, const CorecapSplit& split,
                    const CorecapSplit* previous, std::size_t index,
                    const char* name, std::vector<std::string>& errors) {
  const std::string where = "corecaps[" + std::to_string(index) + "]." + name;
  const util::Milliwatts zero;
  if (split.cpu_mw < zero || split.screen_mw < zero || split.wifi_mw < zero ||
      split.tec_mw < zero) {
    errors.push_back(where + " caps must be >= 0");
  }
  if (split.total() > row.budget_mw) {
    errors.push_back(where + " caps must sum to <= budget_mw");
  }
  if (previous != nullptr &&
      (split.cpu_mw < previous->cpu_mw || split.screen_mw < previous->screen_mw ||
       split.wifi_mw < previous->wifi_mw || split.tec_mw < previous->tec_mw)) {
    errors.push_back(where + " caps must be non-decreasing across rows");
  }
}

}  // namespace

std::vector<std::string> PowerBudgetArbiterConfig::validate() const {
  std::vector<std::string> errors;
  auto require = [&errors](bool ok, const char* message) {
    if (!ok) errors.emplace_back(message);
  };
  const util::Milliwatts zero_mw;
  require(base_budget_mw > zero_mw, "base_budget_mw must be > 0");
  require(min_budget_mw > zero_mw && min_budget_mw <= base_budget_mw,
          "min_budget_mw must be > 0 and <= base_budget_mw");
  require(soc_floor >= 0.0 && soc_floor < 1.0, "soc_floor must be in [0, 1)");
  require(soc_knee > soc_floor && soc_knee <= 1.0,
          "soc_knee must be in (soc_floor, 1]");
  require(rail_min_v > 0.0, "rail_min_v must be > 0");
  require(nominal_v > rail_min_v, "nominal_v must be > rail_min_v");
  require(rebudget_trigger_v >= rail_min_v,
          "rebudget_trigger_v must be >= rail_min_v");
  require(min_rebudget_gap_s > 0.0, "min_rebudget_gap_s must be > 0");
  require(supercap_margin_fill > 0.0 && supercap_margin_fill <= 1.0,
          "supercap_margin_fill must be in (0, 1]");
  require(skin_soft_c < skin_hard_c, "skin_soft_c must be < skin_hard_c");
  require(cell_soft_c < cell_hard_c, "cell_soft_c must be < cell_hard_c");
  require(static_margin > 0.0 && static_margin <= 1.0,
          "static_margin must be in (0, 1]");
  require(cooling_priority_hotspot_c > 0.0,
          "cooling_priority_hotspot_c must be > 0");
  bool fractions_ok = true;
  for (std::size_t i = 0; i < level_fraction.size(); ++i) {
    if (level_fraction[i] <= util::Ratio{0.0} ||
        level_fraction[i] > util::Ratio{1.0}) {
      fractions_ok = false;
    }
    if (i > 0 && level_fraction[i] > level_fraction[i - 1]) {
      fractions_ok = false;
    }
  }
  require(fractions_ok,
          "level_fraction values must be in (0, 1] and non-increasing");
  if (corecaps.empty()) {
    errors.emplace_back("corecaps must not be empty");
    return errors;
  }
  for (std::size_t i = 0; i < corecaps.size(); ++i) {
    const CorecapRow& row = corecaps[i];
    if (row.budget_mw <= zero_mw ||
        (i > 0 && row.budget_mw <= corecaps[i - 1].budget_mw)) {
      errors.push_back("corecaps[" + std::to_string(i) +
                       "].budget_mw must be > 0 and strictly increasing");
    }
    const CorecapRow* prev = i > 0 ? &corecaps[i - 1] : nullptr;
    validate_split(row, row.cpu_priority,
                   prev != nullptr ? &prev->cpu_priority : nullptr, i,
                   "cpu_priority", errors);
    validate_split(row, row.cooling_priority,
                   prev != nullptr ? &prev->cooling_priority : nullptr, i,
                   "cooling_priority", errors);
  }
  return errors;
}

PowerBudgetArbiter::PowerBudgetArbiter(const PowerBudgetArbiterConfig& config)
    : config_(config) {
  util::throw_if_invalid("PowerBudgetArbiterConfig", config_.validate());
}

util::Milliwatts PowerBudgetArbiter::derive_budget_mw(
    const BudgetInputs& in) const {
  const double soc = in.active == battery::BatterySelection::kBig
                         ? in.big_soc
                         : in.little_soc;
  const double soc_factor =
      clamp01((soc - config_.soc_floor) / (config_.soc_knee - config_.soc_floor));
  // Comparator-less boards cannot read the live rail: kStatic takes its
  // worst-case margin in rebudget() instead of a voltage factor here.
  double volt_factor = 1.0;
  if (config_.cap_method == CapMethod::kRelax) {
    volt_factor = clamp01((in.rail_v - config_.rail_min_v) /
                          (config_.nominal_v - config_.rail_min_v));
  }
  const double cap_factor =
      clamp01(in.supercap_fill / config_.supercap_margin_fill);
  const double skin_factor =
      1.0 - clamp01((in.skin_c - config_.skin_soft_c) /
                    (config_.skin_hard_c - config_.skin_soft_c));
  const double cell_factor =
      1.0 - clamp01((in.cell_c - config_.cell_soft_c) /
                    (config_.cell_hard_c - config_.cell_soft_c));
  // The tightest constraint rules; multiplying would over-derate when
  // several factors dip together.
  const double headroom = std::min(
      {soc_factor, volt_factor, cap_factor, skin_factor, cell_factor});
  return std::max(config_.min_budget_mw, headroom * config_.base_budget_mw);
}

const CorecapRow& PowerBudgetArbiter::row_for(util::Milliwatts effective_mw,
                                              std::size_t* index) const {
  // Highest row whose activation budget fits; below the first row the
  // first row's caps apply and the shed loop trims them to the budget.
  std::size_t chosen = 0;
  for (std::size_t i = 0; i < config_.corecaps.size(); ++i) {
    if (config_.corecaps[i].budget_mw <= effective_mw) chosen = i;
  }
  if (index != nullptr) *index = chosen;
  return config_.corecaps[chosen];
}

BudgetGrant PowerBudgetArbiter::rebudget(
    const BudgetInputs& in, BudgetLevel level,
    std::span<device::PowerConsumer* const> consumers) {
  BudgetGrant grant;
  grant.level = level;
  grant.derived_mw = derive_budget_mw(in);
  util::Milliwatts effective =
      grant.derived_mw * config_.level_fraction[static_cast<std::size_t>(level)];
  if (config_.cap_method == CapMethod::kStatic) {
    effective *= config_.static_margin;
  }
  effective = std::max(effective, config_.min_budget_mw);
  grant.effective_mw = effective;
  grant.cooling_priority = in.hotspot_c > config_.cooling_priority_hotspot_c;

  const CorecapRow& row = row_for(effective, &grant.row);
  const CorecapSplit& split =
      grant.cooling_priority ? row.cooling_priority : row.cpu_priority;

  struct Slot {
    device::PowerConsumer* consumer = nullptr;
    device::ConsumerCapability cap;
    util::Milliwatts target;
    int priority = 0;
  };
  std::array<Slot, device::kConsumerKindCount> slots;
  std::size_t count = 0;
  util::Milliwatts total;
  for (device::PowerConsumer* consumer : consumers) {
    if (consumer == nullptr || count >= slots.size()) continue;
    Slot& slot = slots[count++];
    slot.consumer = consumer;
    slot.cap = consumer->capability();
    slot.target = std::clamp(split.cap_for(consumer->kind()),
                             slot.cap.min_draw_mw, slot.cap.max_draw_mw);
    slot.priority = slot.cap.shed_priority;
    // Cooling-priority rows shed the CPU before the TEC: a hot die buys
    // its cooler with its own cycles.
    if (grant.cooling_priority) {
      if (consumer->kind() == device::ConsumerKind::kCpu) slot.priority = 2;
      if (consumer->kind() == device::ConsumerKind::kTec) slot.priority = 3;
    }
    total += slot.target;
  }

  // FastCap-style fair trim: shed the deficit in priority order, never
  // below a consumer's floor. When the floors alone exceed the budget the
  // grant honestly reports granted_mw > effective_mw (zero-headroom case).
  util::Milliwatts deficit = total - effective;
  if (deficit > util::Milliwatts{}) {
    std::array<std::size_t, device::kConsumerKindCount> order{};
    for (std::size_t i = 0; i < count; ++i) order[i] = i;
    std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(count),
              [&slots](std::size_t a, std::size_t b) {
                if (slots[a].priority != slots[b].priority) {
                  return slots[a].priority < slots[b].priority;
                }
                return slots[a].consumer->kind() < slots[b].consumer->kind();
              });
    for (std::size_t i = 0; i < count && deficit > util::Milliwatts{}; ++i) {
      Slot& slot = slots[order[i]];
      const util::Milliwatts reducible = slot.target - slot.cap.min_draw_mw;
      const util::Milliwatts take = std::min(deficit, reducible);
      slot.target -= take;
      deficit -= take;
    }
  }

  for (std::size_t i = 0; i < count; ++i) {
    const util::Milliwatts granted =
        slots[i].consumer->apply_cap(slots[i].target);
    grant.by_kind[static_cast<std::size_t>(slots[i].consumer->kind())] =
        granted;
    grant.granted_mw += granted;
  }

  ++rebudgets_;
  if (grant.cooling_priority) ++cooling_rebudgets_;
  if (!any_grant_ || grant.granted_mw < min_granted_mw_) {
    min_granted_mw_ = grant.granted_mw;
    any_grant_ = true;
  }
  last_ = grant;
  return grant;
}

void PowerBudgetArbiter::publish_metrics(obs::MetricsRegistry& registry) const {
  registry.counter("arbiter/rebudgets").add(rebudgets_);
  registry.counter("arbiter/voltage_triggers").add(voltage_triggers_);
  registry.counter("arbiter/cooling_rebudgets").add(cooling_rebudgets_);
  // capman-lint: allow(raw-unit, gauges export plain doubles)
  registry.gauge("arbiter/budget_mw").set(last_.derived_mw.raw());
  // capman-lint: allow(raw-unit, gauges export plain doubles)
  registry.gauge("arbiter/granted_mw").set(last_.granted_mw.raw());
  // capman-lint: allow(raw-unit, gauges export plain doubles)
  registry.gauge("arbiter/min_granted_mw").set(min_granted_mw_.raw());
}

}  // namespace capman::core
