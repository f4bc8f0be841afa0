// Battery pack abstractions.
//
// PowerSource is the single interface the simulator and every scheduling
// policy see. Two implementations:
//  * SingleBatteryPack — the paper's "Practice" baseline (the original
//    phone: one cell of the full capacity).
//  * DualBatteryPack — the paper's big.LITTLE prototype: big cell + LITTLE
//    cell behind the comparator switch facility, with a supercapacitor
//    smoothing the LITTLE rail.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "battery/cell.h"
#include "battery/supercap.h"
#include "battery/switcher.h"
#include "util/units.h"

namespace capman::battery {

struct PackStepResult {
  util::Joules delivered;
  util::Joules losses;
  util::Watts heat;          // battery heat this step (losses / dt)
  bool demand_met = true;    // false = brownout on every available cell
  bool exhausted = false;    // no cell can ever supply again
  BatterySelection supplied_by = BatterySelection::kBig;
  util::Volts rail_voltage;
};

class PowerSource {
 public:
  virtual ~PowerSource() = default;

  /// Supply `load` for `dt` ending at simulation time `now`.
  virtual PackStepResult step(util::Watts load, util::Seconds dt,
                              util::Seconds now) = 0;

  /// Ask the pack to route load to `target` (no-op for single packs).
  virtual void request(BatterySelection target, util::Seconds now) = 0;

  [[nodiscard]] virtual bool exhausted() const = 0;
  /// Combined state of charge in [0,1] (charge-weighted across cells).
  [[nodiscard]] virtual double soc() const = 0;
  [[nodiscard]] virtual double big_soc() const = 0;
  [[nodiscard]] virtual double little_soc() const = 0;
  [[nodiscard]] virtual BatterySelection active() const = 0;
  /// Cumulative seconds each selection carried the load (paper Fig. 14's
  /// big/LITTLE activation-time ratio).
  [[nodiscard]] virtual util::Seconds activation_time(
      BatterySelection sel) const = 0;
  [[nodiscard]] virtual std::size_t switch_count() const = 0;
  [[nodiscard]] virtual util::Joules energy_remaining() const = 0;
  virtual void recharge() = 0;
};

/// The original-phone baseline: one cell holds the whole labeled capacity.
class SingleBatteryPack final : public PowerSource {
 public:
  SingleBatteryPack(Chemistry chemistry, double labeled_capacity_mah);

  PackStepResult step(util::Watts load, util::Seconds dt,
                      util::Seconds now) override;
  void request(BatterySelection target, util::Seconds now) override;
  [[nodiscard]] bool exhausted() const override { return cell_.exhausted(); }
  [[nodiscard]] double soc() const override { return cell_.soc(); }
  [[nodiscard]] double big_soc() const override { return cell_.soc(); }
  [[nodiscard]] double little_soc() const override { return 0.0; }
  [[nodiscard]] BatterySelection active() const override {
    return BatterySelection::kBig;
  }
  [[nodiscard]] util::Seconds activation_time(
      BatterySelection sel) const override;
  [[nodiscard]] std::size_t switch_count() const override { return 0; }
  [[nodiscard]] util::Joules energy_remaining() const override {
    return cell_.energy_remaining();
  }
  void recharge() override { cell_.recharge(); }

  [[nodiscard]] const Cell& cell() const { return cell_; }

 private:
  Cell cell_;
  double active_time_s_ = 0.0;
};

struct DualPackConfig {
  Chemistry big_chemistry = Chemistry::kNCA;
  double big_capacity_mah = 1700.0;
  Chemistry little_chemistry = Chemistry::kLMO;
  double little_capacity_mah = 800.0;
  SwitchFacilityConfig switch_config{};
  // Supercapacitor on the LITTLE rail (paper Fig. 10).
  util::Farads supercap_capacitance = util::Farads{2.0};
  util::Volts supercap_voltage = util::Volts{4.2};
  util::Ohms supercap_esr = util::Ohms{0.02};
  // EWMA time constant for the smoothed baseline the supercap maintains.
  util::Seconds baseline_tau = util::Seconds{2.0};

  /// Human-readable configuration errors; empty means valid. Covers the
  /// nested switch-facility config ("switch_config: " prefix);
  /// sim::SimConfig::validate() aggregates these under "pack_config.".
  [[nodiscard]] std::vector<std::string> validate() const;
};

struct PackTestAccess;

/// big.LITTLE pack: the CAPMAN prototype hardware.
class DualBatteryPack final : public PowerSource {
 public:
  explicit DualBatteryPack(const DualPackConfig& config = {});
  /// Inject a custom switch facility (e.g. a fault-decorated board from
  /// sim::FaultySwitchFacility). The pack routes every actuation through
  /// the facility's virtual interface and never learns which faults, if
  /// any, are active. A null `switcher` falls back to the ideal facility.
  DualBatteryPack(const DualPackConfig& config,
                  std::unique_ptr<SwitchFacility> switcher);

  PackStepResult step(util::Watts load, util::Seconds dt,
                      util::Seconds now) override;
  void request(BatterySelection target, util::Seconds now) override;
  [[nodiscard]] bool exhausted() const override;
  [[nodiscard]] double soc() const override;
  [[nodiscard]] double big_soc() const override { return big_.soc(); }
  [[nodiscard]] double little_soc() const override { return little_.soc(); }
  [[nodiscard]] BatterySelection active() const override {
    return switch_->active();
  }
  [[nodiscard]] util::Seconds activation_time(
      BatterySelection sel) const override;
  [[nodiscard]] std::size_t switch_count() const override {
    return switch_->switch_count();
  }
  [[nodiscard]] util::Joules energy_remaining() const override;
  void recharge() override;

  /// Whether the comparator-side validation in request() would accept a
  /// switch to `target` under the load the pack saw last step. Exposed so
  /// policy-level watchdogs (core::DegradationGuard) can tell a protection
  /// refusal — a drained target rail, rejected by design — from an
  /// actuator fault.
  [[nodiscard]] bool would_accept(BatterySelection target) const {
    const Cell& cell = target == BatterySelection::kBig ? big_ : little_;
    return cell.can_supply(util::Watts{last_load_w_});
  }

  /// Switch-loss energy not yet drained from the cells (telemetry).
  [[nodiscard]] util::Joules switch_debt() const {
    return util::Joules{switch_debt_j_};
  }

  [[nodiscard]] const Cell& big_cell() const { return big_; }
  [[nodiscard]] const Cell& little_cell() const { return little_; }
  [[nodiscard]] const SwitchFacility& switch_facility() const {
    return *switch_;
  }
  [[nodiscard]] const Supercapacitor& supercap() const { return supercap_; }

 private:
  friend struct PackTestAccess;  // tests/battery/pack_test.cpp

  Cell& cell_for(BatterySelection sel) {
    return sel == BatterySelection::kBig ? big_ : little_;
  }
  /// Draw from one specific cell, applying the supercap filter on LITTLE.
  Cell::DrawResult draw_from(BatterySelection sel, util::Watts load,
                             util::Seconds dt, util::Seconds now);

  // Maximum rate at which accumulated switch losses drain the active cell.
  static constexpr double kSwitchDrainWatts = 0.25;

  DualPackConfig config_;
  Cell big_;
  Cell little_;
  std::unique_ptr<SwitchFacility> switch_;
  Supercapacitor supercap_;
  double baseline_w_ = 0.0;  // EWMA of recent load for the supercap filter
  // The baseline EWMA's alpha = 1 - exp(-dt / baseline_tau), recomputed
  // only when dt changes bitwise (+0.0 s holds the exact dt = 0 value).
  std::uint64_t baseline_dt_bits_ = 0;
  double baseline_alpha_ = 0.0;
  double last_load_w_ = 0.0;  // load seen last step (for request validation)
  double switch_debt_j_ = 0.0;  // completed-switch losses not yet drained
  double active_time_big_s_ = 0.0;
  double active_time_little_s_ = 0.0;
};

}  // namespace capman::battery
