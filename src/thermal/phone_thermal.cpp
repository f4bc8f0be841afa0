#include "thermal/phone_thermal.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace capman::thermal {
namespace {

using Node = PhoneThermal::Node;
using enum PhoneThermal::Node;
constexpr std::size_t kFree = kAmbient;  // nodes with a heat capacity
constexpr std::size_t kNodes = kAmbient + 1;

struct Edge {
  Node a;
  Node b;
  double PhoneThermalConfig::*conductance;
};

// The network's six edges. Their order fixes the floating-point summation
// order of every node's flux; reordering them may move simulated numbers in
// the last bit.
constexpr std::array<Edge, 6> kEdges{{
    {kCpu, kBoard, &PhoneThermalConfig::cpu_board},
    {kCpu, kSurface, &PhoneThermalConfig::cpu_surface},
    {kBoard, kSurface, &PhoneThermalConfig::board_surface},
    {kBattery, kBoard, &PhoneThermalConfig::battery_board},
    {kBattery, kSurface, &PhoneThermalConfig::battery_surface},
    {kSurface, kAmbient, &PhoneThermalConfig::surface_ambient},
}};

}  // namespace

std::vector<std::string> PhoneThermalConfig::validate() const {
  std::vector<std::string> errors;
  auto require = [&errors](bool ok, const char* message) {
    if (!ok) errors.emplace_back(message);
  };
  require(ambient.value() > -273.15, "ambient must be above absolute zero");
  require(cpu_capacity > 0.0, "cpu_capacity must be > 0");
  require(board_capacity > 0.0, "board_capacity must be > 0");
  require(battery_capacity > 0.0, "battery_capacity must be > 0");
  require(surface_capacity > 0.0, "surface_capacity must be > 0");
  require(cpu_board >= 0.0, "cpu_board must be >= 0");
  require(cpu_surface >= 0.0, "cpu_surface must be >= 0");
  require(board_surface >= 0.0, "board_surface must be >= 0");
  require(battery_board >= 0.0, "battery_board must be >= 0");
  require(battery_surface >= 0.0, "battery_surface must be >= 0");
  require(surface_ambient >= 0.0, "surface_ambient must be >= 0");
  return errors;
}

PhoneThermal::PhoneThermal(const PhoneThermalConfig& config,
                           const TecParams& tec_params)
    : tec_(tec_params) {
  temperature_c_.fill(config.ambient.value());
  capacity_j_per_k_ = {config.cpu_capacity, config.board_capacity,
                       config.battery_capacity, config.surface_capacity};
  // Explicit Euler is stable for h < C_i / (sum of conductances at i).
  std::array<double, kNodes> g_sum{};
  for (std::size_t e = 0; e < kEdges.size(); ++e) {
    const double g = config.*kEdges[e].conductance;
    conductance_w_per_k_[e] = g;
    g_sum[kEdges[e].a] += g;
    g_sum[kEdges[e].b] += g;
  }
  double bound = 1e9;
  for (std::size_t i = 0; i < kFree; ++i) {
    if (g_sum[i] > 0.0) {
      bound = std::min(bound, capacity_j_per_k_[i] / g_sum[i]);
    }
  }
  max_substep_s_ = 0.05 * bound;
}

util::Watts PhoneThermal::step(util::Watts cpu_power,
                               util::Watts battery_heat,
                               util::Watts other_power, util::Seconds dt) {
  // Heat per free node (cpu, board, battery, surface). Screen/WiFi power
  // dissipates into the board/surface region.
  std::array<double, kFree> heat_w{cpu_power.value(), other_power.value(),
                                   battery_heat.value(), 0.0};

  util::Watts tec_power{0.0};
  const util::Amperes i = tec_.operating_current();
  if (i.value() > 0.0) {
    // Cold side on the CPU die, hot side against the back-cover spreader
    // (the surface node), which has the strongest path to ambient.
    const util::Celsius cold{temperature_c_[kCpu]};
    const util::Celsius hot{temperature_c_[kSurface]};
    const util::Watts pumped = tec_.heat_pumped(cold, hot, i);
    tec_power = tec_.electric_power(cold, hot, i);
    heat_w[kCpu] -= pumped.value();
    heat_w[kSurface] += (pumped + tec_power).value();
  }

  const double total = dt.value();
  assert(total > 0.0);
  const auto dt_bits = std::bit_cast<std::uint64_t>(total);
  if (dt_bits != substep_dt_bits_) {
    substep_dt_bits_ = dt_bits;
    substeps_ =
        std::max(1, static_cast<int>(std::ceil(total / max_substep_s_)));
    substep_h_ = total / substeps_;
  }
  const int substeps = substeps_;
  const double h = substep_h_;
  for (int s = 0; s < substeps; ++s) {
    std::array<double, kNodes> flux{};
    for (std::size_t e = 0; e < kEdges.size(); ++e) {
      const Edge& edge = kEdges[e];
      const double q = conductance_w_per_k_[e] *
                       (temperature_c_[edge.a] - temperature_c_[edge.b]);
      flux[edge.a] -= q;
      flux[edge.b] += q;
    }
    for (std::size_t n = 0; n < kFree; ++n) {
      temperature_c_[n] += h * (flux[n] + heat_w[n]) / capacity_j_per_k_[n];
    }
  }
  return tec_power;
}

void PhoneThermal::reset(util::Celsius temperature) {
  std::fill_n(temperature_c_.begin(), kFree, temperature.value());
  tec_.turn_off();
}

}  // namespace capman::thermal
