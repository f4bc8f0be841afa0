#include "digest.h"

#include <cstring>
#include <sstream>

namespace perfbench {

Digest& Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
  return *this;
}

Digest& Digest::add(std::string_view bytes) {
  add(static_cast<std::uint64_t>(bytes.size()));
  return add_bytes(bytes.data(), bytes.size());
}

Digest& Digest::add(std::uint64_t value) {
  return add_bytes(&value, sizeof value);
}

Digest& Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return add(bits);
}

std::uint64_t cycle_digest(const capman::sim::SimResult& result) {
  Digest digest;
  digest.add(result.workload)
      .add(result.policy)
      .add(result.service_time_s)
      .add(static_cast<std::uint64_t>(result.switch_count))
      .add(result.metrics.counter_or("engine/steps"));
  return digest.value();
}

namespace {

void add_series(Digest& digest, const capman::util::TimeSeries& series) {
  digest.add(static_cast<std::uint64_t>(series.size()));
  for (std::size_t i = 0; i < series.size(); ++i) {
    digest.add(series.time_at(i)).add(series.value_at(i));
  }
}

}  // namespace

std::uint64_t result_digest(const capman::sim::SimResult& r) {
  Digest digest;
  digest.add(cycle_digest(r))
      .add(r.phone)
      .add(static_cast<std::uint64_t>(r.truncated))
      .add(static_cast<std::uint64_t>(r.died_of_brownout))
      .add(r.energy_delivered_j)
      .add(r.energy_lost_j)
      .add(r.tec_energy_j)
      .add(r.tec_on_fraction)
      .add(r.avg_power_w)
      .add(r.avg_cpu_temp_c)
      .add(r.max_cpu_temp_c)
      .add(r.avg_surface_temp_c)
      .add(r.max_surface_temp_c)
      .add(r.avg_budget_mw)
      .add(r.budget_shed_j)
      .add(static_cast<std::uint64_t>(r.budget_throttled_steps))
      .add(static_cast<std::uint64_t>(r.budget_rebudgets))
      .add(static_cast<std::uint64_t>(r.budget_tec_vetoes))
      .add(r.big_active_s)
      .add(r.little_active_s)
      .add(r.end_big_soc)
      .add(r.end_little_soc)
      .add(snapshot_digest(r.metrics));
  add_series(digest, r.soc_series);
  add_series(digest, r.power_series);
  add_series(digest, r.cpu_temp_series);
  add_series(digest, r.surface_temp_series);
  add_series(digest, r.tec_power_series);
  return digest.value();
}

std::uint64_t snapshot_digest(const capman::obs::MetricsSnapshot& snapshot) {
  std::ostringstream json;
  snapshot.write_json(json);
  return Digest{}.add(json.str()).value();
}

}  // namespace perfbench
