#include "sim/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/sketch.h"
#include "util/atomic_file.h"
#include "util/crc32.h"

namespace capman::sim {
namespace {

// ---------------------------------------------------------------------------
// Little-endian primitives. Every multi-byte field goes through these so
// the on-disk layout is host-independent (DESIGN.md §16).

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_double(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked read cursor over a frame payload. Every get_* sets
/// `ok = false` instead of reading past the end, and callers check `ok`
/// once at the end — a corrupt payload can only yield a rejected frame,
/// never undefined behavior.
struct Cursor {
  std::string_view bytes;
  std::size_t pos = 0;
  bool ok = true;

  [[nodiscard]] bool take(std::size_t n) {
    if (!ok || bytes.size() - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }

  std::uint8_t get_u8() {
    if (!take(1)) return 0;
    return static_cast<std::uint8_t>(bytes[pos++]);
  }

  std::uint32_t get_u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes[pos + i]))
           << (8 * i);
    }
    pos += 4;
    return v;
  }

  std::uint64_t get_u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes[pos + i]))
           << (8 * i);
    }
    pos += 8;
    return v;
  }

  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  double get_double() { return std::bit_cast<double>(get_u64()); }

  [[nodiscard]] bool exhausted() const { return ok && pos == bytes.size(); }
};

// ---------------------------------------------------------------------------
// Frame layer: u8 type | u32 payload length | payload | u32 CRC-32 over
// (type + length + payload).

constexpr std::uint8_t kFrameHeader = 1;
constexpr std::uint8_t kFrameShard = 2;
constexpr std::size_t kFrameOverhead = 1 + 4 + 4;  // type + length + crc
// Backstop against a corrupt length field making the reader "wait" for
// gigabytes: no legitimate frame (10^5-device shards included) comes
// close to this.
constexpr std::uint32_t kMaxFramePayload = 1u << 28;

void put_frame(std::string& out, std::uint8_t type,
               const std::string& payload) {
  std::string head;
  put_u8(head, type);
  put_u32(head, static_cast<std::uint32_t>(payload.size()));
  std::uint32_t crc = util::crc32(head);
  crc = util::crc32(payload, crc);
  out += head;
  out += payload;
  put_u32(out, crc);
}

/// One decoded frame, or nothing when the bytes at `pos` are not a
/// complete, CRC-valid frame (the torn-tail case).
struct Frame {
  std::uint8_t type = 0;
  std::string_view payload;
  std::size_t size = 0;  // total on-disk bytes consumed
};

std::optional<Frame> next_frame(std::string_view bytes, std::size_t pos) {
  if (bytes.size() - pos < kFrameOverhead) return std::nullopt;
  Cursor head{bytes.substr(pos, 5)};
  const std::uint8_t type = head.get_u8();
  const std::uint32_t length = head.get_u32();
  if (length > kMaxFramePayload) return std::nullopt;
  if (bytes.size() - pos < kFrameOverhead + length) return std::nullopt;
  const std::string_view payload = bytes.substr(pos + 5, length);
  Cursor tail{bytes.substr(pos + 5 + length, 4)};
  const std::uint32_t stored_crc = tail.get_u32();
  std::uint32_t crc = util::crc32(bytes.substr(pos, 5));
  crc = util::crc32(payload, crc);
  if (crc != stored_crc) return std::nullopt;
  return Frame{type, payload, kFrameOverhead + length};
}

// ---------------------------------------------------------------------------
// Payload layer.

void put_sketch(std::string& out, const obs::QuantileSketch& sketch) {
  const obs::QuantileSketchState s = sketch.state();
  put_double(out, s.relative_error);
  put_u64(out, s.zero_count);
  put_u64(out, s.count);
  put_double(out, s.min);
  put_double(out, s.max);
  put_u8(out, s.has_extremes ? 1 : 0);
  put_u64(out, s.buckets.size());
  for (const auto& [index, n] : s.buckets) {
    put_i32(out, index);
    put_u64(out, n);
  }
}

std::optional<obs::QuantileSketch> get_sketch(Cursor& in) {
  obs::QuantileSketchState s;
  s.relative_error = in.get_double();
  s.zero_count = in.get_u64();
  s.count = in.get_u64();
  s.min = in.get_double();
  s.max = in.get_double();
  s.has_extremes = in.get_u8() != 0;
  const std::uint64_t buckets = in.get_u64();
  if (!in.ok || buckets > kMaxFramePayload) return std::nullopt;
  s.buckets.reserve(static_cast<std::size_t>(buckets));
  for (std::uint64_t i = 0; i < buckets; ++i) {
    const std::int32_t index = in.get_i32();
    const std::uint64_t n = in.get_u64();
    s.buckets.emplace_back(index, n);
  }
  if (!in.ok || !(s.relative_error > 0.0) || !(s.relative_error < 1.0)) {
    return std::nullopt;
  }
  return obs::QuantileSketch::from_state(s);
}

void put_aggregate(std::string& out, const PolicyAggregate& aggregate) {
  put_u8(out, static_cast<std::uint8_t>(aggregate.kind));
  put_u64(out, aggregate.devices);
  put_u64(out, aggregate.brownouts);
  put_u64(out, aggregate.truncated);
  put_u64(out, aggregate.switch_total);
  put_u64(out, aggregate.faulty_devices);
  put_u64(out, aggregate.fault_fallbacks);
  put_u64(out, aggregate.fault_dropped_requests);
  put_u64(out, aggregate.quarantined);
  // capman-lint: allow(raw-unit, serializing the exact integer folds)
  put_u64(out, aggregate.lifetime_us.raw());
  // capman-lint: allow(raw-unit, serializing the exact integer folds)
  put_i64(out, aggregate.max_temp_mc.raw());
  // capman-lint: allow(raw-unit, serializing the exact integer folds)
  put_u64(out, aggregate.energy_delivered_mj.raw());
  put_u64(out, aggregate.health_evaluations);
  put_u64(out, aggregate.health_alerts.size());
  for (const std::uint64_t n : aggregate.health_alerts) put_u64(out, n);
  put_sketch(out, aggregate.lifetime_s_sketch);
  put_sketch(out, aggregate.max_temp_c_sketch);
  put_sketch(out, aggregate.switches_sketch);
}

std::optional<PolicyAggregate> get_aggregate(Cursor& in,
                                             PolicyKind expected_kind) {
  PolicyAggregate aggregate;
  aggregate.kind = static_cast<PolicyKind>(in.get_u8());
  aggregate.devices = in.get_u64();
  aggregate.brownouts = in.get_u64();
  aggregate.truncated = in.get_u64();
  aggregate.switch_total = in.get_u64();
  aggregate.faulty_devices = in.get_u64();
  aggregate.fault_fallbacks = in.get_u64();
  aggregate.fault_dropped_requests = in.get_u64();
  aggregate.quarantined = in.get_u64();
  aggregate.lifetime_us = util::MicroSeconds{in.get_u64()};
  aggregate.max_temp_mc = util::MilliCelsius{in.get_i64()};
  aggregate.energy_delivered_mj = util::Millijoules{in.get_u64()};
  aggregate.health_evaluations = in.get_u64();
  const std::uint64_t rules = in.get_u64();
  if (!in.ok || rules != aggregate.health_alerts.size()) return std::nullopt;
  for (auto& n : aggregate.health_alerts) n = in.get_u64();
  auto lifetime = get_sketch(in);
  auto temp = get_sketch(in);
  auto switches = get_sketch(in);
  if (!in.ok || !lifetime || !temp || !switches ||
      aggregate.kind != expected_kind) {
    return std::nullopt;
  }
  aggregate.lifetime_s_sketch = std::move(*lifetime);
  aggregate.max_temp_c_sketch = std::move(*temp);
  aggregate.switches_sketch = std::move(*switches);
  return aggregate;
}

std::string encode_header(const CheckpointHeader& header) {
  std::string payload;
  put_u32(payload, header.version);
  put_u64(payload, header.fingerprint);
  put_u64(payload, header.device_count);
  put_u64(payload, header.shard_count);
  put_u64(payload, header.seed);
  put_u64(payload, header.policies.size());
  for (const PolicyKind kind : header.policies) {
    put_u8(payload, static_cast<std::uint8_t>(kind));
  }
  put_double(payload, header.sketch_relative_error);
  return payload;
}

std::optional<CheckpointHeader> decode_header(std::string_view payload) {
  Cursor in{payload};
  CheckpointHeader header;
  header.version = in.get_u32();
  header.fingerprint = in.get_u64();
  header.device_count = in.get_u64();
  header.shard_count = in.get_u64();
  header.seed = in.get_u64();
  const std::uint64_t policies = in.get_u64();
  if (!in.ok || header.version != kCheckpointFormatVersion ||
      policies == 0 || policies > 64) {
    return std::nullopt;
  }
  header.policies.reserve(static_cast<std::size_t>(policies));
  for (std::uint64_t i = 0; i < policies; ++i) {
    header.policies.push_back(static_cast<PolicyKind>(in.get_u8()));
  }
  header.sketch_relative_error = in.get_double();
  if (!in.exhausted()) return std::nullopt;
  return header;
}

std::string encode_shard(const ShardCheckpoint& shard) {
  std::string payload;
  put_u64(payload, shard.shard);
  put_u64(payload, shard.device_begin);
  put_u64(payload, shard.device_end);
  put_u64(payload, shard.engine_steps);
  put_u64(payload, shard.quarantine_retries);
  put_u64(payload, shard.policies.size());
  for (const auto& aggregate : shard.policies) put_aggregate(payload, aggregate);
  return payload;
}

std::optional<ShardCheckpoint> decode_shard(std::string_view payload,
                                            const CheckpointHeader& header) {
  Cursor in{payload};
  ShardCheckpoint shard;
  shard.shard = in.get_u64();
  shard.device_begin = in.get_u64();
  shard.device_end = in.get_u64();
  shard.engine_steps = in.get_u64();
  shard.quarantine_retries = in.get_u64();
  const std::uint64_t policies = in.get_u64();
  if (!in.ok || policies != header.policies.size() ||
      shard.shard >= header.shard_count ||
      shard.device_end < shard.device_begin ||
      shard.device_end > header.device_count) {
    return std::nullopt;
  }
  shard.policies.reserve(static_cast<std::size_t>(policies));
  for (std::uint64_t i = 0; i < policies; ++i) {
    auto aggregate =
        get_aggregate(in, header.policies[static_cast<std::size_t>(i)]);
    if (!aggregate) return std::nullopt;
    shard.policies.push_back(std::move(*aggregate));
  }
  if (!in.exhausted()) return std::nullopt;
  return shard;
}

// ---------------------------------------------------------------------------
// Fingerprint: FNV-1a over the little-endian encoding of every
// result-identity field, so "same fingerprint" means "bit-identical
// fleet result given the same completed work".

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

void put_chemistries(
    std::string& out,
    const std::vector<PopulationSpec::ChemistryChoice>& choices) {
  put_u64(out, choices.size());
  for (const auto& choice : choices) {
    put_u8(out, static_cast<std::uint8_t>(choice.chemistry));
    put_double(out, choice.weight);
  }
}

template <typename Tag>
void put_strong(std::string& out, util::Strong<Tag, double> value) {
  // capman-lint: allow(raw-unit, fingerprinting the exact stored value)
  put_double(out, value.raw());
}

void put_split(std::string& out, const core::CorecapSplit& split) {
  put_strong(out, split.cpu_mw);
  put_strong(out, split.screen_mw);
  put_strong(out, split.wifi_mw);
  put_strong(out, split.tec_mw);
}

void put_budget(std::string& out, const core::PowerBudgetArbiterConfig& b) {
  put_u8(out, b.enabled ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(b.cap_method));
  put_strong(out, b.base_budget_mw);
  put_strong(out, b.min_budget_mw);
  put_double(out, b.soc_floor);
  put_double(out, b.soc_knee);
  put_double(out, b.rail_min_v);
  put_double(out, b.nominal_v);
  put_double(out, b.rebudget_trigger_v);
  put_double(out, b.min_rebudget_gap_s);
  put_double(out, b.supercap_margin_fill);
  put_double(out, b.skin_soft_c);
  put_double(out, b.skin_hard_c);
  put_double(out, b.cell_soft_c);
  put_double(out, b.cell_hard_c);
  put_double(out, b.static_margin);
  for (const util::Ratio fraction : b.level_fraction) {
    put_strong(out, fraction);
  }
  put_double(out, b.cooling_priority_hotspot_c);
  put_u64(out, b.corecaps.size());
  for (const core::CorecapRow& row : b.corecaps) {
    put_strong(out, row.budget_mw);
    put_split(out, row.cpu_priority);
    put_split(out, row.cooling_priority);
  }
}

// Every CapmanConfig knob except similarity_threads: Algorithm 1 is
// bit-identical for any thread count (core/similarity.h).
void put_capman(std::string& out, const core::CapmanConfig& c) {
  put_double(out, c.rho);
  put_double(out, c.c_s);
  put_double(out, c.c_a);
  put_double(out, c.epsilon);
  put_u64(out, c.max_iterations);
  put_double(out, c.absorbing_distance);
  put_double(out, c.recalibration_interval.value());
  put_double(out, c.min_observations);
  put_double(out, c.recency_decay);
  put_double(out, c.exploration_initial);
  put_double(out, c.exploration_decay_per_event);
  put_double(out, c.exploration_floor);
  put_double(out, c.min_switch_dwell.value());
  put_double(out, c.maintenance_power.value());
  put_u8(out, c.learn_budget ? 1 : 0);
}

// The pack knobs a device keeps: sample_device() replaces the chemistries
// and capacities.
void put_pack(std::string& out, const battery::DualPackConfig& p) {
  const battery::SwitchFacilityConfig& s = p.switch_config;
  put_double(out, s.latency.value());
  put_double(out, s.switch_loss.value());
  put_double(out, s.oscillator_hz);
  put_double(out, s.high_level.value());
  put_double(out, s.low_level.value());
  put_double(out, p.supercap_capacitance.value());
  put_double(out, p.supercap_voltage.value());
  put_double(out, p.supercap_esr.value());
  put_double(out, p.baseline_tau.value());
}

// The thermal stack; sample_device() replaces the ambient temperature.
void put_thermal(std::string& out, const SimConfig& base) {
  const thermal::PhoneThermalConfig& t = base.thermal_config;
  put_double(out, t.cpu_capacity);
  put_double(out, t.board_capacity);
  put_double(out, t.battery_capacity);
  put_double(out, t.surface_capacity);
  put_double(out, t.cpu_board);
  put_double(out, t.cpu_surface);
  put_double(out, t.board_surface);
  put_double(out, t.battery_board);
  put_double(out, t.battery_surface);
  put_double(out, t.surface_ambient);
  const thermal::TecParams& tec = base.tec_params;
  put_double(out, tec.seebeck_v_per_k);
  put_double(out, tec.resistance.value());
  put_double(out, tec.conductance_w_per_k);
  put_double(out, tec.rated_current.value());
  put_double(out, base.cooling_config.threshold.value());
  put_double(out, base.cooling_config.hysteresis.value());
}

}  // namespace

std::uint64_t checkpoint_fingerprint(const FleetConfig& config,
                                     std::size_t resolved_shards) {
  std::string bytes;
  put_u64(bytes, config.device_count);
  put_u64(bytes, resolved_shards);
  put_u64(bytes, config.seed);
  put_u64(bytes, config.policies.size());
  for (const PolicyKind kind : config.policies) {
    put_u8(bytes, static_cast<std::uint8_t>(kind));
  }
  put_double(bytes, config.sketch_relative_error);
  put_u8(bytes, config.health.enabled ? 1 : 0);

  const PopulationSpec& pop = config.population;
  put_chemistries(bytes, pop.big_chemistries);
  put_chemistries(bytes, pop.little_chemistries);
  put_double(bytes, pop.big_capacity_mah_lo);
  put_double(bytes, pop.big_capacity_mah_hi);
  put_double(bytes, pop.little_capacity_mah_lo);
  put_double(bytes, pop.little_capacity_mah_hi);
  put_u64(bytes, pop.workloads.size());
  for (const auto& choice : pop.workloads) {
    put_u8(bytes, static_cast<std::uint8_t>(choice.workload));
    put_double(bytes, choice.weight);
    put_double(bytes, choice.eta);
    put_double(bytes, choice.toggle_period.value());
  }
  put_u64(bytes, pop.phones.size());
  for (const auto& choice : pop.phones) {
    put_u8(bytes, static_cast<std::uint8_t>(choice.phone));
    put_double(bytes, choice.weight);
  }
  put_double(bytes, pop.ambient_lo.value());
  put_double(bytes, pop.ambient_hi.value());
  put_double(bytes, pop.trace_horizon.value());
  put_double(bytes, pop.fault_fraction);
  const FaultPlanConfig& ft = pop.fault_template;
  put_u64(bytes, ft.seed);
  put_double(bytes, ft.stuck_rate_per_min);
  put_double(bytes, ft.stuck_min_duration.value());
  put_double(bytes, ft.stuck_max_duration.value());
  put_double(bytes, ft.latency_jitter_frac);
  put_double(bytes, ft.latency_spike_prob);
  put_double(bytes, ft.latency_spike_factor);
  put_double(bytes, ft.transient_fail_prob);
  put_i64(bytes, ft.max_transient_retries);
  put_double(bytes, ft.transient_retry_delay.value());
  put_double(bytes, ft.droop_prob);
  put_double(bytes, ft.droop_ride_through);
  put_double(bytes, ft.droop_duration.value());
  put_double(bytes, ft.soc_bias);
  put_double(bytes, ft.soc_noise_stddev);
  put_double(bytes, ft.temp_bias_c);
  put_double(bytes, ft.temp_noise_stddev_c);
  put_double(bytes, ft.sensor_dropout_prob);

  // The per-device engine identity knobs that survive the fleet's forced
  // telemetry reset (sim/fleet.cpp run_device): step size, horizon, death
  // model, cooling, the practice baseline, the power-budget arbiter, the
  // pack's switch facility and supercap, the thermal stack, and CAPMAN.
  put_double(bytes, config.base.dt.value());
  put_double(bytes, config.base.max_duration.value());
  put_u8(bytes, config.base.enable_tec ? 1 : 0);
  put_double(bytes, config.base.death_grace.value());
  put_u8(bytes, static_cast<std::uint8_t>(config.base.practice_chemistry));
  put_double(bytes, config.base.practice_capacity_mah);
  put_budget(bytes, config.base.budget);
  put_pack(bytes, config.base.pack_config);
  put_thermal(bytes, config.base);
  put_capman(bytes, config.capman);
  return fnv1a(bytes);
}

// ---------------------------------------------------------------------------
// Writer / reader

CheckpointWriter::CheckpointWriter(std::string path, CheckpointHeader header)
    : path_(std::move(path)), header_(std::move(header)) {}

void CheckpointWriter::write(const std::vector<ShardCheckpoint>& shards) {
  std::string bytes;
  put_frame(bytes, kFrameHeader, encode_header(header_));
  // Ascending shard order: the file layout is deterministic for a given
  // set of completed shards, whatever order they finished in.
  std::vector<const ShardCheckpoint*> ordered;
  ordered.reserve(shards.size());
  for (const auto& shard : shards) ordered.push_back(&shard);
  std::sort(ordered.begin(), ordered.end(),
            [](const ShardCheckpoint* a, const ShardCheckpoint* b) {
              return a->shard < b->shard;
            });
  for (const ShardCheckpoint* shard : ordered) {
    put_frame(bytes, kFrameShard, encode_shard(*shard));
  }
  util::AtomicFile out{path_};
  out.append(bytes);
  out.commit();
  ++writes_;
  bytes_ = bytes.size();
}

std::optional<CheckpointLoad> CheckpointReader::load(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  std::size_t pos = 0;
  const auto head_frame = next_frame(bytes, pos);
  if (!head_frame || head_frame->type != kFrameHeader) return std::nullopt;
  auto header = decode_header(head_frame->payload);
  if (!header) return std::nullopt;
  pos += head_frame->size;

  CheckpointLoad load;
  load.header = std::move(*header);
  load.frames_kept = 1;
  while (pos < bytes.size()) {
    const auto frame = next_frame(bytes, pos);
    std::optional<ShardCheckpoint> shard;
    if (frame && frame->type == kFrameShard) {
      shard = decode_shard(frame->payload, load.header);
    }
    if (!shard) {
      // Torn or corrupt tail: roll back to the last valid frame. The
      // first undecodable frame is counted; everything behind it is
      // unparseable by construction and lands in bytes_discarded.
      load.frames_discarded = 1;
      load.bytes_discarded = bytes.size() - pos;
      break;
    }
    // Whole-file rewrites make duplicate shard frames impossible; if a
    // decoded-but-duplicate frame shows up anyway, last-wins keeps the
    // load well-defined.
    bool replaced = false;
    for (auto& existing : load.shards) {
      if (existing.shard == shard->shard) {
        existing = std::move(*shard);
        replaced = true;
        break;
      }
    }
    if (!replaced) load.shards.push_back(std::move(*shard));
    ++load.frames_kept;
    pos += frame->size;
  }
  std::sort(load.shards.begin(), load.shards.end(),
            [](const ShardCheckpoint& a, const ShardCheckpoint& b) {
              return a.shard < b.shard;
            });
  return load;
}

}  // namespace capman::sim
