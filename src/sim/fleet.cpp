#include "sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "device/phone.h"
#include "obs/metrics.h"
#include "sim/checkpoint.h"
#include "util/config_check.h"
#include "util/sharding.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace capman::sim {

const char* to_string(FleetPhone phone) {
  switch (phone) {
    case FleetPhone::kNexus: return "nexus";
    case FleetPhone::kHonor: return "honor";
    case FleetPhone::kLenovo: return "lenovo";
  }
  return "?";
}

const char* to_string(FleetWorkload workload) {
  switch (workload) {
    case FleetWorkload::kGeekbench: return "geekbench";
    case FleetWorkload::kPcmark: return "pcmark";
    case FleetWorkload::kVideo: return "video";
    case FleetWorkload::kLocalVideo: return "localvideo";
    case FleetWorkload::kIdleScreenOn: return "idle";
    case FleetWorkload::kEtaStatic: return "eta";
    case FleetWorkload::kScreenToggle: return "toggle";
  }
  return "?";
}

namespace {

device::PhoneProfile profile_for(FleetPhone phone) {
  switch (phone) {
    case FleetPhone::kNexus: return device::nexus_profile();
    case FleetPhone::kHonor: return device::honor_profile();
    case FleetPhone::kLenovo: return device::lenovo_profile();
  }
  return device::nexus_profile();
}

std::unique_ptr<workload::WorkloadGenerator> make_generator(
    const PopulationSpec::WorkloadChoice& choice) {
  switch (choice.workload) {
    case FleetWorkload::kGeekbench: return workload::make_geekbench();
    case FleetWorkload::kPcmark: return workload::make_pcmark();
    case FleetWorkload::kVideo: return workload::make_video();
    case FleetWorkload::kLocalVideo: return workload::make_local_video();
    case FleetWorkload::kIdleScreenOn: return workload::make_idle_screen_on();
    case FleetWorkload::kEtaStatic:
      return workload::make_eta_static(choice.eta);
    case FleetWorkload::kScreenToggle:
      return workload::make_screen_toggle(choice.toggle_period);
  }
  return workload::make_video();
}

/// Weighted pick: walk the cumulative weights with one uniform draw.
/// validate() guarantees a positive total, so the walk always lands.
template <typename Choice>
const Choice& pick_weighted(const std::vector<Choice>& choices,
                            util::Rng& rng) {
  double total = 0.0;
  for (const auto& choice : choices) total += std::max(choice.weight, 0.0);
  double x = rng.uniform(0.0, total);
  for (const auto& choice : choices) {
    const double w = std::max(choice.weight, 0.0);
    if (x < w) return choice;
    x -= w;
  }
  return choices.back();
}

/// splitmix64 finalizer (the mixing half of the generator seeding
/// util::Rng): full-avalanche, so consecutive device ids land on
/// statistically independent seeds.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Domain-separation salts so the sampling stream, the trace/policy seed
// and the fault stream of one device never alias.
constexpr std::uint64_t kSampleSalt = 0xF1EE75A117ULL;
constexpr std::uint64_t kFaultSalt = 0xFA0175EEDULL;

/// Sketches reject negatives; fleet metrics are non-negative by
/// construction, but clamp defensively so a pathological run cannot
/// throw inside a worker thread.
double non_negative(double value) { return std::max(value, 0.0); }

void check_weighted(const char* field, std::size_t size, double max_weight,
                    double min_weight,
                    std::vector<std::string>& errors) {
  if (size == 0) {
    errors.emplace_back(std::string{field} + " must not be empty");
    return;
  }
  if (min_weight < 0.0) {
    errors.emplace_back(std::string{field} + " weights must be >= 0");
  }
  if (!(max_weight > 0.0)) {
    errors.emplace_back(std::string{field} +
                        " needs at least one positive weight");
  }
}

template <typename Choice>
void check_choices(const char* field, const std::vector<Choice>& choices,
                   std::vector<std::string>& errors) {
  double max_weight = 0.0;
  double min_weight = 0.0;
  for (const auto& choice : choices) {
    max_weight = std::max(max_weight, choice.weight);
    min_weight = std::min(min_weight, choice.weight);
  }
  check_weighted(field, choices.size(), max_weight, min_weight, errors);
}

}  // namespace

// ---------------------------------------------------------------------------
// Validation

std::vector<std::string> PopulationSpec::validate() const {
  std::vector<std::string> errors;
  auto require = [&errors](bool ok, const char* message) {
    if (!ok) errors.emplace_back(message);
  };
  check_choices("big_chemistries", big_chemistries, errors);
  check_choices("little_chemistries", little_chemistries, errors);
  check_choices("workloads", workloads, errors);
  check_choices("phones", phones, errors);
  require(big_capacity_mah_lo > 0.0, "big_capacity_mah_lo must be > 0");
  require(big_capacity_mah_hi >= big_capacity_mah_lo,
          "big_capacity_mah_hi must be >= big_capacity_mah_lo");
  require(little_capacity_mah_lo > 0.0,
          "little_capacity_mah_lo must be > 0");
  require(little_capacity_mah_hi >= little_capacity_mah_lo,
          "little_capacity_mah_hi must be >= little_capacity_mah_lo");
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto& choice = workloads[i];
    if (choice.eta < 0.0 || choice.eta > 1.0) {
      errors.push_back("workloads[" + std::to_string(i) +
                       "].eta must be in [0, 1]");
    }
    if (!(choice.toggle_period.value() > 0.0)) {
      errors.push_back("workloads[" + std::to_string(i) +
                       "].toggle_period must be > 0");
    }
  }
  require(ambient_lo.value() > -273.15,
          "ambient_lo must be above absolute zero");
  require(ambient_hi.value() >= ambient_lo.value(),
          "ambient_hi must be >= ambient_lo");
  require(trace_horizon.value() > 0.0, "trace_horizon must be > 0");
  require(fault_fraction >= 0.0 && fault_fraction <= 1.0,
          "fault_fraction must be in [0, 1]");
  util::append_errors(errors, "fault_template.", fault_template.validate());
  return errors;
}

std::vector<std::string> FleetCheckpointConfig::validate() const {
  std::vector<std::string> errors;
  if (every_shards == 0) {
    errors.emplace_back("every_shards must be > 0");
  }
  if (resume && directory.empty()) {
    errors.emplace_back("resume requires a checkpoint directory");
  }
  return errors;
}

std::vector<std::string> FleetConfig::validate() const {
  std::vector<std::string> errors;
  auto require = [&errors](bool ok, const char* message) {
    if (!ok) errors.emplace_back(message);
  };
  require(device_count > 0, "device_count must be > 0");
  if (shard_count != 0) {
    require(shard_count <= device_count,
            "shard_count must be <= device_count (0 = auto)");
    require(shard_count <= 4096, "shard_count must be <= 4096");
  }
  require(!policies.empty(), "policies must not be empty");
  bool repeated = false;
  for (std::size_t i = 0; i < policies.size() && !repeated; ++i) {
    for (std::size_t j = i + 1; j < policies.size(); ++j) {
      if (policies[i] == policies[j]) {
        repeated = true;
        break;
      }
    }
  }
  require(!repeated, "policies must not repeat a PolicyKind");
  require(sketch_relative_error > 0.0 && sketch_relative_error < 1.0,
          "sketch_relative_error must be in (0, 1)");
  require(!base.faults.enabled(),
          "base.faults must be inactive; sample fleet faults via "
          "population.fault_fraction and fault_template");
  util::append_errors(errors, "population.", population.validate());
  util::append_errors(errors, "base.", base.validate());
  util::append_errors(errors, "capman.", capman.validate());
  util::append_errors(errors, "health.", health.validate());
  require(health.alerts_path.empty(),
          "health.alerts_path must be empty for fleet runs (fleets "
          "aggregate alert counts, they do not write per-device files)");
  util::append_errors(errors, "checkpoint.", checkpoint.validate());
  if (recorder.enabled) {
    util::append_errors(errors, "recorder.", recorder.validate());
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Aggregates

void PolicyAggregate::add(const SimResult& result, bool faulty) {
  ++devices;
  if (result.died_of_brownout) ++brownouts;
  if (result.truncated) ++truncated;
  switch_total += result.switch_count;
  if (faulty) ++faulty_devices;
  fault_fallbacks += result.faults.fallback_episodes;
  fault_dropped_requests += result.faults.dropped_requests;
  lifetime_us +=
      util::quantize_microseconds(util::Seconds{result.service_time_s});
  max_temp_mc +=
      util::quantize_millicelsius(util::Celsius{result.max_cpu_temp_c});
  energy_delivered_mj +=
      util::quantize_millijoules(util::Joules{result.energy_delivered_j});
  health_evaluations += result.health.evaluations;
  for (std::size_t i = 0; i < health_alerts.size(); ++i) {
    health_alerts[i] += result.health.alerts[i];
  }
  lifetime_s_sketch.observe(non_negative(result.service_time_s));
  max_temp_c_sketch.observe(non_negative(result.max_cpu_temp_c));
  switches_sketch.observe(static_cast<double>(result.switch_count));
}

void PolicyAggregate::merge(const PolicyAggregate& other) {
  devices += other.devices;
  brownouts += other.brownouts;
  truncated += other.truncated;
  switch_total += other.switch_total;
  faulty_devices += other.faulty_devices;
  fault_fallbacks += other.fault_fallbacks;
  fault_dropped_requests += other.fault_dropped_requests;
  quarantined += other.quarantined;
  lifetime_us += other.lifetime_us;
  max_temp_mc += other.max_temp_mc;
  energy_delivered_mj += other.energy_delivered_mj;
  health_evaluations += other.health_evaluations;
  for (std::size_t i = 0; i < health_alerts.size(); ++i) {
    health_alerts[i] += other.health_alerts[i];
  }
  lifetime_s_sketch.merge(other.lifetime_s_sketch);
  max_temp_c_sketch.merge(other.max_temp_c_sketch);
  switches_sketch.merge(other.switches_sketch);
}

std::uint64_t PolicyAggregate::health_alert_total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : health_alerts) total += n;
  return total;
}

double PolicyAggregate::mean_lifetime_s() const {
  if (devices == 0) return 0.0;
  // capman-lint: allow(raw-unit, mean reporting scales the exact fold)
  return static_cast<double>(lifetime_us.raw()) / 1e6 /
         static_cast<double>(devices);
}

double PolicyAggregate::mean_max_temp_c() const {
  if (devices == 0) return 0.0;
  // capman-lint: allow(raw-unit, mean reporting scales the exact fold)
  return static_cast<double>(max_temp_mc.raw()) / 1e3 /
         static_cast<double>(devices);
}

double PolicyAggregate::mean_energy_j() const {
  if (devices == 0) return 0.0;
  // capman-lint: allow(raw-unit, mean reporting scales the exact fold)
  return static_cast<double>(energy_delivered_mj.raw()) / 1e3 /
         static_cast<double>(devices);
}

double PolicyAggregate::mean_switches() const {
  return devices > 0 ? static_cast<double>(switch_total) /
                           static_cast<double>(devices)
                     : 0.0;
}

double PolicyAggregate::brownout_fraction() const {
  return devices > 0 ? static_cast<double>(brownouts) /
                           static_cast<double>(devices)
                     : 0.0;
}

const PolicyAggregate* FleetResult::find(PolicyKind kind) const {
  for (const auto& aggregate : policies) {
    if (aggregate.kind == kind) return &aggregate;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// FleetRunner

FleetRunner::FleetRunner(FleetConfig config) : config_(std::move(config)) {
  util::throw_if_invalid("FleetConfig", config_.validate());
  shards_ = util::resolve_shard_count(config_.shard_count,
                                      config_.device_count);
  threads_ = util::resolve_thread_count(config_.threads);
}

std::uint64_t FleetRunner::device_seed(std::uint64_t fleet_seed,
                                       std::uint64_t device_id) {
  return mix64(fleet_seed ^ mix64(device_id));
}

DeviceSpec FleetRunner::sample_device(const PopulationSpec& spec,
                                      std::uint64_t fleet_seed,
                                      std::uint64_t device_id) {
  DeviceSpec device;
  device.device_id = device_id;
  device.seed = device_seed(fleet_seed, device_id);
  device.fault_seed = mix64(device.seed ^ kFaultSalt);
  // One dedicated sampling stream per device, domain-separated from the
  // trace/policy seed. Draw order is part of the determinism contract:
  // phone, big chemistry, big capacity, little chemistry, little
  // capacity, workload, ambient, fault coin.
  util::Rng rng{mix64(device.seed ^ kSampleSalt)};
  device.phone = pick_weighted(spec.phones, rng).phone;
  device.big_chemistry = pick_weighted(spec.big_chemistries, rng).chemistry;
  device.big_capacity_mah =
      rng.uniform(spec.big_capacity_mah_lo, spec.big_capacity_mah_hi);
  device.little_chemistry =
      pick_weighted(spec.little_chemistries, rng).chemistry;
  device.little_capacity_mah =
      rng.uniform(spec.little_capacity_mah_lo, spec.little_capacity_mah_hi);
  device.workload = pick_weighted(spec.workloads, rng);
  device.ambient =
      util::Celsius{rng.uniform(spec.ambient_lo.value(),
                                spec.ambient_hi.value())};
  device.faulty = spec.fault_fraction > 0.0 && rng.chance(spec.fault_fraction);
  return device;
}

namespace {

/// Worker-private accumulation for one shard; merged in shard order.
struct ShardState {
  std::vector<PolicyAggregate> policies;
  std::uint64_t engine_steps = 0;
  std::uint64_t quarantine_retries = 0;
  // Quarantined (device id, reason) pairs, replayed into the fleet
  // flight recorder on the calling thread after the parallel phase.
  std::vector<std::pair<std::uint64_t, std::string>> quarantine_log;
};

/// Snapshot one completed shard's reduction state for serialization.
ShardCheckpoint to_checkpoint(std::size_t shard, const util::ShardRange& range,
                              const ShardState& state) {
  ShardCheckpoint out;
  out.shard = shard;
  out.device_begin = range.begin;
  out.device_end = range.end;
  out.engine_steps = state.engine_steps;
  out.quarantine_retries = state.quarantine_retries;
  out.policies = state.policies;
  return out;
}

/// Completion bookkeeping shared by every worker: which shards are done,
/// when to write a checkpoint, and when to inject the test crash. One
/// mutex serializes all of it — completion is O(shards), not O(devices),
/// so contention is irrelevant next to the simulation work.
class ShardSupervisor {
 public:
  ShardSupervisor(std::size_t shards, std::size_t every,
                  std::size_t crash_after, CheckpointWriter* writer)
      : every_(std::max<std::size_t>(every, 1)),
        crash_after_(crash_after),
        writer_(writer),
        done_(shards, 0) {}

  /// Pre-parallel (main thread): mark a shard restored from checkpoint.
  void mark_resumed(std::size_t shard) {
    util::MutexLock lock{mutex_};
    done_[shard] = 1;
  }

  /// Worker-side: `shard`'s state is final. The mutex acquire here pairs
  /// with the release of the completing worker, so write_locked reads
  /// every done shard's state with a happens-before edge. May SIGKILL
  /// the process (crash injection; checkpoint cadence runs first so the
  /// injected crash always leaves a resumable file behind).
  void complete(std::size_t shard, const std::vector<ShardState>& states,
                const util::ShardPlan& plan) {
    util::MutexLock lock{mutex_};
    done_[shard] = 1;
    ++completed_;
    ++since_write_;
    if (writer_ != nullptr && since_write_ >= every_) {
      write_locked(states, plan);
      since_write_ = 0;
    }
    if (crash_after_ != 0 && completed_ >= crash_after_) {
      std::raise(SIGKILL);
    }
  }

  /// Post-parallel (main thread): the final whole-fleet checkpoint.
  void finalize(const std::vector<ShardState>& states,
                const util::ShardPlan& plan) {
    util::MutexLock lock{mutex_};
    if (writer_ != nullptr) {
      write_locked(states, plan);
    }
  }

  /// Shards persisted by each checkpoint write, in write order (flight-
  /// recorder replay). Post-parallel only.
  [[nodiscard]] std::vector<std::size_t> write_log() {
    util::MutexLock lock{mutex_};
    return write_log_;
  }

 private:
  void write_locked(const std::vector<ShardState>& states,
                    const util::ShardPlan& plan) CAPMAN_REQUIRES(mutex_) {
    std::vector<ShardCheckpoint> shards;
    for (std::size_t shard = 0; shard < done_.size(); ++shard) {
      if (done_[shard] != 0) {
        shards.push_back(to_checkpoint(shard, plan.range(shard),
                                       states[shard]));
      }
    }
    writer_->write(shards);
    write_log_.push_back(shards.size());
  }

  const std::size_t every_;
  const std::size_t crash_after_;
  CheckpointWriter* const writer_;  // nullptr = checkpointing disabled
  util::Mutex mutex_;
  std::vector<char> done_ CAPMAN_GUARDED_BY(mutex_);
  std::size_t completed_ CAPMAN_GUARDED_BY(mutex_) = 0;  // this process
  std::size_t since_write_ CAPMAN_GUARDED_BY(mutex_) = 0;
  std::vector<std::size_t> write_log_ CAPMAN_GUARDED_BY(mutex_);
};

PolicyAggregate make_aggregate(PolicyKind kind, double relative_error) {
  PolicyAggregate aggregate;
  aggregate.kind = kind;
  aggregate.lifetime_s_sketch = obs::QuantileSketch{relative_error};
  aggregate.max_temp_c_sketch = obs::QuantileSketch{relative_error};
  aggregate.switches_sketch = obs::QuantileSketch{relative_error};
  return aggregate;
}

std::string shard_instrument(std::size_t shard, const char* suffix) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "fleet/shard/%04zu/%s", shard,
                suffix);
  return buffer;
}

void publish_sketch(obs::MetricsRegistry& registry, const std::string& prefix,
                    const obs::QuantileSketch& sketch) {
  registry.gauge(prefix + "/p50").set(sketch.quantile(0.50));
  registry.gauge(prefix + "/p90").set(sketch.quantile(0.90));
  registry.gauge(prefix + "/p99").set(sketch.quantile(0.99));
  registry.gauge(prefix + "/min").set(sketch.min());
  registry.gauge(prefix + "/max").set(sketch.max());
}

/// Serialise the merged aggregates into the fleet/* instruments. Runs on
/// the calling thread after the parallel phase, so registration order —
/// and therefore the snapshot — is deterministic.
void publish_fleet(obs::MetricsRegistry& registry, const FleetResult& result) {
  registry.counter("fleet/devices").add(result.device_count);
  registry.counter("fleet/shards").add(result.shard_count);
  registry.counter("fleet/steps").add(result.total_engine_steps);
  for (const auto& aggregate : result.policies) {
    const std::string prefix = std::string{"fleet/"} + to_string(aggregate.kind);
    registry.counter(prefix + "/devices").add(aggregate.devices);
    registry.counter(prefix + "/brownouts").add(aggregate.brownouts);
    registry.counter(prefix + "/truncated").add(aggregate.truncated);
    registry.counter(prefix + "/switches").add(aggregate.switch_total);
    registry.counter(prefix + "/faulty_devices").add(aggregate.faulty_devices);
    registry.counter(prefix + "/fault_fallbacks")
        .add(aggregate.fault_fallbacks);
    registry.counter(prefix + "/fault_dropped_requests")
        .add(aggregate.fault_dropped_requests);
    registry.counter(prefix + "/quarantined").add(aggregate.quarantined);
    registry.gauge(prefix + "/lifetime_s/mean").set(aggregate.mean_lifetime_s());
    publish_sketch(registry, prefix + "/lifetime_s",
                   aggregate.lifetime_s_sketch);
    registry.gauge(prefix + "/max_temp_c/mean")
        .set(aggregate.mean_max_temp_c());
    publish_sketch(registry, prefix + "/max_temp_c",
                   aggregate.max_temp_c_sketch);
    registry.gauge(prefix + "/switches/mean").set(aggregate.mean_switches());
    publish_sketch(registry, prefix + "/switches", aggregate.switches_sketch);
    registry.gauge(prefix + "/energy_j/mean").set(aggregate.mean_energy_j());
    registry.gauge(prefix + "/brownout_fraction")
        .set(aggregate.brownout_fraction());
    // Health counters appear only when the fleet ran with monitoring, so
    // default-config snapshots stay bit-identical to pre-health builds.
    if (result.health_enabled) {
      registry.counter(prefix + "/health_evaluations")
          .add(aggregate.health_evaluations);
      registry.counter(prefix + "/alerts_total")
          .add(aggregate.health_alert_total());
      for (std::size_t i = 0; i < aggregate.health_alerts.size(); ++i) {
        registry
            .counter(prefix + "/alerts/" +
                     obs::to_string(static_cast<obs::HealthRule>(i)))
            .add(aggregate.health_alerts[i]);
      }
    }
  }
  for (const auto& shard : result.shards) {
    registry.counter(shard_instrument(shard.shard, "devices"))
        .add(shard.device_end - shard.device_begin);
    registry.counter(shard_instrument(shard.shard, "steps"))
        .add(shard.engine_steps);
    // Quarantine counters appear only where the supervisor actually
    // skipped devices, so healthy fleets keep their lean shard rows.
    // Deterministic: skips are a pure function of the config (the poison
    // hook) or of genuinely broken simulations.
    if (shard.quarantined_devices > 0) {
      registry.counter(shard_instrument(shard.shard, "quarantined"))
          .add(shard.quarantined_devices);
    }
    if (shard.quarantine_retries > 0) {
      registry.counter(shard_instrument(shard.shard, "quarantine_retries"))
          .add(shard.quarantine_retries);
    }
  }
  // Only resume-invariant checkpoint facts may land in the snapshot: a
  // resumed run must stay byte-identical to an uninterrupted one (the
  // crash-resume gate cmp's the two --json outputs). Operational numbers
  // (writes, restored shards) live in FleetCheckpointStats instead.
  if (result.checkpoint.enabled) {
    registry.counter("checkpoint/enabled").add(1);
    registry.counter("checkpoint/every_shards")
        .add(result.checkpoint.every_shards);
  }
}

}  // namespace

FleetResult FleetRunner::run() const {
  const util::ShardPlan plan{config_.device_count, shards_};

  std::vector<ShardState> states(shards_);
  for (auto& state : states) {
    state.policies.reserve(config_.policies.size());
    for (PolicyKind kind : config_.policies) {
      state.policies.push_back(
          make_aggregate(kind, config_.sketch_relative_error));
    }
  }

  // Durability setup. The fingerprint binds any checkpoint to this exact
  // result identity; the writer (when a directory is configured) rewrites
  // <directory>/fleet.ckpt atomically on every cadence tick.
  FleetCheckpointStats ckstats;
  const bool checkpointing = !config_.checkpoint.directory.empty();
  ckstats.enabled = checkpointing;
  ckstats.every_shards = config_.checkpoint.every_shards;
  std::uint64_t fingerprint = 0;
  std::optional<CheckpointWriter> writer;
  std::string checkpoint_path;
  if (checkpointing) {
    fingerprint = checkpoint_fingerprint(config_, shards_);
    checkpoint_path = config_.checkpoint.directory + "/fleet.ckpt";
    CheckpointHeader header;
    header.fingerprint = fingerprint;
    header.device_count = config_.device_count;
    header.shard_count = shards_;
    header.seed = config_.seed;
    header.policies = config_.policies;
    header.sketch_relative_error = config_.sketch_relative_error;
    writer.emplace(checkpoint_path, header);
  }

  // Resume: restore every completed shard bit-for-bit and skip it in the
  // parallel phase. A missing or headerless file is a cold start; a
  // fingerprint mismatch is a refusal — silently resuming someone else's
  // campaign would corrupt both.
  std::vector<char> resumed(shards_, 0);
  if (checkpointing && config_.checkpoint.resume) {
    if (auto load = CheckpointReader::load(checkpoint_path)) {
      if (load->header.fingerprint != fingerprint) {
        throw std::runtime_error(
            "checkpoint '" + checkpoint_path +
            "' was written by a different fleet configuration "
            "(fingerprint mismatch); refusing to resume");
      }
      for (auto& shard : load->shards) {
        const auto index = static_cast<std::size_t>(shard.shard);
        const util::ShardRange range = plan.range(index);
        // The fingerprint pins the shard plan, so ranges always match; a
        // frame that still disagrees is treated as invalid, not fatal.
        if (shard.device_begin != range.begin ||
            shard.device_end != range.end) {
          continue;
        }
        states[index].policies = std::move(shard.policies);
        states[index].engine_steps = shard.engine_steps;
        states[index].quarantine_retries = shard.quarantine_retries;
        resumed[index] = 1;
        ++ckstats.resumed_shards;
      }
      ckstats.resumed = ckstats.resumed_shards > 0;
      ckstats.frames_discarded = load->frames_discarded;
    }
  }

  ShardSupervisor supervisor{shards_, config_.checkpoint.every_shards,
                             config_.crash_after_shards,
                             writer ? &*writer : nullptr};
  for (std::size_t shard = 0; shard < shards_; ++shard) {
    if (resumed[shard] != 0) supervisor.mark_resumed(shard);
  }

  // Every device already runs on a fleet worker, so Algorithm 1 must not
  // fan out again underneath it: auto similarity threads resolve to one.
  // Results are bit-identical for every thread count (core/similarity.h).
  core::CapmanConfig capman = config_.capman;
  if (capman.similarity_threads == 0) capman.similarity_threads = 1;

  // The per-device loop. Every input below is a pure function of
  // (config, device id); workers touch only the shard states they own.
  auto run_device = [this, &capman](std::uint64_t device_id,
                                    bool first_attempt) {
    const DeviceSpec spec =
        sample_device(config_.population, config_.seed, device_id);

    // Supervision test hook: poisoned devices throw here (transient
    // poison only on the first attempt, so the bounded retry succeeds).
    if (!config_.poison_devices.empty() &&
        std::find(config_.poison_devices.begin(),
                  config_.poison_devices.end(),
                  device_id) != config_.poison_devices.end() &&
        (first_attempt || !config_.poison_transient)) {
      throw std::runtime_error("poisoned device " +
                               std::to_string(device_id));
    }

    SimConfig device_config = config_.base;
    // Fleets aggregate, they do not trace: per-device series and file
    // sinks would be O(devices) memory and I/O, so both are forced off.
    // Health monitoring survives the reset (alert counts reduce to O(1)
    // integers per shard), minus any file sink.
    device_config.record_series = false;
    device_config.telemetry = obs::TelemetryConfig{};
    device_config.telemetry.health = config_.health;
    device_config.telemetry.health.alerts_path.clear();
    device_config.pack_config.big_chemistry = spec.big_chemistry;
    device_config.pack_config.big_capacity_mah = spec.big_capacity_mah;
    device_config.pack_config.little_chemistry = spec.little_chemistry;
    device_config.pack_config.little_capacity_mah = spec.little_capacity_mah;
    // The Practice phone carries the same total capacity in one stock
    // cell, so the single-pack baseline stays comparable per device.
    device_config.practice_capacity_mah =
        spec.big_capacity_mah + spec.little_capacity_mah;
    device_config.thermal_config.ambient = spec.ambient;
    device_config.faults = FaultPlanConfig{};
    if (spec.faulty) {
      device_config.faults = config_.population.fault_template;
      device_config.faults.seed = spec.fault_seed;
    }

    device::PhoneModel phone{profile_for(spec.phone)};
    const workload::Trace trace =
        make_generator(spec.workload)
            ->generate(config_.population.trace_horizon, spec.seed);

    const ExperimentRunner runner{
        std::move(phone),
        {device_config, spec.seed, std::nullopt, capman}};
    std::vector<SimResult> results;
    results.reserve(config_.policies.size());
    for (const PolicyKind kind : config_.policies) {
      results.push_back(runner.run(trace, kind));
    }
    return std::make_pair(spec.faulty, std::move(results));
  };

  // Record one failed attempt; returns true when the device should be
  // retried, false once it is quarantined.
  auto note_failure = [this](ShardState& state, std::uint64_t device_id,
                             std::size_t attempt, const char* what) {
    if (attempt < config_.quarantine_retries) {
      ++state.quarantine_retries;
      return true;
    }
    for (auto& aggregate : state.policies) ++aggregate.quarantined;
    state.quarantine_log.emplace_back(device_id, std::string{what});
    return false;
  };

  // The supervision boundary: nothing is folded into the shard state
  // until every policy of the device succeeded, so a retried device is
  // never half-counted. A device that keeps throwing is quarantined —
  // skipped and counted — instead of killing the campaign.
  auto run_supervised = [&](std::uint64_t device_id, ShardState& state) {
    for (std::size_t attempt = 0;; ++attempt) {
      try {
        const auto [faulty, results] = run_device(device_id, attempt == 0);
        for (std::size_t i = 0; i < results.size(); ++i) {
          state.policies[i].add(results[i], faulty);
          state.engine_steps += results[i].metrics.counter_or("engine/steps");
        }
        return;
      } catch (const std::exception& error) {
        if (!note_failure(state, device_id, attempt, error.what())) return;
      } catch (...) {
        if (!note_failure(state, device_id, attempt, "unknown exception")) {
          return;
        }
      }
    }
  };

  util::ThreadPool pool{threads_};
  pool.parallel_for(shards_, [&](std::size_t begin, std::size_t end,
                                 std::size_t /*worker*/) {
    for (std::size_t shard = begin; shard < end; ++shard) {
      if (resumed[shard] != 0) continue;  // restored from checkpoint
      const util::ShardRange range = plan.range(shard);
      for (std::size_t device = range.begin; device < range.end; ++device) {
        run_supervised(device, states[shard]);
      }
      supervisor.complete(shard, states, plan);
    }
  });

  // One final whole-fleet checkpoint: resuming a finished campaign is a
  // no-op that reproduces the same result.
  supervisor.finalize(states, plan);
  if (writer) {
    ckstats.writes = writer->writes();
    ckstats.bytes_last_write = writer->bytes_last_write();
  }

  FleetResult result;
  result.device_count = config_.device_count;
  result.shard_count = shards_;
  result.threads = threads_;
  result.seed = config_.seed;
  result.health_enabled = config_.health.enabled;
  result.policies.reserve(config_.policies.size());
  for (PolicyKind kind : config_.policies) {
    result.policies.push_back(
        make_aggregate(kind, config_.sketch_relative_error));
  }
  result.shards.reserve(shards_);
  // Left-fold in shard-index order: with contiguous shard ranges this is
  // exactly the device order 0..N-1, the anchor of the cross-shard-count
  // bit-identity contract.
  for (std::size_t shard = 0; shard < shards_; ++shard) {
    const util::ShardRange range = plan.range(shard);
    for (std::size_t i = 0; i < result.policies.size(); ++i) {
      result.policies[i].merge(states[shard].policies[i]);
    }
    // All policies of a quarantined device count it once, so the first
    // policy's counter is the shard's device-level skip count.
    const std::uint64_t shard_quarantined =
        states[shard].policies.front().quarantined;
    result.shards.push_back({shard, range.begin, range.end,
                             states[shard].engine_steps, shard_quarantined,
                             states[shard].quarantine_retries});
    result.total_engine_steps += states[shard].engine_steps;
    result.quarantined_devices += shard_quarantined;
    result.quarantine_retries += states[shard].quarantine_retries;
  }
  result.checkpoint = ckstats;

  obs::MetricsRegistry registry;
  publish_fleet(registry, result);
  result.metrics = registry.snapshot();

  // Fleet-operations flight recorder: replayed here, on the calling
  // thread, in deterministic order (load, quarantines in shard order,
  // checkpoint writes in write order, final). The logical clock t_s
  // counts events — fleet operations have no single simulation time.
  if (config_.recorder.enabled) {
    obs::FlightRecorder recorder{config_.recorder};
    double t = 0.0;
    if (ckstats.resumed) {
      recorder.record(t++, obs::FlightEventKind::kCheckpoint, "load",
                      "path=" + checkpoint_path,
                      static_cast<double>(ckstats.resumed_shards));
    }
    for (std::size_t shard = 0; shard < shards_; ++shard) {
      for (const auto& [device_id, reason] : states[shard].quarantine_log) {
        recorder.record(t++, obs::FlightEventKind::kEngine, "quarantine",
                        "shard=" + std::to_string(shard) +
                            " reason=" + reason,
                        static_cast<double>(device_id));
      }
    }
    for (const std::size_t persisted : supervisor.write_log()) {
      recorder.record(t++, obs::FlightEventKind::kCheckpoint, "write",
                      "path=" + checkpoint_path,
                      static_cast<double>(persisted));
    }
    if (writer) {
      recorder.record(t++, obs::FlightEventKind::kCheckpoint, "final",
                      "path=" + checkpoint_path,
                      static_cast<double>(shards_));
    }
    if (config_.recorder.dump_at_end || result.quarantined_devices > 0) {
      recorder.trigger(t, "fleet-end");
    }
  }
  return result;
}

}  // namespace capman::sim
