// Fleet-scale simulation: one process, a population of heterogeneous
// simulated devices.
//
// FleetRunner promotes the per-device ExperimentRunner to population
// scale: it samples `device_count` device instances deterministically
// from a seeded PopulationSpec (battery chemistries and capacities,
// workload mixes, phone profiles, ambient temperatures, an optional fault
// plan for a fraction of the fleet), partitions them into fixed
// contiguous shards (util::ShardPlan), lets the workers of a
// util::ThreadPool claim shards until none are left, and
// reduces every device's discharge cycle into per-shard aggregates —
// counters, quantized sums and obs::QuantileSketch percentiles — instead
// of per-device traces.
//
// Determinism contract (tests/sim/fleet_test.cpp pins all of it):
//  * every device is sampled from a seed derived only from
//    (FleetConfig::seed, device_id) — never from thread or shard layout;
//  * the device → shard assignment is the fixed contiguous ShardPlan
//    formula, so shard contents depend only on (device_count,
//    shard_count);
//  * each shard runs exactly once, on whichever worker claims it, and
//    writes only its own shard state; shard aggregates are merged on the
//    calling thread in shard-index order;
//  * aggregate sums are quantized to fixed integer resolution (µs, m°C,
//    mJ) and sketch merges are integer bucket additions, so the merged
//    result is bit-identical across thread counts AND shard counts.
//
// Memory stays flat per device: device state (engine, pack, trace) is
// transient inside the shard loop, and each shard keeps O(sketch buckets)
// of aggregate state. Per-device series capture and telemetry file sinks
// are force-disabled (see FleetRunner::run). Operator guide:
// docs/FLEET.md; scaling study: bench/bench_fleet_scaling.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <array>

#include "battery/chemistry.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/sketch.h"
#include "sim/experiment.h"
#include "util/units.h"

namespace capman::sim {

/// Phone profile choices for population sampling (device/phone.h).
enum class FleetPhone { kNexus, kHonor, kLenovo };
const char* to_string(FleetPhone phone);

/// Workload-generator choices for population sampling (the paper suite
/// plus the motivation workloads; workload/generators.h).
enum class FleetWorkload {
  kGeekbench,
  kPcmark,
  kVideo,
  kLocalVideo,
  kIdleScreenOn,
  kEtaStatic,
  kScreenToggle,
};
const char* to_string(FleetWorkload workload);

/// The sampling model one fleet draws its devices from. Every weighted
/// choice and every range below is sampled per device from the device's
/// own seed (FleetRunner::device_seed), so a device's identity is a pure
/// function of (fleet seed, device id).
struct PopulationSpec {
  struct ChemistryChoice {
    battery::Chemistry chemistry = battery::Chemistry::kNCA;
    double weight = 1.0;
  };
  struct WorkloadChoice {
    FleetWorkload workload = FleetWorkload::kVideo;
    double weight = 1.0;
    // Extra knobs for the parameterized generators; ignored by the rest.
    double eta = 0.5;                       // kEtaStatic mix fraction
    util::Seconds toggle_period{60.0};      // kScreenToggle period
  };
  struct PhoneChoice {
    FleetPhone phone = FleetPhone::kNexus;
    double weight = 1.0;
  };

  // Cell chemistry and labeled capacity of each pack side. Defaults match
  // the paper's prototype neighborhood with mild heterogeneity.
  std::vector<ChemistryChoice> big_chemistries{
      {battery::Chemistry::kNCA, 3.0}, {battery::Chemistry::kNMC, 1.0}};
  std::vector<ChemistryChoice> little_chemistries{
      {battery::Chemistry::kLMO, 3.0}, {battery::Chemistry::kLTO, 1.0}};
  double big_capacity_mah_lo = 1400.0;
  double big_capacity_mah_hi = 2000.0;
  double little_capacity_mah_lo = 600.0;
  double little_capacity_mah_hi = 1000.0;

  // What each device runs: a weighted workload mix, a phone profile and
  // an ambient temperature band. The generated trace spans trace_horizon
  // (the engine loops it until the pack dies or base.max_duration hits).
  std::vector<WorkloadChoice> workloads{
      {FleetWorkload::kVideo, 2.0},
      {FleetWorkload::kPcmark, 1.0},
      {FleetWorkload::kEtaStatic, 1.0, 0.5}};
  std::vector<PhoneChoice> phones{{FleetPhone::kNexus, 2.0},
                                  {FleetPhone::kHonor, 1.0},
                                  {FleetPhone::kLenovo, 1.0}};
  util::Celsius ambient_lo{22.0};
  util::Celsius ambient_hi{32.0};
  util::Seconds trace_horizon{600.0};

  // Fault plan for a fraction of the fleet: each device independently
  // becomes faulty with probability fault_fraction and then runs
  // fault_template under a device-derived fault seed (the template's own
  // seed field is overridden).
  double fault_fraction = 0.0;
  FaultPlanConfig fault_template{};

  /// Human-readable configuration errors; empty means valid. Aggregated
  /// by FleetConfig::validate() under "population.".
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Crash-safe durability knobs (sim/checkpoint.h). Disabled unless a
/// directory is set; the checkpoint file is `<directory>/fleet.ckpt`,
/// rewritten atomically (util::AtomicFile) every `every_shards` completed
/// shards and once more after the run. `resume` restores completed shards
/// from an existing file — refusing one whose config fingerprint
/// disagrees — and re-runs only the rest; a missing or headerless file is
/// a cold start, never an error.
struct FleetCheckpointConfig {
  std::string directory;          // empty = checkpointing disabled
  std::size_t every_shards = 8;   // write cadence, in completed shards
  bool resume = false;            // restore from an existing checkpoint

  /// Human-readable configuration errors; empty means valid. Aggregated
  /// by FleetConfig::validate() under "checkpoint.".
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Everything a FleetRunner needs. The nested base SimConfig supplies the
/// per-device engine parameters (dt, death grace, thermal stack, ...);
/// the population spec supplies what varies per device.
struct FleetConfig {
  std::size_t device_count = 1000;
  // Fixed device → shard assignment; 0 = auto
  // (util::resolve_shard_count: min(device_count, 64)). Results are
  // bit-identical across shard counts; the knob only trades scheduling
  // granularity against per-shard telemetry volume.
  std::size_t shard_count = 0;
  // Worker threads batching the shards; 0 = auto (hardware concurrency).
  // Never affects results, only wall clock.
  std::size_t threads = 0;
  std::uint64_t seed = 42;

  // Policies raced on every device (each device runs one discharge cycle
  // per kind on its own trace). CAPMAN is legal but costs a per-device
  // learning loop; the cheap baselines are the fleet-scale default.
  std::vector<PolicyKind> policies{PolicyKind::kDual, PolicyKind::kHeuristic};

  PopulationSpec population{};
  SimConfig base{};            // per-device engine parameters
  // Learning knobs for PolicyKind::kCapman. Devices already run on the
  // fleet's workers, so similarity_threads == 0 (auto) resolves to 1 per
  // device instead of a one-thread-per-core pool nested in every worker;
  // an explicit count is kept. Never affects results, only wall clock.
  core::CapmanConfig capman{};
  // Relative-error bound of the per-policy percentile sketches.
  double sketch_relative_error = 0.01;

  // Per-device health monitoring (obs/health.h). When enabled, every
  // device runs a HealthMonitor and the per-rule alert counts are reduced
  // into the policy aggregates (exact integer adds merged in shard order,
  // so fleet alert counts are bit-identical across thread AND shard
  // counts). alerts_path must stay empty — fleets aggregate, they do not
  // trace (per-device files would be O(devices) I/O).
  obs::HealthConfig health{};

  // Crash-safe durability (sim/checkpoint.h): see FleetCheckpointConfig.
  FleetCheckpointConfig checkpoint{};

  // Supervision: a device whose simulation throws is retried up to this
  // many extra times, then quarantined (skipped, counted under
  // fleet/<policy>/quarantined) instead of killing the campaign.
  std::size_t quarantine_retries = 1;

  // Crash-injection test hook: after this many shards complete in this
  // process, the runner raises SIGKILL — the crash the checkpoint layer
  // must survive. 0 = never. capman_fleet --crash-after N sets it, so
  // shell gates can inject crashes into stock binaries
  // (scripts/check_crash_resume.sh).
  std::size_t crash_after_shards = 0;

  // Supervision test hooks: these device ids throw from inside the
  // per-device simulation. With poison_transient set they throw only on
  // the first attempt (the retry succeeds); otherwise every attempt
  // throws and the device is quarantined. Deterministic by construction.
  std::vector<std::uint64_t> poison_devices;
  bool poison_transient = false;

  // Fleet-operations flight recorder: checkpoint writes/loads and
  // quarantine events, dumped as JSONL (same schema as the per-device
  // recorder; scripts/check_trace_schema.py validates it). Never affects
  // results — events are buffered by workers and replayed on the calling
  // thread in deterministic order after the parallel phase.
  obs::FlightRecorderConfig recorder{};

  /// Human-readable configuration errors; empty means the config is
  /// valid. Aggregates the nested population ("population." prefix),
  /// base SimConfig ("base." prefix) and capman ("capman." prefix)
  /// checks, and additionally rejects base fault plans (fleet faults are
  /// sampled via population.fault_fraction / fault_template).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// One sampled device instance — the resolved identity of device
/// `device_id` under a (spec, fleet seed) pair. Exposed so tests and CLI
/// tools can inspect exactly what the fleet will run.
struct DeviceSpec {
  std::uint64_t device_id = 0;
  std::uint64_t seed = 0;  // drives trace generation and policy RNG
  FleetPhone phone = FleetPhone::kNexus;
  battery::Chemistry big_chemistry = battery::Chemistry::kNCA;
  battery::Chemistry little_chemistry = battery::Chemistry::kLMO;
  double big_capacity_mah = 0.0;
  double little_capacity_mah = 0.0;
  PopulationSpec::WorkloadChoice workload{};
  util::Celsius ambient{26.0};
  bool faulty = false;
  std::uint64_t fault_seed = 0;  // meaningful only when faulty
};

/// Population-level reduction of every run of one PolicyKind: counters,
/// fixed-resolution quantized sums and percentile sketches. Merging two
/// aggregates is exact (integer adds + sketch bucket adds), which is what
/// makes fleet results independent of shard/thread layout.
struct PolicyAggregate {
  PolicyKind kind = PolicyKind::kDual;

  std::uint64_t devices = 0;
  std::uint64_t brownouts = 0;       // died of sustained unmet demand
  std::uint64_t truncated = 0;       // hit base.max_duration alive
  std::uint64_t switch_total = 0;
  std::uint64_t faulty_devices = 0;
  std::uint64_t fault_fallbacks = 0; // DegradationGuard fallback episodes
  std::uint64_t fault_dropped_requests = 0;
  // Devices whose simulation kept throwing after bounded retry and were
  // skipped by the supervisor (device-level: every policy of a
  // quarantined device counts it once).
  std::uint64_t quarantined = 0;

  // Quantized sums (exact integer folds; see the header comment). The
  // strong types carry the integer representation: util::MicroSeconds /
  // util::MilliCelsius / util::Millijoules only add to themselves, so a
  // µs/mJ cross-fold no longer compiles.
  util::MicroSeconds lifetime_us;          // service time
  util::MilliCelsius max_temp_mc;          // per-device max hotspot sum
  util::Millijoules energy_delivered_mj;   // delivered energy

  // Health-watchdog reduction (all zero unless FleetConfig::health is
  // enabled): per-rule alert counts summed over the population, exact
  // integer folds like the quantized sums above.
  std::uint64_t health_evaluations = 0;
  std::array<std::uint64_t, obs::kHealthRuleCount> health_alerts{};

  obs::QuantileSketch lifetime_s_sketch;   // seconds
  obs::QuantileSketch max_temp_c_sketch;   // per-device max hotspot, °C
  obs::QuantileSketch switches_sketch;     // switch count per device

  /// Fold one device run in (quantize + observe).
  void add(const SimResult& result, bool faulty);
  /// Fold another aggregate in (exact; commutative and associative).
  void merge(const PolicyAggregate& other);

  /// Total alerts across every rule.
  [[nodiscard]] std::uint64_t health_alert_total() const;

  // Derived means over the quantized sums (0 when no devices).
  [[nodiscard]] double mean_lifetime_s() const;
  [[nodiscard]] double mean_max_temp_c() const;
  [[nodiscard]] double mean_energy_j() const;
  [[nodiscard]] double mean_switches() const;
  [[nodiscard]] double brownout_fraction() const;
};

/// Per-shard accounting kept alongside the policy aggregates (mirrors the
/// fleet/shard/* registry counters).
struct ShardSummary {
  std::size_t shard = 0;
  std::size_t device_begin = 0;  // contiguous ShardPlan range
  std::size_t device_end = 0;
  std::uint64_t engine_steps = 0;
  std::uint64_t quarantined_devices = 0;  // supervisor skips in this shard
  std::uint64_t quarantine_retries = 0;   // extra attempts made
};

/// Process-local durability accounting for one run. Deliberately kept
/// out of the metrics snapshot: a resumed run writes fewer checkpoints
/// and restores more shards than an uninterrupted one, and the snapshot
/// must stay byte-identical between the two (the crash-resume gate
/// compares them with cmp). Operators read these from the CLI's stderr
/// summary instead.
struct FleetCheckpointStats {
  bool enabled = false;
  std::uint64_t every_shards = 0;    // configured cadence, echoed
  bool resumed = false;              // a checkpoint was actually restored
  std::uint64_t resumed_shards = 0;  // shards skipped thanks to resume
  std::uint64_t writes = 0;          // checkpoint files committed
  std::uint64_t bytes_last_write = 0;
  std::uint64_t frames_discarded = 0;  // torn tail frames dropped at load
};

/// Everything one fleet run produces. `metrics` is the deterministic
/// registry snapshot of the fleet/* instruments (docs/FLEET.md maps every
/// name); the aggregates are the same data in typed form.
struct FleetResult {
  std::size_t device_count = 0;
  std::size_t shard_count = 0;
  std::size_t threads = 0;     // resolved worker count (wall clock only)
  std::uint64_t seed = 0;
  bool health_enabled = false; // FleetConfig::health.enabled, echoed

  std::vector<PolicyAggregate> policies;  // FleetConfig::policies order
  std::vector<ShardSummary> shards;       // shard-index order
  std::uint64_t total_engine_steps = 0;
  std::uint64_t quarantined_devices = 0;  // fleet-wide supervisor skips
  std::uint64_t quarantine_retries = 0;   // fleet-wide extra attempts

  FleetCheckpointStats checkpoint;  // process-local (see the struct doc)

  obs::MetricsSnapshot metrics;

  /// Aggregate for `kind`; nullptr when the fleet did not race it.
  [[nodiscard]] const PolicyAggregate* find(PolicyKind kind) const;
};

/// The fleet front door (see the file comment). One runner pins down a
/// validated FleetConfig; run() executes the whole population and returns
/// the merged aggregates. Deterministic: identical configs give
/// bit-identical FleetResults for any thread count.
class FleetRunner {
 public:
  /// Throws std::invalid_argument listing every problem when
  /// `config.validate()` is non-empty.
  explicit FleetRunner(FleetConfig config);

  // Non-copyable AND non-movable: the runner is the stable owner of the
  // validated fleet configuration, mirroring ExperimentRunner. Locked in
  // by tests/util/type_traits_test.
  FleetRunner(const FleetRunner&) = delete;
  FleetRunner& operator=(const FleetRunner&) = delete;
  FleetRunner(FleetRunner&&) = delete;
  FleetRunner& operator=(FleetRunner&&) = delete;

  /// Simulate the whole population. Workers claim shards from one shared
  /// counter, so a worker that drew short-lived devices takes the next
  /// shard instead of idling; shards restored from a checkpoint are
  /// skipped wherever they sit in the plan. Per-device series capture and
  /// telemetry file sinks are force-disabled regardless of the base
  /// config — fleets aggregate, they do not trace.
  [[nodiscard]] FleetResult run() const;

  [[nodiscard]] const FleetConfig& config() const { return config_; }
  /// Resolved shard count (the auto default applied).
  [[nodiscard]] std::size_t shard_count() const { return shards_; }
  /// Resolved worker-thread count (wall clock only, never results).
  [[nodiscard]] std::size_t thread_count() const { return threads_; }

  /// The per-device seed: a splitmix64-style mix of (fleet_seed,
  /// device_id). Pure function — the determinism substrate.
  [[nodiscard]] static std::uint64_t device_seed(std::uint64_t fleet_seed,
                                                 std::uint64_t device_id);

  /// Sample the identity of device `device_id`. Pure function of its
  /// arguments; FleetRunner::run() calls exactly this per device.
  [[nodiscard]] static DeviceSpec sample_device(const PopulationSpec& spec,
                                                std::uint64_t fleet_seed,
                                                std::uint64_t device_id);

 private:
  FleetConfig config_;
  std::size_t shards_ = 1;
  std::size_t threads_ = 1;
};

}  // namespace capman::sim
