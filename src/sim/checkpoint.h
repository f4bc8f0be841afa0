// Crash-safe checkpoint format for fleet campaigns.
//
// A week-long FleetRunner campaign must survive SIGKILL: the checkpoint
// file persists every *completed* shard's reduction state — the
// PolicyAggregate counters and quantized sums, the QuantileSketch bucket
// maps, the shard's device-range cursor and engine-step count — plus a
// header binding the file to the exact FleetConfig identity that produced
// it. Resume restores the completed shards bit-for-bit and re-runs only
// the rest, so a resumed campaign's merged result (and its --json metric
// snapshot) is byte-identical to an uninterrupted run. docs/FLEET.md
// ("Checkpoint & resume") is the operator guide; DESIGN.md §16 specifies
// the record format in full.
//
// Durability model:
//  * every write replaces the whole file through util::AtomicFile
//    (write-temp + fsync + rename), so the file on disk is always a
//    complete checkpoint from *some* point in time;
//  * every frame carries a CRC-32 (util::crc32) over its type, length
//    and payload. A torn or corrupted tail — the failure mode when the
//    rename itself races a power cut — is detected at load and rolled
//    back to the last valid frame instead of aborting the resume;
//  * the header carries a config fingerprint (checkpoint_fingerprint):
//    FleetRunner refuses to resume from a checkpoint whose identity
//    fields (device count, shard plan, seed, policies, population,
//    sketch accuracy) disagree with the live config.
//
// The format is explicitly little-endian fixed-width binary — no
// host-struct dumps — so a checkpoint written on one machine resumes on
// another.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/fleet.h"

namespace capman::sim {

/// Format version; bump on any frame-layout change. Readers refuse
/// versions they do not understand (a refused resume is a cold start,
/// never a misparse).
inline constexpr std::uint32_t kCheckpointFormatVersion = 1;

/// The identity header: frame 0 of every checkpoint file. A checkpoint is
/// only resumable into a FleetRunner whose fingerprint matches.
struct CheckpointHeader {
  std::uint32_t version = kCheckpointFormatVersion;
  std::uint64_t fingerprint = 0;   // checkpoint_fingerprint(config, shards)
  std::uint64_t device_count = 0;
  std::uint64_t shard_count = 0;   // resolved (auto already applied)
  std::uint64_t seed = 0;
  std::vector<PolicyKind> policies;  // FleetConfig::policies order
  double sketch_relative_error = 0.01;
};

/// One completed shard's full reduction state — everything FleetRunner
/// accumulates for a shard, in serializable form (sketches flattened via
/// obs::QuantileSketch::state()).
struct ShardCheckpoint {
  std::uint64_t shard = 0;
  std::uint64_t device_begin = 0;  // the shard's contiguous device range
  std::uint64_t device_end = 0;
  std::uint64_t engine_steps = 0;
  std::uint64_t quarantine_retries = 0;
  std::vector<PolicyAggregate> policies;  // header policy order
};

/// What CheckpointReader::load recovered. frames_discarded / bytes_
/// discarded are non-zero when a torn or corrupt tail was rolled back.
struct CheckpointLoad {
  CheckpointHeader header;
  std::vector<ShardCheckpoint> shards;  // ascending shard index
  std::size_t frames_kept = 0;          // valid frames (incl. header)
  std::size_t frames_discarded = 0;     // invalid tail frames dropped
  std::uint64_t bytes_discarded = 0;    // bytes of the dropped tail
};

/// 64-bit FNV-1a fingerprint over the result-identity surface of a fleet
/// configuration: device count, the resolved shard plan, seed, policy
/// list, sketch accuracy, health enablement, the full population sampling
/// model, every per-device engine knob the fleet does not override
/// (power budget, pack switch/supercap, thermal, TEC, cooling) and the
/// CAPMAN config. Thread counts (workers and capman.similarity_threads)
/// are deliberately excluded — results never depend on them, so a
/// campaign may resume with a different worker count.
[[nodiscard]] std::uint64_t checkpoint_fingerprint(const FleetConfig& config,
                                                   std::size_t resolved_shards);

/// Serializes checkpoints. Each write() atomically replaces the file with
/// header + every provided shard frame, so the on-disk state is always a
/// complete, self-consistent snapshot.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string path, CheckpointHeader header);

  /// Atomically rewrite the checkpoint as header + `shards` (any order;
  /// frames are written in ascending shard index). Throws
  /// std::runtime_error on I/O failure.
  void write(const std::vector<ShardCheckpoint>& shards);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  /// Size of the last committed file in bytes.
  [[nodiscard]] std::uint64_t bytes_last_write() const { return bytes_; }

 private:
  std::string path_;
  CheckpointHeader header_;
  std::uint64_t writes_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Deserializes checkpoints, tolerating torn tails (see CheckpointLoad).
class CheckpointReader {
 public:
  /// Load `path`. Returns std::nullopt when the file does not exist or
  /// contains no valid header frame (both mean "cold start"). Invalid
  /// trailing frames are dropped, never fatal; a shard frame whose policy
  /// list disagrees with the header is treated as invalid.
  [[nodiscard]] static std::optional<CheckpointLoad> load(
      const std::string& path);
};

}  // namespace capman::sim
