// sim/checkpoint.h: the CRC-framed checkpoint format behind crash-safe
// fleet campaigns — full-fidelity round-trips, torn/corrupt-tail
// rollback, version and fingerprint refusal. The end-to-end contract
// (SIGKILL + resume == uninterrupted, byte for byte) lives in the
// crash_resume_check gate; this file pins the format layer itself.
#include "sim/checkpoint.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/crc32.h"

namespace capman::sim {
namespace {

namespace fs = std::filesystem;

CheckpointHeader test_header() {
  CheckpointHeader header;
  header.fingerprint = 0xDEADBEEFCAFEF00Dull;
  header.device_count = 100;
  header.shard_count = 4;
  header.seed = 42;
  header.policies = {PolicyKind::kDual, PolicyKind::kHeuristic};
  header.sketch_relative_error = 0.01;
  return header;
}

PolicyAggregate test_aggregate(PolicyKind kind, std::uint64_t salt) {
  PolicyAggregate agg;
  agg.kind = kind;
  agg.devices = 25 + salt;
  agg.brownouts = 3 + salt;
  agg.truncated = 1;
  agg.switch_total = 400 + salt;
  agg.faulty_devices = 2;
  agg.fault_fallbacks = 5;
  agg.fault_dropped_requests = 7 + salt;
  agg.quarantined = salt % 2;
  agg.lifetime_us = util::MicroSeconds{123456789 + salt};
  agg.max_temp_mc =
      util::MilliCelsius{static_cast<std::int64_t>(38500 * (1 + salt))};
  agg.energy_delivered_mj = util::Millijoules{987654 + salt};
  agg.health_evaluations = 11 + salt;
  agg.health_alerts[0] = 1;
  agg.health_alerts[2] = 4 + salt;
  for (std::uint64_t i = 0; i < 40; ++i) {
    agg.lifetime_s_sketch.observe(900.0 + 13.0 * static_cast<double>(i + salt));
    agg.max_temp_c_sketch.observe(35.0 + 0.1 * static_cast<double>(i));
    agg.switches_sketch.observe(static_cast<double>(i % 9));
  }
  return agg;
}

ShardCheckpoint test_shard(std::uint64_t index) {
  ShardCheckpoint shard;
  shard.shard = index;
  shard.device_begin = index * 25;
  shard.device_end = (index + 1) * 25;
  shard.engine_steps = 100000 + index * 997;
  shard.quarantine_retries = index;
  shard.policies = {test_aggregate(PolicyKind::kDual, index),
                    test_aggregate(PolicyKind::kHeuristic, index + 1)};
  return shard;
}

void expect_aggregates_equal(const PolicyAggregate& a,
                             const PolicyAggregate& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.devices, b.devices);
  EXPECT_EQ(a.brownouts, b.brownouts);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.switch_total, b.switch_total);
  EXPECT_EQ(a.faulty_devices, b.faulty_devices);
  EXPECT_EQ(a.fault_fallbacks, b.fault_fallbacks);
  EXPECT_EQ(a.fault_dropped_requests, b.fault_dropped_requests);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.lifetime_us, b.lifetime_us);
  EXPECT_EQ(a.max_temp_mc, b.max_temp_mc);
  EXPECT_EQ(a.energy_delivered_mj, b.energy_delivered_mj);
  EXPECT_EQ(a.health_evaluations, b.health_evaluations);
  EXPECT_EQ(a.health_alerts, b.health_alerts);
  // Sketch equality through the serialized state: bucket-exact.
  const auto sa = a.lifetime_s_sketch.state();
  const auto sb = b.lifetime_s_sketch.state();
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_EQ(sa.zero_count, sb.zero_count);
  EXPECT_EQ(sa.buckets, sb.buckets);
  EXPECT_EQ(sa.min, sb.min);
  EXPECT_EQ(sa.max, sb.max);
  EXPECT_EQ(a.max_temp_c_sketch.state().buckets,
            b.max_temp_c_sketch.state().buckets);
  EXPECT_EQ(a.switches_sketch.state().buckets,
            b.switches_sketch.state().buckets);
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("capman_ckpt_" + std::string{::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()});
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "fleet.ckpt").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string read_file() const {
    std::ifstream in{path_, std::ios::binary};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  void write_file(const std::string& bytes) const {
    std::ofstream out{path_, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(CheckpointTest, RoundTripsHeaderAndShardsExactly) {
  CheckpointWriter writer{path_, test_header()};
  // Deliberately out of order: the writer sorts frames by shard index.
  writer.write({test_shard(2), test_shard(0), test_shard(3)});
  EXPECT_EQ(writer.writes(), 1u);
  EXPECT_GT(writer.bytes_last_write(), 0u);

  const auto load = CheckpointReader::load(path_);
  ASSERT_TRUE(load.has_value());
  EXPECT_EQ(load->frames_discarded, 0u);
  EXPECT_EQ(load->frames_kept, 4u);  // header + 3 shards
  EXPECT_EQ(load->header.version, kCheckpointFormatVersion);
  EXPECT_EQ(load->header.fingerprint, test_header().fingerprint);
  EXPECT_EQ(load->header.device_count, 100u);
  EXPECT_EQ(load->header.shard_count, 4u);
  EXPECT_EQ(load->header.seed, 42u);
  EXPECT_EQ(load->header.policies, test_header().policies);
  EXPECT_DOUBLE_EQ(load->header.sketch_relative_error, 0.01);

  ASSERT_EQ(load->shards.size(), 3u);
  const std::uint64_t expected_order[] = {0, 2, 3};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& got = load->shards[i];
    const auto want = test_shard(expected_order[i]);
    EXPECT_EQ(got.shard, want.shard);
    EXPECT_EQ(got.device_begin, want.device_begin);
    EXPECT_EQ(got.device_end, want.device_end);
    EXPECT_EQ(got.engine_steps, want.engine_steps);
    EXPECT_EQ(got.quarantine_retries, want.quarantine_retries);
    ASSERT_EQ(got.policies.size(), 2u);
    expect_aggregates_equal(got.policies[0], want.policies[0]);
    expect_aggregates_equal(got.policies[1], want.policies[1]);
  }
}

TEST_F(CheckpointTest, RewriteReplacesNotAppends) {
  CheckpointWriter writer{path_, test_header()};
  writer.write({test_shard(0)});
  const auto size_one = fs::file_size(path_);
  writer.write({test_shard(0), test_shard(1)});
  writer.write({test_shard(0)});
  EXPECT_EQ(writer.writes(), 3u);
  // Back to one shard: the file shrank back, proving replace semantics.
  EXPECT_EQ(fs::file_size(path_), size_one);
  const auto load = CheckpointReader::load(path_);
  ASSERT_TRUE(load.has_value());
  EXPECT_EQ(load->shards.size(), 1u);
}

TEST_F(CheckpointTest, MissingFileIsACleanColdStart) {
  EXPECT_FALSE(CheckpointReader::load(path_).has_value());
}

TEST_F(CheckpointTest, EmptyAndGarbageFilesAreColdStarts) {
  write_file("");
  EXPECT_FALSE(CheckpointReader::load(path_).has_value());
  write_file("this is not a checkpoint at all, not even close......");
  EXPECT_FALSE(CheckpointReader::load(path_).has_value());
}

TEST_F(CheckpointTest, TornTailRollsBackToLastValidFrame) {
  CheckpointWriter writer{path_, test_header()};
  writer.write({test_shard(0), test_shard(1), test_shard(2)});
  const std::string full = read_file();
  // Chop into the last frame (any cut strictly inside it): the loader
  // must keep the header + first two shards and report the discard.
  write_file(full.substr(0, full.size() - 11));
  const auto load = CheckpointReader::load(path_);
  ASSERT_TRUE(load.has_value());
  EXPECT_EQ(load->shards.size(), 2u);
  EXPECT_EQ(load->shards[0].shard, 0u);
  EXPECT_EQ(load->shards[1].shard, 1u);
  EXPECT_EQ(load->frames_discarded, 1u);
  EXPECT_GT(load->bytes_discarded, 0u);
}

TEST_F(CheckpointTest, CorruptTailCrcRollsBack) {
  CheckpointWriter writer{path_, test_header()};
  writer.write({test_shard(0), test_shard(1)});
  std::string bytes = read_file();
  // Flip one byte near the end (inside the last frame's payload or CRC).
  bytes[bytes.size() - 7] = static_cast<char>(bytes[bytes.size() - 7] ^ 0x40);
  write_file(bytes);
  const auto load = CheckpointReader::load(path_);
  ASSERT_TRUE(load.has_value());
  EXPECT_EQ(load->shards.size(), 1u);
  EXPECT_EQ(load->frames_discarded, 1u);
}

TEST_F(CheckpointTest, CorruptHeaderMeansColdStart) {
  CheckpointWriter writer{path_, test_header()};
  writer.write({test_shard(0)});
  std::string bytes = read_file();
  bytes[6] = static_cast<char>(bytes[6] ^ 0x01);  // inside the header frame
  write_file(bytes);
  EXPECT_FALSE(CheckpointReader::load(path_).has_value());
}

// Frame layout: type u8 | payload_len u32 LE | payload | crc u32. The
// size of the frame starting at `offset`, parsed from its length field.
std::size_t frame_size_at(const std::string& bytes, std::size_t offset) {
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes[offset + 1 +
                                                static_cast<std::size_t>(i)]))
           << (8 * i);
  }
  return 1 + 4 + len + 4;
}

TEST_F(CheckpointTest, DuplicateShardFramesLastWins) {
  // The format tolerates the same shard appearing in multiple frames
  // (last wins) — the reader dedups. Splice a second, updated copy of
  // shard 0's frame onto a valid file.
  CheckpointWriter first{path_, test_header()};
  first.write({test_shard(0)});
  const std::string base = read_file();

  const std::string other_path = (dir_ / "other.ckpt").string();
  CheckpointWriter second{other_path, test_header()};
  ShardCheckpoint updated = test_shard(0);
  updated.engine_steps = 999999;
  second.write({updated});
  std::ifstream other{other_path, std::ios::binary};
  std::ostringstream other_bytes;
  other_bytes << other.rdbuf();
  const std::string other_full = other_bytes.str();

  // Both files are header frame + one shard frame with identical
  // headers; skip past the header frame to get the updated shard frame.
  const std::size_t header_size = frame_size_at(other_full, 0);
  ASSERT_EQ(frame_size_at(base, 0), header_size);
  write_file(base + other_full.substr(header_size));

  const auto load = CheckpointReader::load(path_);
  ASSERT_TRUE(load.has_value());
  EXPECT_EQ(load->frames_discarded, 0u);
  ASSERT_EQ(load->shards.size(), 1u);
  EXPECT_EQ(load->shards[0].shard, 0u);
  EXPECT_EQ(load->shards[0].engine_steps, 999999u);
}

TEST_F(CheckpointTest, FingerprintChangesWithIdentityFields) {
  FleetConfig config;
  config.device_count = 100;
  config.seed = 42;
  const std::uint64_t base = checkpoint_fingerprint(config, 4);
  EXPECT_EQ(checkpoint_fingerprint(config, 4), base);  // deterministic

  FleetConfig other = config;
  other.seed = 43;
  EXPECT_NE(checkpoint_fingerprint(other, 4), base);

  other = config;
  other.device_count = 101;
  EXPECT_NE(checkpoint_fingerprint(other, 4), base);

  other = config;
  other.policies = {PolicyKind::kDual};
  EXPECT_NE(checkpoint_fingerprint(other, 4), base);

  other = config;
  other.population.fault_fraction = 0.5;
  EXPECT_NE(checkpoint_fingerprint(other, 4), base);

  // Different resolved shard plan: different fingerprint.
  EXPECT_NE(checkpoint_fingerprint(config, 8), base);

  // Thread count is operational, not identity: same fingerprint.
  other = config;
  other.threads = 7;
  EXPECT_EQ(checkpoint_fingerprint(other, 4), base);

  // Checkpoint cadence is operational too.
  other = config;
  other.checkpoint.every_shards = 99;
  EXPECT_EQ(checkpoint_fingerprint(other, 4), base);

  // So is Algorithm 1's thread count: results are bit-identical for any.
  other = config;
  other.capman.similarity_threads = 3;
  EXPECT_EQ(checkpoint_fingerprint(other, 4), base);
}

// Every engine knob a device run reads moves the fingerprint: the arbiter
// (including its corecap table), CAPMAN, the pack's switch facility and
// supercap, the thermal network, the TEC and its controller.
TEST_F(CheckpointTest, FingerprintCoversEveryResultAffectingEngineKnob) {
  FleetConfig config;
  const std::uint64_t base = checkpoint_fingerprint(config, 4);
  const auto moves = [&](auto&& mutate) {
    FleetConfig other = config;
    mutate(other);
    return checkpoint_fingerprint(other, 4) != base;
  };
  EXPECT_TRUE(moves([](FleetConfig& c) { c.base.budget.enabled = true; }));
  EXPECT_TRUE(moves([](FleetConfig& c) {
    c.base.budget.cap_method = core::CapMethod::kStatic;
  }));
  EXPECT_TRUE(moves([](FleetConfig& c) {
    c.base.budget.base_budget_mw = util::Milliwatts{2500.0};
  }));
  EXPECT_TRUE(moves([](FleetConfig& c) {
    c.base.budget.level_fraction[2] = util::Ratio{0.5};
  }));
  EXPECT_TRUE(moves([](FleetConfig& c) {
    c.base.budget.corecaps.back().cooling_priority.tec_mw =
        util::Milliwatts{1.0};
  }));
  EXPECT_TRUE(moves([](FleetConfig& c) { c.capman.rho = 0.7; }));
  EXPECT_TRUE(moves([](FleetConfig& c) { c.capman.learn_budget = true; }));
  EXPECT_TRUE(moves([](FleetConfig& c) {
    c.capman.maintenance_power = util::Watts{0.05};
  }));
  EXPECT_TRUE(moves([](FleetConfig& c) {
    c.base.pack_config.switch_config.latency = util::Seconds{0.002};
  }));
  EXPECT_TRUE(moves([](FleetConfig& c) {
    c.base.pack_config.supercap_capacitance = util::Farads{1.0};
  }));
  EXPECT_TRUE(moves([](FleetConfig& c) {
    c.base.thermal_config.surface_ambient = 0.25;
  }));
  EXPECT_TRUE(moves([](FleetConfig& c) {
    c.base.tec_params.seebeck_v_per_k = 0.006;
  }));
  EXPECT_TRUE(moves([](FleetConfig& c) {
    c.base.cooling_config.threshold = util::Celsius{40.0};
  }));
}

TEST_F(CheckpointTest, UnknownVersionIsRefused) {
  CheckpointWriter writer{path_, test_header()};
  writer.write({test_shard(0)});
  std::string bytes = read_file();
  // Frame layout: type u8 | len u32 | payload | crc u32; the header
  // payload starts with the version u32 at offset 5. Bump it and fix the
  // CRC so only the version check can reject.
  ASSERT_GT(bytes.size(), 9u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[5]),
            kCheckpointFormatVersion & 0xFF);
  bytes[5] = static_cast<char>(kCheckpointFormatVersion + 1);
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes[1 + i]))
           << (8 * i);
  }
  const std::uint32_t crc =
      util::crc32(std::string_view{bytes}.substr(0, 5 + len));
  for (int i = 0; i < 4; ++i) {
    bytes[5 + len + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  write_file(bytes);
  EXPECT_FALSE(CheckpointReader::load(path_).has_value());
}

// ---------------------------------------------------------------------------
// FleetRunner resume integration (in-process). The SIGKILL end-to-end
// path — crash, resume, byte-compare against an uninterrupted run — is
// the crash_resume_check CTest gate; these tests drive the same resume
// machinery without leaving the process.

FleetConfig resume_fleet(const std::string& dir) {
  FleetConfig config;
  config.device_count = 24;
  config.shard_count = 6;
  config.threads = 1;
  config.seed = 7;
  config.base.dt = util::Seconds{0.25};
  config.base.max_duration = util::hours(2.0);
  config.base.record_series = false;
  config.population.big_capacity_mah_lo = 500.0;
  config.population.big_capacity_mah_hi = 800.0;
  config.population.little_capacity_mah_lo = 200.0;
  config.population.little_capacity_mah_hi = 350.0;
  config.population.trace_horizon = util::Seconds{120.0};
  config.checkpoint.directory = dir;
  config.checkpoint.every_shards = 2;
  return config;
}

std::string snapshot_json(const obs::MetricsSnapshot& snapshot) {
  std::ostringstream out;
  snapshot.write_json(out);
  return out.str();
}

TEST_F(CheckpointTest, FullResumeIsByteIdenticalToTheOriginalRun) {
  auto config = resume_fleet(dir_.string());
  const auto original = FleetRunner{config}.run();
  EXPECT_FALSE(original.checkpoint.resumed);
  EXPECT_GT(original.checkpoint.writes, 0u);

  config.checkpoint.resume = true;
  const auto resumed = FleetRunner{config}.run();
  EXPECT_TRUE(resumed.checkpoint.resumed);
  EXPECT_EQ(resumed.checkpoint.resumed_shards, 6u);
  EXPECT_EQ(snapshot_json(resumed.metrics), snapshot_json(original.metrics));
}

TEST_F(CheckpointTest, PartialResumeIsByteIdenticalAcrossThreadCounts) {
  auto config = resume_fleet(dir_.string());
  const auto original = FleetRunner{config}.run();

  // Rewind the checkpoint to its first three shards — the on-disk state
  // after an early crash — and resume with a different worker count.
  auto load = CheckpointReader::load(path_);
  ASSERT_TRUE(load.has_value());
  ASSERT_EQ(load->shards.size(), 6u);
  load->shards.resize(3);
  CheckpointWriter rewind{path_, load->header};
  rewind.write(load->shards);

  config.checkpoint.resume = true;
  config.threads = 2;
  const auto resumed = FleetRunner{config}.run();
  EXPECT_TRUE(resumed.checkpoint.resumed);
  EXPECT_EQ(resumed.checkpoint.resumed_shards, 3u);
  EXPECT_EQ(snapshot_json(resumed.metrics), snapshot_json(original.metrics));
}

TEST_F(CheckpointTest, MismatchedConfigRefusesToResume) {
  auto config = resume_fleet(dir_.string());
  (void)FleetRunner{config}.run();

  auto other = config;
  other.seed = 8;
  other.checkpoint.resume = true;
  try {
    (void)FleetRunner{other}.run();
    FAIL() << "resume with a different seed must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string{error.what()}.find("fingerprint mismatch"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(CheckpointTest, ResumeUnderADifferentBudgetOrCapmanConfigIsRefused) {
  auto config = resume_fleet(dir_.string());
  (void)FleetRunner{config}.run();
  config.checkpoint.resume = true;

  const auto refused = [&](auto&& mutate) {
    auto other = config;
    mutate(other);
    try {
      (void)FleetRunner{other}.run();
    } catch (const std::runtime_error& error) {
      return std::string{error.what()}.find("fingerprint mismatch") !=
             std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(refused([](FleetConfig& c) { c.base.budget.enabled = true; }));
  EXPECT_TRUE(refused([](FleetConfig& c) { c.capman.rho = 0.7; }));
  EXPECT_TRUE(refused([](FleetConfig& c) { c.capman.learn_budget = true; }));
}

TEST_F(CheckpointTest, ResumeWithoutAFileIsAColdStart) {
  auto config = resume_fleet(dir_.string());
  config.checkpoint.resume = true;  // nothing on disk yet
  const auto result = FleetRunner{config}.run();
  EXPECT_FALSE(result.checkpoint.resumed);
  EXPECT_EQ(result.checkpoint.resumed_shards, 0u);
  EXPECT_GT(result.checkpoint.writes, 0u);
}

TEST_F(CheckpointTest, CrashHookKillsTheProcessAfterNShards) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto config = resume_fleet(dir_.string());
  config.crash_after_shards = 2;
  EXPECT_EXIT((void)FleetRunner{config}.run(),
              ::testing::KilledBySignal(SIGKILL), "");
  // The injected crash fires after the cadence logic, so the file left
  // behind is a loadable checkpoint.
  const auto load = CheckpointReader::load(path_);
  ASSERT_TRUE(load.has_value());
  EXPECT_GE(load->shards.size(), 2u);
}

}  // namespace
}  // namespace capman::sim
