// Output digests: the benchmark's correctness check.
//
// Every repetition of a workload must reproduce the simulated statistics
// of the first one bit for bit (the simulator is deterministic for a fixed
// seed), so each repetition is folded into FNV-1a digests and compared.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"
#include "sim/metrics.h"

namespace perfbench {

/// 64-bit FNV-1a over typed fields. Doubles are folded by bit pattern, so
/// any change in any bit of a statistic changes the digest.
class Digest {
 public:
  Digest& add(std::string_view bytes);
  Digest& add(std::uint64_t value);
  Digest& add(double value);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  Digest& add_bytes(const void* data, std::size_t size);
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One discharge cycle as the paper reports it: workload, policy, service
/// time, switch count and engine steps.
std::uint64_t cycle_digest(const capman::sim::SimResult& result);

/// Every scalar statistic of a cycle plus its deterministic metrics
/// snapshot: what "two runs gave the same result" means.
std::uint64_t result_digest(const capman::sim::SimResult& result);

/// A metrics snapshot serialized as JSON (the fleet's result surface).
std::uint64_t snapshot_digest(const capman::obs::MetricsSnapshot& snapshot);

}  // namespace perfbench
