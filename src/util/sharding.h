// Deterministic shard scheduling for population-scale fan-out.
//
// ShardPlan fixes the device → shard assignment of a fleet run before any
// thread is spawned: shard k owns one contiguous item range computed by a
// quotient/remainder formula (q = total / shards, r = total % shards; the
// first r shards get one extra item). Because the assignment depends only
// on (total, shard_count) — never on thread count, on which worker claims
// a shard, or on timing — a consumer that accumulates per-shard state and
// merges it in shard-index order produces identical results for every
// worker count.
//
// Contiguity is the second half of the contract: shard ranges tile
// [0, total) in order, so a left-fold merge over shards 0..S-1 visits
// items in exactly the order a single loop over [0, total) would. Any
// reduction that is a left fold over items (integer sums trivially, but
// also order-sensitive floating-point folds) is therefore bit-identical
// across shard counts as well.
#pragma once

#include <cstddef>

namespace capman::util {

/// One shard's contiguous item range [begin, end).
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin == end; }
};

/// Shard count for `requested` shards over `total` items: 0 means "auto"
/// (min(total, 64), at least 1 — enough granularity for any realistic
/// worker count without flooding per-shard telemetry). The result never
/// exceeds max(total, 1), so no shard is ever empty.
std::size_t resolve_shard_count(std::size_t requested, std::size_t total);

/// The fixed device→shard assignment described in the header comment.
/// Plain value type: cheap to copy into worker lambdas.
class ShardPlan {
 public:
  /// Partition [0, total) into `shard_count` contiguous ranges.
  /// `shard_count` is clamped to at least 1; counts above `total` are
  /// legal (the surplus shards are empty) but resolve_shard_count never
  /// produces them.
  ShardPlan(std::size_t total, std::size_t shard_count);

  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_; }

  /// Item range of shard `shard` (requires shard < shard_count()).
  [[nodiscard]] ShardRange range(std::size_t shard) const;

  /// Inverse mapping: the shard owning `item` (requires item < total()).
  [[nodiscard]] std::size_t shard_of(std::size_t item) const;

 private:
  std::size_t total_ = 0;
  std::size_t shards_ = 1;
};

}  // namespace capman::util
