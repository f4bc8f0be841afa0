// Reusable fixed-size worker pool for data-parallel loops.
//
// Built for the per-iteration fan-out of Algorithm 1 (core/similarity.cpp)
// and the shard loop of sim::FleetRunner: each dispatch spreads many
// independent work items across cores, then joins at a barrier. Workers
// are std::jthread and live for the lifetime of the pool, so a dispatch
// costs one mutex round-trip instead of thread creation.
//
// Scheduling: workers claim contiguous blocks of indices from one shared
// atomic counter, so a worker that finishes early takes the next unclaimed
// block instead of idling. The block size follows from the total and the
// worker count alone (about 32 blocks per worker, at least one index), so
// a few dozen coarse items such as fleet shards are claimed singly while
// thousands of fine ones pay one claim per block. Every index runs exactly
// once; which worker runs it depends on timing. A body that
// writes only to locations owned by its indices (plus per-worker scratch
// whose contents it sums order-independently) therefore produces
// bit-identical results for every worker count, including the inline
// single-threaded path.
//
// Observability: workers label their tracks in the ambient
// obs::SpanProfiler ("pool-worker-N") and each worker emits one
// `pool.chunk` span per dispatch around its claim loop, so a profiled
// dispatch renders one lane per worker in Perfetto. bind_metrics()
// attaches registry counters (threadpool/parallel_for, threadpool/chunks)
// that count dispatches and per-worker chunks; both hooks are no-ops when
// no profiler/registry is installed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace capman::obs {
class Counter;
class MetricsRegistry;
}  // namespace capman::obs

namespace capman::util {

/// Worker count for `requested` threads: 0 means "auto" (the hardware
/// concurrency, at least 1); any other value is used as given.
std::size_t resolve_thread_count(std::size_t requested);

class ThreadPool {
 public:
  /// A pool of `resolve_thread_count(threads)` workers. A pool of one
  /// worker never spawns a thread: tasks run inline on the caller.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  // Non-copyable AND non-movable: workers capture `this` (queue mutex,
  // condition variables), so a moved-from pool would leave threads
  // spinning on a dead object. Locked in by tests/util/type_traits_test.
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ThreadPool(ThreadPool&&) = delete;
  ThreadPool& operator=(ThreadPool&&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_; }

  /// Publish dispatch counters into `registry` from now on (nullptr
  /// detaches). The handles are resolved once; per-call cost is two
  /// relaxed atomic increments.
  void bind_metrics(obs::MetricsRegistry* registry);

  /// Runs every index of [0, total) exactly once and blocks until all
  /// have finished. A one-worker pool makes a single inline call
  /// `body(0, total, 0)`. Otherwise workers call `body(begin, end, worker)`
  /// for each block [begin, end) they claim; `worker` < worker_count()
  /// names the calling worker (0 is the caller's thread), so per-worker
  /// scratch indexed by it is never shared. Which worker runs an index,
  /// and in what order blocks run, depends on timing.
  void parallel_for(
      std::size_t total,
      const std::function<void(std::size_t begin, std::size_t end,
                               std::size_t worker)>& body);

 private:
  void worker_loop(std::size_t worker);
  // Claim and run blocks of the current task until none are left.
  void claim_and_run(
      std::size_t total,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
      std::size_t worker);

  std::size_t workers_ = 1;
  std::vector<std::jthread> threads_;

  // One-shot task state, guarded by mutex_: generation_ increments per
  // parallel_for call; workers join the current task_ once per generation
  // and claim its blocks from next_index_.
  // The condition variables are _any so they can wait on the annotated
  // util::Mutex (a BasicLockable) directly; clang -Wthread-safety then
  // checks every guarded access (the thread_safety_check gate).
  Mutex mutex_;
  std::condition_variable_any work_ready_;
  std::condition_variable_any work_done_;
  std::uint64_t generation_ CAPMAN_GUARDED_BY(mutex_) = 0;
  std::size_t pending_ CAPMAN_GUARDED_BY(mutex_) = 0;
  bool stopping_ CAPMAN_GUARDED_BY(mutex_) = false;
  std::size_t task_total_ CAPMAN_GUARDED_BY(mutex_) = 0;
  const std::function<void(std::size_t, std::size_t, std::size_t)>* task_
      CAPMAN_GUARDED_BY(mutex_) = nullptr;
  // The next unclaimed index of the current task. Reset under mutex_
  // before a generation is published; workers claim blocks by fetch_add.
  std::atomic<std::size_t> next_index_{0};

  // Registry handles (stable for the registry's lifetime); null when no
  // registry is bound.
  std::atomic<obs::Counter*> dispatch_counter_{nullptr};
  std::atomic<obs::Counter*> chunk_counter_{nullptr};
};

}  // namespace capman::util
