// util::ThreadPool: the work-claiming contract of parallel_for. Every
// index of [0, total) runs exactly once, every `worker` argument names a
// real worker, a one-worker pool makes a single inline call, blocks are
// sized from the total and the worker count, and a repeated dispatch on
// the same pool starts from a fresh claim counter.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace capman::util {
namespace {

TEST(ThreadPool, EveryIndexRunsExactlyOnceOnARealWorker) {
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    ThreadPool pool{workers};
    ASSERT_EQ(pool.worker_count(), workers);
    for (const std::size_t total :
         {std::size_t{0}, std::size_t{1}, workers - 1, std::size_t{1000}}) {
      std::vector<std::atomic<int>> runs(total);
      std::atomic<bool> worker_in_range{true};
      pool.parallel_for(total, [&](std::size_t begin, std::size_t end,
                                   std::size_t worker) {
        if (worker >= pool.worker_count()) worker_in_range = false;
        for (std::size_t i = begin; i < end; ++i) ++runs[i];
      });
      EXPECT_TRUE(worker_in_range) << workers << " workers, total " << total;
      for (std::size_t i = 0; i < total; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << workers << " workers, total " << total << ", index " << i;
      }
    }
  }
}

TEST(ThreadPool, OneWorkerPoolMakesOneInlineCall) {
  ThreadPool pool{1};
  for (const std::size_t total : {0u, 1u, 1000u}) {
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    std::vector<std::size_t> workers;
    std::vector<std::thread::id> threads;
    pool.parallel_for(total, [&](std::size_t begin, std::size_t end,
                                 std::size_t worker) {
      calls.emplace_back(begin, end);
      workers.push_back(worker);
      threads.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(calls.size(), 1u) << "total " << total;
    EXPECT_EQ(calls[0], std::make_pair(std::size_t{0}, total));
    EXPECT_EQ(workers[0], 0u);
    EXPECT_EQ(threads[0], std::this_thread::get_id());
  }
}

// Dispatch after dispatch on one pool, with totals that shrink and grow:
// a claim counter left over from the previous dispatch would skip or
// repeat indices here.
TEST(ThreadPool, RepeatedDispatchesStartFromAFreshCounter) {
  ThreadPool pool{3};
  for (std::size_t round = 0; round < 50; ++round) {
    const std::size_t total = (round * 37) % 101;
    std::vector<std::atomic<int>> runs(total);
    pool.parallel_for(total, [&](std::size_t begin, std::size_t end,
                                 std::size_t /*worker*/) {
      for (std::size_t i = begin; i < end; ++i) ++runs[i];
    });
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "round " << round << ", index " << i;
    }
  }
}

// Block size depends only on the total and the worker count: a fleet's
// 64 shards on 2 workers are claimed one at a time, so a slow shard never
// holds others back, while 10000 fine-grained items on 4 workers go out
// in about 32 equal blocks per worker.
TEST(ThreadPool, BlockSizeFollowsTotalAndWorkerCount) {
  const auto blocks = [](std::size_t workers, std::size_t total) {
    ThreadPool pool{workers};
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    pool.parallel_for(total, [&](std::size_t begin, std::size_t end,
                                 std::size_t /*worker*/) {
      const std::lock_guard lock{mutex};
      calls.emplace_back(begin, end);
    });
    std::sort(calls.begin(), calls.end());
    return calls;
  };

  for (const auto& [begin, end] : blocks(2, 64)) {
    EXPECT_EQ(end - begin, 1u) << "block at " << begin;
  }

  const auto fine = blocks(4, 10000);
  ASSERT_GE(fine.size(), 4u * 32u);
  ASSERT_LE(fine.size(), 4u * 32u + 4u);
  const std::size_t size = fine.front().second - fine.front().first;
  for (std::size_t k = 0; k < fine.size(); ++k) {
    EXPECT_EQ(fine[k].first, k * size);
    if (k + 1 < fine.size()) {
      EXPECT_EQ(fine[k].second - fine[k].first, size);
    }
  }
  EXPECT_EQ(fine.back().second, 10000u);
}

TEST(ThreadPool, MetricsCountDispatchesAndWorkerChunks) {
  obs::MetricsRegistry registry;
  ThreadPool pool{3};
  pool.bind_metrics(&registry);
  pool.parallel_for(10, [](std::size_t, std::size_t, std::size_t) {});
  pool.parallel_for(0, [](std::size_t, std::size_t, std::size_t) {});
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_or("threadpool/parallel_for"), 2u);
  EXPECT_EQ(snapshot.counter_or("threadpool/chunks"), 6u);
}

}  // namespace
}  // namespace capman::util
