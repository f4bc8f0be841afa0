#include "util/thread_pool.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/spans.h"

namespace capman::util {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

ThreadPool::ThreadPool(std::size_t threads)
    : workers_(resolve_thread_count(threads)) {
  // Worker 0 is always the calling thread; only extra workers need OS
  // threads. A single-worker pool therefore costs nothing to construct.
  threads_.reserve(workers_ - 1);
  for (std::size_t w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  // Join here rather than via ~jthread: members are destroyed in reverse
  // declaration order, so mutex_ and the condition variables would die
  // before threads_ joins — and a worker whose final work_done_ signal is
  // still in flight (the caller's wait can return as soon as pending_ hits
  // zero) would touch them after destruction.
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::bind_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    dispatch_counter_.store(nullptr, std::memory_order_release);
    chunk_counter_.store(nullptr, std::memory_order_release);
    return;
  }
  dispatch_counter_.store(&registry->counter("threadpool/parallel_for"),
                          std::memory_order_release);
  chunk_counter_.store(&registry->counter("threadpool/chunks"),
                       std::memory_order_release);
}

void ThreadPool::parallel_for(
    std::size_t total,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (auto* counter = dispatch_counter_.load(std::memory_order_acquire)) {
    counter->add();
  }
  if (auto* counter = chunk_counter_.load(std::memory_order_acquire)) {
    counter->add(workers_);
  }
  if (workers_ == 1) {
    const obs::ScopedSpan span{"pool.chunk", "threadpool"};
    body(0, total, 0);
    return;
  }
  {
    const MutexLock lock(mutex_);
    task_ = &body;
    task_total_ = total;
    next_index_.store(0);
    pending_ = workers_ - 1;
    ++generation_;
  }
  work_ready_.notify_all();
  claim_and_run(total, body, 0);  // the caller is worker 0
  {
    const MutexLock lock(mutex_);
    // condition_variable_any waits on the annotated mutex directly; the
    // manual loop keeps the guarded predicate visible to the analysis.
    while (pending_ != 0) work_done_.wait(mutex_);
    task_ = nullptr;
  }
}

void ThreadPool::claim_and_run(
    std::size_t total,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    std::size_t worker) {
  const obs::ScopedSpan span{"pool.chunk", "threadpool"};
  // About 32 blocks per worker: a sub-microsecond item (one Algorithm-1
  // state pair) pays one atomic claim per block rather than per item, and
  // neighbouring output cells stay with one worker; a dispatch of at most
  // 32 items per worker (a fleet's 64 shards) is still claimed singly.
  constexpr std::size_t kClaimsPerWorker = 32;
  const std::size_t block =
      std::max<std::size_t>(total / (workers_ * kClaimsPerWorker), 1);
  for (std::size_t begin = next_index_.fetch_add(block,
                                                 std::memory_order_relaxed);
       begin < total;
       begin = next_index_.fetch_add(block, std::memory_order_relaxed)) {
    body(begin, std::min(begin + block, total), worker);
  }
}

void ThreadPool::worker_loop(std::size_t worker) {
  obs::set_current_thread_label("pool-worker-" + std::to_string(worker));
  std::uint64_t seen_generation = 0;
  while (true) {
    const std::function<void(std::size_t, std::size_t, std::size_t)>* task;
    std::size_t total;
    {
      const MutexLock lock(mutex_);
      while (!stopping_ && generation_ == seen_generation) {
        work_ready_.wait(mutex_);
      }
      if (stopping_) return;
      seen_generation = generation_;
      task = task_;
      total = task_total_;
    }
    claim_and_run(total, *task, worker);
    bool last = false;
    {
      const MutexLock lock(mutex_);
      last = --pending_ == 0;
    }
    if (last) work_done_.notify_one();
  }
}

}  // namespace capman::util
