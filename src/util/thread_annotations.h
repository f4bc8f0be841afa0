// Clang thread-safety-analysis annotations + an annotated mutex.
//
// The locking conventions in obs::MetricsRegistry, obs::SpanProfiler and
// util::ThreadPool used to live in comments ("guards the maps, not the
// instruments"). This header turns them into checked
// contracts: under clang the CAPMAN_* macros expand to the
// -Wthread-safety attributes, so `clang++ -Wthread-safety` (and the
// thread_safety_check CTest gate) proves every access to a
// CAPMAN_GUARDED_BY member happens with its mutex held. Under other
// compilers they expand to nothing and the code is unchanged.
//
// capman-lint L7 enforces adoption statically (no clang required): any
// class that owns a mutex must either use util::Mutex + at least one
// CAPMAN_GUARDED_BY/CAPMAN_REQUIRES annotation, or justify why not.
#pragma once

#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define CAPMAN_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define CAPMAN_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

#define CAPMAN_CAPABILITY(x) \
  CAPMAN_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

#define CAPMAN_SCOPED_CAPABILITY \
  CAPMAN_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

#define CAPMAN_GUARDED_BY(x) \
  CAPMAN_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

#define CAPMAN_PT_GUARDED_BY(x) \
  CAPMAN_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

#define CAPMAN_REQUIRES(...) \
  CAPMAN_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

#define CAPMAN_ACQUIRE(...) \
  CAPMAN_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

#define CAPMAN_RELEASE(...) \
  CAPMAN_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

#define CAPMAN_TRY_ACQUIRE(...) \
  CAPMAN_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

#define CAPMAN_EXCLUDES(...) \
  CAPMAN_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

#define CAPMAN_NO_THREAD_SAFETY_ANALYSIS \
  CAPMAN_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace capman::util {

/// std::mutex wrapped as a clang `capability` so CAPMAN_GUARDED_BY
/// members can name it. BasicLockable, so std::condition_variable_any
/// can wait on it directly (ThreadPool does).
class CAPMAN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CAPMAN_ACQUIRE() { mu_.lock(); }
  void unlock() CAPMAN_RELEASE() { mu_.unlock(); }
  bool try_lock() CAPMAN_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  // The one place a raw std::mutex is allowed: it *is* the capability.
  std::mutex mu_;  // capman-lint: allow(thread-safety, wrapped capability)
};

/// RAII scoped lock over util::Mutex, annotated so the analysis knows the
/// capability is held for the scope (std::scoped_lock is unannotated).
class CAPMAN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CAPMAN_ACQUIRE(mu) : mu_(&mu) { mu_->lock(); }
  ~MutexLock() CAPMAN_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace capman::util
