#ifndef GRAPHSIG_UTIL_SYNC_H_
#define GRAPHSIG_UTIL_SYNC_H_

// Synchronization primitives carrying Clang thread-safety annotations.
//
// Every mutex and condition variable in the project lives behind these
// wrappers (scripts/lint.py bans naked std::mutex / std::condition_variable
// outside this header), so that under Clang the entire locking discipline
// is checked at compile time with -Wthread-safety -Werror=thread-safety:
// a field declared GS_GUARDED_BY(mu) cannot be touched without holding
// `mu`, a function declared GS_REQUIRES(mu) cannot be called without it,
// and a MutexLock cannot be forgotten on an early return. Under GCC the
// annotations compile to nothing and the wrappers are zero-cost veneers
// over the std primitives — this container builds with GCC; the Clang
// `-Werror=thread-safety` gate runs in CI (see .github/workflows/ci.yml).
//
// Usage:
//
//   class Counter {
//    public:
//     void Add(int64_t n) {
//       MutexLock lock(&mu_);
//       total_ += n;
//     }
//    private:
//     Mutex mu_;
//     int64_t total_ GS_GUARDED_BY(mu_) = 0;
//   };
//
// The annotation macros are prefixed GS_ to avoid colliding with other
// libraries' spellings of the same Clang attributes.

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define GS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GS_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

#define GS_CAPABILITY(x) GS_THREAD_ANNOTATION(capability(x))
#define GS_SCOPED_CAPABILITY GS_THREAD_ANNOTATION(scoped_lockable)
#define GS_GUARDED_BY(x) GS_THREAD_ANNOTATION(guarded_by(x))
#define GS_PT_GUARDED_BY(x) GS_THREAD_ANNOTATION(pt_guarded_by(x))
#define GS_ACQUIRED_BEFORE(...) \
  GS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define GS_ACQUIRED_AFTER(...) \
  GS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define GS_REQUIRES(...) \
  GS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define GS_ACQUIRE(...) \
  GS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GS_RELEASE(...) \
  GS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GS_TRY_ACQUIRE(...) \
  GS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define GS_EXCLUDES(...) GS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define GS_RETURN_CAPABILITY(x) GS_THREAD_ANNOTATION(lock_returned(x))
#define GS_NO_THREAD_SAFETY_ANALYSIS \
  GS_THREAD_ANNOTATION(no_thread_safety_analysis)

// Marks a mutable member of a mutex-owning class as deliberately NOT
// guarded by that mutex, with the reason inline. The semantic analyzer
// (tools/analyze, checker `lock-coverage`) requires every non-const,
// non-atomic member of a class that owns a util::Mutex to carry either
// GS_GUARDED_BY or this marker, so an unprotected field is always a
// conscious, documented decision. Typical reasons: "written in the
// constructor before any thread exists, immutable afterwards" or
// "owned by the event-loop thread; never touched concurrently".
// Compiles to a Clang `annotate` attribute (visible in the AST dump the
// analyzer reads) and to nothing under GCC.
#define GS_UNGUARDED_BY_DESIGN(reason) \
  GS_THREAD_ANNOTATION(annotate("gs_unguarded: " reason))

namespace graphsig::util {

class CondVar;

// A standard mutex declared as a Clang capability so the analysis can
// track which locks a thread holds. Prefer MutexLock over manual
// Lock()/Unlock() pairs.
class GS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GS_ACQUIRE() { mu_.lock(); }
  void Unlock() GS_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock; the scoped_lockable annotation tells the analysis the
// capability is held for exactly the lifetime of this object.
class GS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) GS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() GS_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Condition variable bound to the annotated Mutex. Wait() atomically
// releases and reacquires the mutex exactly like
// std::condition_variable::wait; callers must already hold it, which the
// GS_REQUIRES annotation enforces under Clang.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) GS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the mutex
  }

  // Waits until notified or `timeout` elapses; true when notified.
  // There are deliberately no predicate overloads: a predicate lambda
  // reading GS_GUARDED_BY fields defeats the analysis (lambdas do not
  // inherit the caller's lock set), so waiters write the standard
  //   while (!condition) cv.Wait(&mu);
  // loop instead, which the analysis checks field by field.
  template <typename Rep, typename Period>
  bool WaitFor(Mutex* mu, std::chrono::duration<Rep, Period> timeout)
      GS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace graphsig::util

#endif  // GRAPHSIG_UTIL_SYNC_H_
