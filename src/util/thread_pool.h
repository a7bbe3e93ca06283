#ifndef GRAPHSIG_UTIL_THREAD_POOL_H_
#define GRAPHSIG_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace graphsig::util {

// A persistent thread pool. Workers are spawned once and reused across
// every parallel phase of the pipeline, so callers that fan out
// repeatedly (FVMine per label group, per-vector region mining, a
// served request per pool task) never pay per-call thread spawn/join
// costs.
//
// One mutex-guarded FIFO queue feeds every worker: a task runs on
// whichever thread pops it first. Threads that block in
// TaskGroup::Wait pop and run queued tasks too, so a nested parallel
// region (a pool task that itself calls ParallelFor) cannot deadlock
// the pool, even one with a single worker.
//
// The pool itself imposes no ordering; determinism is the caller's
// contract (each task writes only its own slots, merges happen on the
// waiting thread in a fixed order).
class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  // Lets the workers run every queued task, then joins them.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Appends `task` to the queue; the first free thread runs it. `task`
  // must not throw out of the pool unwrapped — use TaskGroup, which
  // wraps tasks with exception capture.
  void Submit(std::function<void()> task);

  // Runs the oldest queued task on the calling thread, if any.
  // Returns false without blocking when the queue is empty. Used by
  // TaskGroup::Wait to help instead of idling.
  bool RunOneTask();

  // The process-wide pool, created on first use with HardwareThreads()
  // workers. All ParallelFor traffic runs here.
  static ThreadPool& Global();

  // True when the calling thread is a worker of this pool.
  bool OnWorkerThread() const;

 private:
  // Pops and runs the oldest task. With `wait`, first blocks until a
  // task is queued or the pool stops. False when it ran none.
  bool RunTask(bool wait);

  Mutex mutex_;
  CondVar cv_;  // signalled on Submit and on stop
  std::deque<std::function<void()>> tasks_ GS_GUARDED_BY(mutex_);
  bool stopping_ GS_GUARDED_BY(mutex_) = false;
  // Declared after the queue state the workers use.
  std::vector<std::thread> workers_ GS_UNGUARDED_BY_DESIGN(
      "populated in the constructor, joined in the destructor; no "
      "concurrent access in between");
};

// Tracks a batch of tasks submitted to a ThreadPool, propagating the
// first exception a task throws to the thread that calls Wait(). Not
// reusable after Wait() rethrows; create one group per parallel region.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool = &ThreadPool::Global())
      : pool_(pool) {}
  ~TaskGroup() { WaitNoThrow(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Submits fn to the pool. If fn throws, the first exception across the
  // group is captured and every later task sees failed() == true (tasks
  // poll it to drain their remaining work quickly).
  void Run(std::function<void()> fn);

  // Runs fn on the calling thread under the same exception capture as
  // Run() tasks — lets the caller participate in the work it fanned out.
  void RunInline(const std::function<void()>& fn);

  // Blocks until every task submitted through Run() has finished,
  // running queued pool tasks while it waits. Rethrows the first
  // captured exception (from Run or RunInline tasks) on this thread.
  void Wait();

  // True once any task in the group has thrown.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

 private:
  void RecordException();
  void WaitNoThrow();

  ThreadPool* const pool_;
  Mutex mutex_;
  CondVar done_cv_;
  int64_t pending_ GS_GUARDED_BY(mutex_) = 0;
  std::exception_ptr first_exception_ GS_GUARDED_BY(mutex_);
  std::atomic<bool> failed_{false};
};

}  // namespace graphsig::util

#endif  // GRAPHSIG_UTIL_THREAD_POOL_H_
