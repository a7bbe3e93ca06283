#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "util/parallel.h"

namespace graphsig::util {
namespace {

// Scheduling telemetry. Task counts and queue depth depend on how the
// OS interleaves workers, so these are ADVISORY metrics — never work
// counters (DESIGN.md §12).
struct PoolMetrics {
  obs::Counter* submitted;
  obs::Counter* executed;
  obs::Gauge* queue_depth_hwm;

  static const PoolMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static const PoolMetrics m = {
        registry.GetAdvisoryCounter("pool/tasks_submitted"),
        registry.GetAdvisoryCounter("pool/tasks_executed"),
        registry.GetGauge("pool/queue_depth_hwm")};
    return m;
  }
};

// The pool the current thread works for, if any (OnWorkerThread).
thread_local const ThreadPool* tls_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(num_threads, 1);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] {
      tls_pool = this;
      while (RunTask(/*wait=*/true)) {
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Global() {
  // Function-local static: joined cleanly at exit, so leak checkers stay
  // quiet and no worker outlives main.
  static ThreadPool pool(HardwareThreads());
  return pool;
}

bool ThreadPool::OnWorkerThread() const { return tls_pool == this; }

void ThreadPool::Submit(std::function<void()> task) {
  size_t depth = 0;
  {
    MutexLock lock(&mutex_);
    tasks_.push_back(std::move(task));
    depth = tasks_.size();
  }
  const PoolMetrics& metrics = PoolMetrics::Get();
  metrics.submitted->Increment();
  metrics.queue_depth_hwm->UpdateMax(static_cast<int64_t>(depth));
  cv_.NotifyOne();
}

bool ThreadPool::RunOneTask() { return RunTask(/*wait=*/false); }

bool ThreadPool::RunTask(bool wait) {
  std::function<void()> task;
  {
    MutexLock lock(&mutex_);
    while (wait && !stopping_ && tasks_.empty()) cv_.Wait(&mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  PoolMetrics::Get().executed->Increment();
  task();
  return true;
}

void TaskGroup::Run(std::function<void()> fn) {
  {
    MutexLock lock(&mutex_);
    ++pending_;
  }
  pool_->Submit([this, fn = std::move(fn)] {
    try {
      fn();
    } catch (...) {
      RecordException();
    }
    MutexLock lock(&mutex_);
    if (--pending_ == 0) done_cv_.NotifyAll();
  });
}

void TaskGroup::RunInline(const std::function<void()>& fn) {
  try {
    fn();
  } catch (...) {
    RecordException();
  }
}

void TaskGroup::RecordException() {
  MutexLock lock(&mutex_);
  if (first_exception_ == nullptr) {
    first_exception_ = std::current_exception();
  }
  failed_.store(true, std::memory_order_release);
}

void TaskGroup::WaitNoThrow() {
  while (true) {
    {
      MutexLock lock(&mutex_);
      if (pending_ == 0) return;
    }
    // Help instead of idling — this is what makes nested ParallelFor
    // safe: a worker waiting on an inner group keeps draining the pool,
    // so the inner tasks it depends on always make progress.
    if (pool_->RunOneTask()) continue;
    // Nothing queued: our remaining tasks are mid-flight on other
    // threads. The timed wait covers the benign race where the last
    // task finishes between the pending check and this wait; the outer
    // loop re-checks pending_, so spurious wakeups only spin once.
    MutexLock lock(&mutex_);
    if (pending_ == 0) return;
    done_cv_.WaitFor(&mutex_, std::chrono::milliseconds(1));
    if (pending_ == 0) return;
  }
}

void TaskGroup::Wait() {
  WaitNoThrow();
  MutexLock lock(&mutex_);
  if (first_exception_ != nullptr) {
    std::exception_ptr e = first_exception_;
    first_exception_ = nullptr;
    failed_.store(false, std::memory_order_release);
    std::rethrow_exception(e);
  }
}

}  // namespace graphsig::util
