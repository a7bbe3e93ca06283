#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.h"

namespace graphsig::util {
namespace {

TEST(ThreadPoolTest, GlobalPoolIsPersistent) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_workers(), 1);
  EXPECT_FALSE(a.OnWorkerThread());  // the test thread is not a worker
}

TEST(ThreadPoolTest, TaskGroupRunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::atomic<int> on_worker{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Run([&] {
      if (pool.OnWorkerThread()) ++on_worker;
      ++ran;
    });
  }
  // Drain before Wait(): Wait helps by running tasks on this thread, so
  // letting the pool finish first proves workers execute submissions.
  while (ran.load() < 100) std::this_thread::yield();
  group.Wait();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(on_worker.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  TaskGroup group;
  group.Wait();
}

TEST(ThreadPoolTest, TaskGroupPropagatesException) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Run([] { throw std::runtime_error("task boom"); });
  try {
    group.Wait();
    FAIL() << "Wait() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "task boom");
  }
}

TEST(ThreadPoolTest, FailedFlagDrainsRemainingWork) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Run([] { throw std::runtime_error("first"); });
  // Later tasks can poll failed() to drain fast; every task still runs
  // to completion before Wait returns, and exactly one exception lands.
  std::atomic<int> completed{0};
  for (int i = 0; i < 50; ++i) {
    group.Run([&] { ++completed; });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_EQ(completed.load(), 50);
  EXPECT_FALSE(group.failed());  // consumed by Wait's rethrow
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstExceptionOnCaller) {
  std::atomic<int> ran{0};
  try {
    ParallelFor(4, 1000, [&](size_t i) {
      if (i == 13) throw std::runtime_error("index 13");
      ++ran;
    });
    FAIL() << "ParallelFor should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 13");
  }
  // The failure drains remaining indices instead of running them all.
  EXPECT_LT(ran.load(), 1000);
}

TEST(ThreadPoolTest, ParallelForInlinePathPropagatesToo) {
  EXPECT_THROW(
      ParallelFor(1, 5, [](size_t i) {
        if (i == 3) throw std::out_of_range("inline");
      }),
      std::out_of_range);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  std::atomic<int64_t> total{0};
  ParallelFor(4, 8, [&](size_t) {
    ParallelFor(4, 16, [&](size_t j) {
      total.fetch_add(static_cast<int64_t>(j) + 1);
    });
  });
  // 8 outer x sum(1..16) inner.
  EXPECT_EQ(total.load(), 8 * (16 * 17 / 2));
}

TEST(ThreadPoolTest, NestedExceptionCrossesBothLevels) {
  EXPECT_THROW(ParallelFor(2, 4,
                           [&](size_t) {
                             ParallelFor(2, 4, [](size_t j) {
                               if (j == 2) {
                                 throw std::runtime_error("inner");
                               }
                             });
                           }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ZeroAndOneItemCounts) {
  int calls = 0;
  ParallelFor(8, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(8, 1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  TaskGroup group;
  std::atomic<int> one{0};
  group.Run([&] { ++one; });
  group.Wait();
  EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPoolTest, RunOneTaskFromOutsideHelps) {
  ThreadPool pool(1);
  // Saturate the single worker with a task that waits for the main
  // thread's help, proving outside threads can run queued work.
  std::atomic<bool> helped{false};
  TaskGroup group(&pool);
  group.Run([&] {
    while (!helped.load()) {
      // busy-wait until main runs the second task
    }
  });
  group.Run([&] { helped.store(true); });
  while (!helped.load()) {
    pool.RunOneTask();
  }
  group.Wait();
  EXPECT_TRUE(helped.load());
}

TEST(ThreadPoolTest, OneWorkerRunsItsNestedTasksWhileWaiting) {
  ThreadPool pool(1);
  constexpr int kSubtasks = 8;
  std::atomic<int> ran_on_worker{0};
  std::atomic<bool> done{false};
  TaskGroup outer(&pool);
  outer.Run([&] {
    // The pool's only worker is busy here and the test thread does not
    // help, so only this task's own Wait can run the subtasks.
    const std::thread::id worker = std::this_thread::get_id();
    TaskGroup inner(&pool);
    for (int i = 0; i < kSubtasks; ++i) {
      inner.Run([&] {
        if (std::this_thread::get_id() == worker) ++ran_on_worker;
      });
    }
    inner.Wait();
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  outer.Wait();
  EXPECT_EQ(ran_on_worker.load(), kSubtasks);
}

TEST(ThreadPoolTest, ManyGroupsReuseOneGlobalPool) {
  // Back-to-back parallel regions (the mining pipeline's shape) must not
  // accumulate threads: the pool width is fixed at construction.
  const int before = ThreadPool::Global().num_workers();
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    ParallelFor(8, 64, [&](size_t) { ++ran; });
    ASSERT_EQ(ran.load(), 64);
  }
  EXPECT_EQ(ThreadPool::Global().num_workers(), before);
}

}  // namespace
}  // namespace graphsig::util
