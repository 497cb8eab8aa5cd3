// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for util::ThreadPool (submit/wait, parallel_for, exception
// propagation, edge cases).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace grca::util {
namespace {

TEST(ThreadPool, DefaultThreadsIsNeverZero) {
  EXPECT_GE(ThreadPool::default_threads(), 1u);
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::default_threads());
}

TEST(ThreadPool, SubmitAndWaitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitWithZeroTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait();  // nothing submitted; must not hang
  SUCCEED();
}

TEST(ThreadPool, SingleThreadPoolRunsTasksOffCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::thread::id worker_id;
  pool.submit([&worker_id] { worker_id = std::this_thread::get_id(); });
  pool.wait();
  EXPECT_NE(worker_id, std::this_thread::get_id());
}

TEST(ThreadPool, SubmitExceptionRethrownByWait) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error is consumed: a second wait is clean and the pool is reusable.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);  // prime: uneven chunks
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoOp) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL() << "must not run"; });
  pool.parallel_for(7, 3, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForSingleItem) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(41, 42, [&](std::size_t i) {
    EXPECT_EQ(i, 41u);
    ++count;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 57) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // Pool survives for further use.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

}  // namespace
}  // namespace grca::util
