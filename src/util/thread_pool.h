// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// A small fixed-size thread pool for the platform's embarrassingly-parallel
// hot path: per-symptom diagnosis (RcaEngine::diagnose_all). The streaming
// engine and the feed replayer use none; they run on their caller's
// thread. Deliberately
// simple: one shared FIFO queue, chunked parallel_for, no work stealing —
// diagnosis tasks are coarse enough (microseconds to milliseconds each) that
// a shared queue never becomes the bottleneck at the core counts we target.
//
// Threading contract: submit() may be called from any thread; wait() blocks
// until every task submitted so far has finished and rethrows the first
// exception any task threw. parallel_for() is a self-contained fork-join and
// may be called concurrently with other parallel_for() calls on the same
// pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace grca::util {

class ThreadPool {
 public:
  /// Starts `threads` workers; 0 means hardware_concurrency(). A pool with
  /// one worker still runs tasks on that worker (not inline), so code paths
  /// are identical at every size.
  explicit ThreadPool(unsigned threads = 0);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// `hardware_concurrency`, never 0.
  static unsigned default_threads() noexcept;

  /// Enqueues one task for execution on some worker.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far (by any thread) has completed.
  /// If any task threw, rethrows the first captured exception (once).
  void wait();

  /// Runs fn(i) for every i in [begin, end), distributing contiguous chunks
  /// across the workers, and blocks until all of them finish. The first
  /// exception thrown by any fn(i) is rethrown after the join. Safe to call
  /// concurrently from multiple threads.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + currently executing
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace grca::util
