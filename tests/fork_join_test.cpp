// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for util::fork_join: every worker id runs exactly once, worker 0 on
// the caller, exceptions surface only after every worker has joined, and 0
// means hardware concurrency. The TSan CI job runs this binary too.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/fork_join.h"

namespace grca::util {
namespace {

TEST(ForkJoin, EachWorkerIdRunsOnce) {
  std::vector<int> runs(8, 0);  // each slot written by its own worker only
  fork_join(8, [&](unsigned w) { ++runs[w]; });
  for (int r : runs) EXPECT_EQ(r, 1);
}

TEST(ForkJoin, WorkerZeroRunsOnTheCaller) {
  std::vector<std::thread::id> ids(4);
  fork_join(4, [&](unsigned w) { ids[w] = std::this_thread::get_id(); });
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  std::set<std::thread::id> others(ids.begin() + 1, ids.end());
  EXPECT_EQ(others.size(), 3u);
  EXPECT_EQ(others.count(std::this_thread::get_id()), 0u);
}

TEST(ForkJoin, OneWorkerStartsNoThread) {
  std::vector<std::thread::id> ids;
  fork_join(1, [&](unsigned w) {
    EXPECT_EQ(w, 0u);
    ids.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], std::this_thread::get_id());
}

TEST(ForkJoin, FirstExceptionRethrownAfterJoin) {
  std::vector<int> finished(6, 0);
  try {
    fork_join(6, [&](unsigned w) {
      if (w == 2 || w == 4) {
        throw std::runtime_error("worker " + std::to_string(w));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished[w] = 1;
    });
    FAIL() << "expected the workers' exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "worker 2");
  }
  // Every worker that did not throw had finished before the rethrow.
  for (unsigned w : {0u, 1u, 3u, 5u}) EXPECT_EQ(finished[w], 1) << w;
}

TEST(ForkJoin, ExceptionOnTheCallerStillJoinsWorkers) {
  std::vector<int> finished(4, 0);
  EXPECT_THROW(fork_join(4,
                         [&](unsigned w) {
                           if (w == 0) throw std::logic_error("caller");
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(20));
                           finished[w] = 1;
                         }),
               std::logic_error);
  for (unsigned w = 1; w < 4; ++w) EXPECT_EQ(finished[w], 1) << w;
}

TEST(ForkJoin, ZeroMeansHardwareConcurrency) {
  const unsigned expected = hardware_threads();
  EXPECT_GE(expected, 1u);
  std::vector<int> runs(expected, 0);
  unsigned calls_seen = 0;
  fork_join(0, [&](unsigned w) {
    ASSERT_LT(w, expected);
    ++runs[w];
  });
  for (int r : runs) calls_seen += static_cast<unsigned>(r);
  EXPECT_EQ(calls_seen, expected);
}

}  // namespace
}  // namespace grca::util
