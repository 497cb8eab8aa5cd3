// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "util/fork_join.h"

#include <exception>
#include <thread>
#include <vector>

namespace grca::util {

unsigned hardware_threads() noexcept {
  unsigned n = std::thread::hardware_concurrency();
  return n ? n : 1;
}

void fork_join(unsigned workers, const std::function<void(unsigned)>& fn) {
  if (workers == 0) workers = hardware_threads();
  std::vector<std::exception_ptr> errors(workers);
  auto run = [&](unsigned w) {
    try {
      fn(w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  try {
    for (unsigned w = 1; w < workers; ++w) threads.emplace_back(run, w);
  } catch (...) {
    // A thread could not be started: join the ones that were, then report.
    for (std::thread& t : threads) t.join();
    throw;
  }
  run(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace grca::util
