// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The one parallel construct of the batch path: a fork-join over a fixed
// number of workers, used by RcaEngine::diagnose_all, telemetry::read_stream
// and Normalizer::normalize_stream. Each call's workers split one job and
// share no mutable state they do not synchronize themselves, so there is no
// task queue or pool to keep alive between calls: the threads live exactly
// as long as one call. The streaming engine and the feed replayer use none;
// they run on their caller's thread.
#pragma once

#include <functional>

namespace grca::util {

/// std::thread::hardware_concurrency(), never 0.
unsigned hardware_threads() noexcept;

/// Runs fn(w) once for every worker id w in [0, workers): worker 0 on the
/// calling thread, the others on threads started for this call. Returns
/// after every worker has finished; if any threw, rethrows the exception of
/// the lowest-numbered worker that did. 0 means hardware_threads(); one
/// worker starts no thread.
void fork_join(unsigned workers, const std::function<void(unsigned)>& fn);

}  // namespace grca::util
