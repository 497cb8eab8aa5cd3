// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The three benchmark workloads. Each runs the program through its public
// entry points only, from a corpus generated on disk:
//   bgp-batch    corpus -> read_corpus -> Pipeline -> diagnose_all(4) ->
//                breakdown render -> score (ingest dominates)
//   innet-store  the same path over a sealed v2 event store written during
//                set-up (diagnosis with path-dependent joins dominates)
//   bgp-stream   records offered one by one to StreamingRca with
//                persistence, flat out (closed loop) and at a fixed
//                300,000x sim-time rate (open loop)
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path data;  // generated corpus
  std::filesystem::path work;  // scratch space (stores, persistence logs)
};

struct RunResult {
  std::size_t attempted = 0;  // truth symptoms offered, summed over passes
  std::size_t failed = 0;     // of those: no verdict, or a wrong-path verdict
  std::vector<std::string> gate_failures;
  /// Truth symptoms that got no verdict in some job or pass, as
  /// "symptom@router@detail at T (cause)"; each counts in `failed`.
  std::set<std::string> no_verdict;
  std::map<std::string, Metric> metrics;  // reported in the result line
  std::map<std::string, double> details;  // sample counts, thread counts, ...
  SpanRecorder spans;                     // traced runs only
};

/// Writes the workload's seeded corpus (configs, inventory, records.tsv,
/// truth.tsv) under `out`.
void generate(const std::string& workload, std::uint64_t seed,
              const std::filesystem::path& out);

/// Runs the workload: untraced (end-to-end metrics) or traced (per-layer
/// metrics). Correctness gate failures are listed, never thrown.
RunResult run(const RunOptions& options);

}  // namespace perfbench
