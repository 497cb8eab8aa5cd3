// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The `grca benchmark` driver: runs the full scenario-class x topology
// matrix — each cell a seeded fault corpus generated on an imported real
// topology, diagnosed end-to-end through Pipeline and scored against ground
// truth — and renders one scorecard (precision/recall/F1 per cell, plus
// ingest+diagnosis throughput) in the RCAEval spirit: a fixed fault corpus
// whose accuracy is tracked across PRs via tools/bench_diff.py.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "simulation/fault_scenarios.h"
#include "util/table.h"

namespace grca::apps {

struct BenchmarkOptions {
  int days = 3;
  int target_symptoms = 120;   // ground-truth symptoms per cell
  double noise = 1.0;
  std::uint64_t seed = 29;     // mixed with topology+scenario names per cell
  unsigned threads = 0;        // diagnosis fan-out (0 = hardware)
  /// Include wall-clock throughput (records/min) in the scorecard. Disable
  /// for byte-stable output (golden fixtures, cross-machine CI gates).
  bool timing = true;
  /// Scenario classes to run; empty = all of them.
  std::vector<sim::ScenarioClass> scenarios;
};

/// One topology of the matrix (the Network outlives the benchmark run).
struct BenchmarkTopology {
  std::string name;
  const topology::Network* net = nullptr;
};

/// One (topology, scenario) cell of the scorecard.
struct BenchmarkCell {
  std::string topology;
  std::string scenario;
  std::string app;              // diagnosing application ("bgp"/"innet"/"cdn")
  std::size_t records = 0;      // raw telemetry records in the corpus
  std::size_t truth_total = 0;
  std::size_t diagnosed = 0;
  std::size_t matched = 0;
  std::size_t correct = 0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double records_per_min = 0.0;  // 0 when timing is disabled
};

struct BenchmarkResult {
  BenchmarkOptions options;
  std::vector<std::string> topologies;
  std::vector<std::string> scenarios;
  std::vector<BenchmarkCell> cells;  // topology-major, scenario-minor order
};

/// Micro-averaged precision/recall/F1 over a set of cells.
struct MicroAverage {
  std::size_t truth = 0, diagnosed = 0, correct = 0;

  void add(const BenchmarkCell& c) {
    truth += c.truth_total;
    diagnosed += c.diagnosed;
    correct += c.correct;
  }
  double precision() const {
    return diagnosed == 0 ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(diagnosed);
  }
  double recall() const {
    return truth == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(truth);
  }
  double f1() const {
    double p = precision(), r = recall();
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }
};

/// The micro-average over every cell of the matrix.
MicroAverage overall(const BenchmarkResult& result);

/// The per-cell corpus seed: `base` mixed with stable hashes of the topology
/// and scenario names.
std::uint64_t cell_seed(std::uint64_t base, std::string_view topology,
                        std::string_view scenario);

/// One cell's corpus: `scenario` generated on `net` at options' days,
/// symptoms and noise, seeded by cell_seed(options.seed, topology,
/// scenario). run_benchmark generates every cell through this, and `grca
/// learn`'s scenario mode regenerates one with it.
sim::StudyOutput cell_corpus(const topology::Network& net,
                             std::string_view topology,
                             sim::ScenarioClass scenario,
                             const BenchmarkOptions& options);

/// Runs the matrix. Cell corpora are deterministic in (options.seed,
/// topology name, scenario name) — independent of matrix composition, so
/// adding a topology never changes existing cells.
BenchmarkResult run_benchmark(const std::vector<BenchmarkTopology>& topologies,
                              const BenchmarkOptions& options);

/// The scorecard document ("grca-benchmark-v1"): per-cell metrics plus
/// per-scenario and overall micro-averages. Byte-stable for fixed inputs
/// when options.timing is false.
std::string render_scorecard_json(const BenchmarkResult& result);

/// Flat {"<topology>.<scenario>.<metric>": value} document for
/// tools/bench_diff.py gating (plus "overall.*" aggregates).
std::string render_gate_json(const BenchmarkResult& result);

/// Human-readable matrix for the terminal.
util::TextTable render_scorecard_table(const BenchmarkResult& result);

}  // namespace grca::apps
