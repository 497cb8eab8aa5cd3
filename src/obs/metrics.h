// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The observability metrics registry. The paper's G-RCA ran as an always-on
// platform against ~600 production feeds, where "is the data flowing and is
// diagnosis keeping up?" was a first-class operational question. This module
// provides the primitives the rest of the platform reports into:
//
//  - Counter:   monotonically increasing, sharded over cache-line-padded
//               atomics so concurrent hot-path increments (8+ diagnosis
//               workers) never contend on one cache line;
//  - Gauge:     a last-written value (queue depth, freeze-horizon lag);
//  - Histogram: fixed upper-bucket-bound distribution (latencies, batch
//               sizes), sharded like counters.
//
// Naming convention: Prometheus-style `snake_case_total` names, with an
// optional label set appended verbatim — e.g.
// `grca_collector_records_total{source="syslog"}`. The exporters
// (obs/export.h) split the label block off the name, so one registry entry
// per (metric, label-value) pair is the model (exactly how client libraries
// store label children).
//
// Threading contract: metric mutation (inc/set/observe) is lock-free and
// safe from any thread. Registration (counter()/gauge()/histogram()) takes
// the registry mutex and returns a reference that remains valid for the
// registry's lifetime. Reads (value()/snapshot()) are safe concurrently
// with writers; they see a value at least as fresh as the last write that
// happened-before the read, which is all an exporter needs.
//
// A process-wide default registry is installed at startup so binaries get
// metrics with zero setup; install_registry(nullptr) disables every
// instrumentation site that is constructed afterwards (instrumented code
// holds plain pointers and skips null), which is the "compiled to
// near-nothing" off switch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.h"

namespace grca::obs {

/// Shard count for counters and histograms. A small power of two: enough
/// that 8-16 diagnosis workers rarely collide, small enough that summing a
/// metric stays trivial.
inline constexpr std::size_t kShards = 16;

namespace detail {
/// Stable per-thread shard index (round-robin assigned on first use).
std::size_t shard_index() noexcept;
}  // namespace detail

/// A monotonically increasing counter, sharded over padded atomics.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    shards_[detail::shard_index()].value.fetch_add(n,
                                                   std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_;
};

/// A last-written value. set() is a plain atomic store; add() is a
/// fetch-add. Single 8-byte slot — gauges are updated from coordinator
/// threads (tick loops), not per-record hot paths.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept {
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// A fixed-bucket histogram: `bounds` are inclusive upper bucket bounds in
/// ascending order; an implicit +Inf bucket catches the rest. Bucket
/// counts, the observation count and the sum are all sharded.
class Histogram {
 public:
  /// Default bounds suited to seconds-scale latencies (1 µs .. 60 s).
  static const std::vector<double>& default_latency_bounds();

  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  /// The bucket `v` falls in under `bounds`: the first bound >= v, or
  /// bounds.size() (+Inf) above the last.
  static std::size_t bucket_of(const std::vector<double>& bounds,
                               double v) noexcept;

  /// Adds observations made elsewhere in one step: `buckets[i]` more in
  /// bucket i (one count per bucket, +Inf last) and `sum` to the sum. The
  /// snapshot then equals observe() called once per observation whenever
  /// their sum is exact (integer values, say).
  void add(const std::vector<std::uint64_t>& buckets, double sum) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }

  struct Snapshot {
    std::vector<std::uint64_t> buckets;  // per-bound + final +Inf bucket
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot snapshot() const;

 private:
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::array<Shard, kShards> shards_;
};

/// Named metric storage. Metrics are created on first request and live as
/// long as the registry; requesting an existing name returns the same
/// object (so independent components share e.g. one diagnosis counter).
/// Requesting a name already registered as a different kind throws
/// ConfigError.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is used only when the histogram does not exist yet; empty
  /// selects Histogram::default_latency_bounds().
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// A consistent, name-ordered view for the exporters. Values are read
  /// with relaxed atomics; concurrent writers are fine.
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    struct Hist {
      std::vector<double> bounds;
      Histogram::Snapshot data;
    };
    std::map<std::string, Hist> histograms;
  };
  Snapshot snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  void check_kind(const std::string& name, Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Kind> kinds_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide default registry (constructed on first use).
MetricsRegistry& default_registry();

/// The currently installed registry, or nullptr when observability is
/// disabled. Instrumented components read this once at construction.
MetricsRegistry* registry_ptr() noexcept;

/// Installs `registry` as the process-wide registry (nullptr disables
/// instrumentation for components constructed afterwards). Returns the
/// previously installed registry.
MetricsRegistry* install_registry(MetricsRegistry* registry) noexcept;

/// RAII install-then-restore, for tests that want a private registry.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(MetricsRegistry* registry)
      : previous_(install_registry(registry)) {}
  ~ScopedRegistry() { install_registry(previous_); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

}  // namespace grca::obs
