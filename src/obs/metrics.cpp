// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "obs/metrics.h"

#include <algorithm>

namespace grca::obs {

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

}  // namespace detail

const std::vector<double>& Histogram::default_latency_bounds() {
  static const std::vector<double> bounds = {
      1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0};
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_latency_bounds();
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw ConfigError("Histogram: bucket bounds must be ascending");
  }
  for (Shard& s : shards_) {
    s.buckets =
        std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      s.buckets[i].store(0, std::memory_order_relaxed);
    }
  }
}

std::size_t Histogram::bucket_of(const std::vector<double>& bounds,
                                 double v) noexcept {
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

void Histogram::observe(double v) noexcept {
  Shard& s = shards_[detail::shard_index()];
  s.buckets[bucket_of(bounds_, v)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::add(const std::vector<std::uint64_t>& buckets,
                    double sum) noexcept {
  Shard& s = shards_[detail::shard_index()];
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < buckets.size() && i <= bounds_.size(); ++i) {
    s.buckets[i].fetch_add(buckets[i], std::memory_order_relaxed);
    count += buckets[i];
  }
  s.count.fetch_add(count, std::memory_order_relaxed);
  s.sum.fetch_add(sum, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.buckets.assign(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
      snap.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  return snap;
}

void MetricsRegistry::check_kind(const std::string& name, Kind kind) {
  auto [it, inserted] = kinds_.emplace(name, kind);
  if (!inserted && it->second != kind) {
    throw ConfigError("MetricsRegistry: '" + name +
                      "' already registered as a different metric kind");
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  check_kind(name, Kind::kCounter);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  check_kind(name, Kind::kGauge);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  check_kind(name, Kind::kHistogram);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = Snapshot::Hist{h->bounds(), h->snapshot()};
  }
  return snap;
}

MetricsRegistry& default_registry() {
  static MetricsRegistry registry;
  return registry;
}

namespace {
std::atomic<MetricsRegistry*> g_registry{&default_registry()};
}  // namespace

MetricsRegistry* registry_ptr() noexcept {
  return g_registry.load(std::memory_order_acquire);
}

MetricsRegistry* install_registry(MetricsRegistry* registry) noexcept {
  return g_registry.exchange(registry, std::memory_order_acq_rel);
}

}  // namespace grca::obs
