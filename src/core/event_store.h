// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Indexed storage for event instances. The Data Collector normalizes raw
// records into events and loads them here; the RCA engine then issues
// (event-name × time-window) queries during temporal-spatial correlation.
// Instances are kept sorted by start time per event name, so a window query
// is a binary search plus a linear scan of the overlap range.
//
// A bucket only goes dirty when an instance arrives that starts before the
// bucket's last one; a producer that adds in start order (the streaming
// engine) never pays a sort.
//
// Threading contract (freeze-then-query): add() and the first query after a
// mutation are single-threaded — queries lazily (re)sort dirty buckets.
// Calling warm() sorts every dirty bucket from the calling thread; from that
// point until the next add(), all query paths are physically const and safe
// to call from any number of threads concurrently. finalize() additionally
// pins that state permanently: further add() calls throw.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/event.h"
#include "core/location_table.h"
#include "obs/metrics.h"

namespace grca::core {

/// The read-side contract every event-store backend satisfies: the
/// in-memory EventStore below and the mmap-backed
/// storage::PersistentEventStore. The RCA engine, calibration and the
/// applications program against this view, so a diagnosis run is
/// backend-agnostic — and byte-identical across backends, because every
/// implementation returns instances in the same (start, insertion) order.
///
/// Implementations inherit the freeze-then-query threading contract:
/// after warm() returns (and until the backend mutates), every method here
/// is safe to call from any number of threads concurrently.
class EventStoreView {
 public:
  virtual ~EventStoreView() = default;

  /// Brings the view to its frozen, concurrently-queryable state.
  virtual void warm() const = 0;

  /// Allocation-free window query: clears `out` (capacity kept) and appends
  /// pointers to all instances of `name` overlapping [from, to] — i.e.
  /// start <= to and end >= from — in start-time order; returns how many.
  virtual std::size_t query_into(
      const std::string& name, util::TimeSec from, util::TimeSec to,
      std::vector<const EventInstance*>& out) const = 0;

  /// Convenience wrapper over query_into.
  std::vector<const EventInstance*> query(const std::string& name,
                                          util::TimeSec from,
                                          util::TimeSec to) const {
    std::vector<const EventInstance*> out;
    query_into(name, from, to, out);
    return out;
  }

  /// The interning table covering every instance's location; internally
  /// synchronized (the JoinCache interns projection results concurrently).
  virtual LocationTable& locations() const noexcept = 0;

  /// All instances of `name` in start-time order (empty span if none).
  virtual std::span<const EventInstance> all(const std::string& name) const = 0;

  /// Every distinct event name present, sorted.
  virtual std::vector<std::string> event_names() const = 0;

  virtual std::size_t total_instances() const noexcept = 0;
};

class EventStore : public EventStoreView {
 public:
  /// Adds one instance. Instances may arrive in any order; an instance that
  /// starts before its bucket's last one marks the bucket for a lazy
  /// (re)sort on the next query. Throws ConfigError after finalize().
  void add(EventInstance instance);

  /// Sorts every dirty bucket now and interns every instance location into
  /// locations(); only instances added since the last warm() are visited,
  /// unless a sort moved interned ones. After this returns — and until the
  /// next add() — queries are read-only and safe from concurrent threads.
  void warm() const override;

  /// warm() plus a permanent write lock: any later add() throws ConfigError.
  /// Call once ingestion is complete and before sharing the store across
  /// diagnosis threads.
  void finalize();

  bool finalized() const noexcept { return finalized_; }

  /// Mirrors every add() into `registry` as per-signature-class counters
  /// (`grca_events_total{event="<name>"}`). Pass nullptr to disable.
  void enable_metrics(obs::MetricsRegistry* registry) noexcept {
    metrics_ = registry;
  }

  /// All instances of `name` whose interval could overlap an expanded window
  /// [from, to] — i.e. start <= to and end >= from. `max_duration` hints the
  /// longest instance duration for the backward scan; the store tracks it
  /// automatically.
  std::vector<const EventInstance*> query(const std::string& name,
                                          util::TimeSec from,
                                          util::TimeSec to) const;

  /// Window query further filtered by a predicate.
  std::vector<const EventInstance*> query(
      const std::string& name, util::TimeSec from, util::TimeSec to,
      const std::function<bool(const EventInstance&)>& pred) const;

  /// Allocation-free window query: clears `out` (capacity kept) and appends
  /// the same pointers query() would return. Batch callers reuse one scratch
  /// vector across thousands of queries so the hot path stops allocating;
  /// returns the number of instances appended.
  std::size_t query_into(const std::string& name, util::TimeSec from,
                         util::TimeSec to,
                         std::vector<const EventInstance*>& out) const override;

  /// The interning table covering every stored instance's location once the
  /// store has been warmed (instances added later are interned by the next
  /// warm()). The table itself is internally synchronized — the JoinCache
  /// also interns projection results into it during concurrent diagnosis.
  LocationTable& locations() const noexcept override { return *locations_; }

  /// All instances of `name` in start-time order (empty span if none).
  std::span<const EventInstance> all(const std::string& name) const override;

  /// Every distinct event name present.
  std::vector<std::string> event_names() const override;

  std::size_t total_instances() const noexcept override { return total_; }

 private:
  struct Bucket {
    std::vector<EventInstance> items;   // sorted by when.start once clean
    util::TimeSec max_duration = 0;
    bool dirty = false;
    std::size_t interned = 0;           // interned prefix; a sort resets it
    obs::Counter* counter = nullptr;    // resolved once per signature class
  };
  void ensure_sorted(const Bucket& bucket) const;

  std::unordered_map<std::string, Bucket> buckets_;
  std::size_t total_ = 0;
  bool finalized_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;
  // unique_ptr so the store stays movable (the table pins a shared_mutex).
  std::unique_ptr<LocationTable> locations_ = std::make_unique<LocationTable>();
};

}  // namespace grca::core
