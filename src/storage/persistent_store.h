// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The mmap-backed event store: a core::EventStoreView served straight from
// a segmented event log directory, so diagnosis runs against a persisted
// corpus without re-ingesting raw telemetry.
//
// open() maps every segment (sealed segments plus the WAL's valid frame
// prefix — a torn tail is skipped and counted, never modified: the reader
// is strictly read-only) and builds the per-name index from segment
// footers alone; no row is deserialized yet. Queries then decode lazily:
//
//  - A name stored wholly in one sealed run goes through two tiers.
//    Tier 1: the query binary-searches the footer's zone maps (min/max
//    start per block) — blocks whose start range misses the window are
//    skipped without touching their bytes — and delta-decodes just the
//    timestamp columns of the surviving blocks into contiguous start/end
//    arrays it then scans allocation-free. Tier 2: only the rows the
//    timestamp scan selects AND whose end can still overlap the window are
//    materialized (name, location, attrs), row by row; everything else
//    just advances the column cursors.
//  - A name spread over several segments (or with WAL-tail frames) is
//    merged eagerly at open: rows concatenated in segment-sequence order
//    and stable-sorted by start, which is exactly the in-memory store's
//    bucket order — the basis of the byte-identical-verdicts guarantee.
//
// Threading: the view is frozen from construction. Lazy materialization is
// internally synchronized (per-bucket mutex + per-block ready flags with
// acquire/release ordering), so all EventStoreView methods are safe from
// any number of threads, matching the warmed in-memory store. Returned
// EventInstance pointers stay valid for the store's lifetime (slots are
// preallocated; decode never reallocates).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/event_store.h"
#include "storage/segment.h"

namespace grca::storage {

class PersistentEventStore final : public core::EventStoreView {
 public:
  /// What open() found — surfaced by `grca store inspect` and the tests.
  struct OpenStats {
    std::size_t sealed_segments = 0;
    bool wal_present = false;
    std::uint64_t wal_events = 0;        // valid WAL frames adopted
    std::uint64_t recovered_bytes = 0;   // WAL frame bytes adopted
    std::uint64_t truncated_bytes = 0;   // torn WAL tail skipped
    std::uint64_t mapped_bytes = 0;      // total segment bytes mapped
    std::uint64_t event_count = 0;
  };

  /// Opens the log at `dir`. Throws StorageError when the directory holds
  /// no segments at all, or when a sealed segment is damaged (WAL damage
  /// is recovered, not fatal).
  static PersistentEventStore open(const std::filesystem::path& dir);

  PersistentEventStore(PersistentEventStore&&) = default;
  PersistentEventStore& operator=(PersistentEventStore&&) = default;

  // core::EventStoreView -----------------------------------------------
  /// No-op: open() already froze the view and queries synchronize
  /// internally. Present so backend-generic code can follow the
  /// freeze-then-query protocol unconditionally.
  void warm() const override {}
  std::size_t query_into(
      const std::string& name, util::TimeSec from, util::TimeSec to,
      std::vector<const core::EventInstance*>& out) const override;
  core::LocationTable& locations() const noexcept override {
    return *locations_;
  }
  std::span<const core::EventInstance> all(
      const std::string& name) const override;
  std::vector<std::string> event_names() const override { return names_; }
  std::size_t total_instances() const noexcept override { return total_; }

  // Storage-specific ----------------------------------------------------
  const OpenStats& stats() const noexcept { return stats_; }
  /// Newest sealed watermark (0 when no sealed segment exists).
  util::TimeSec watermark() const noexcept { return watermark_; }
  const std::filesystem::path& dir() const noexcept { return dir_; }

  /// Cumulative query-path counters (zone-map effectiveness). Monotone,
  /// thread-safe; the scaling bench derives its skip ratio from these.
  struct QueryStats {
    std::atomic<std::uint64_t> zone_blocks_considered{0};
    std::atomic<std::uint64_t> zone_blocks_skipped{0};
    std::atomic<std::uint64_t> rows_materialized{0};
  };
  const QueryStats& query_stats() const noexcept { return *query_stats_; }

  /// Disables zone-map block skipping (every query scans the whole
  /// run's timestamps). Results must be identical either way — this exists
  /// so tests can prove it.
  void set_zone_pruning(bool on) noexcept { zone_pruning_ = on; }

 private:
  /// One sealed name-run, served in two lazy tiers straight off the
  /// mapped columns (see the file comment).
  struct LazyV2Run {
    const SegmentReader* seg = nullptr;
    const V2Run* run = nullptr;
    // Segment location-dictionary id -> this store's interned LocId,
    // precomputed at open so row materialization is an array lookup
    // instead of a per-row Location hash + table probe.
    const core::LocId* loc_map = nullptr;
    // Tier 1: contiguous per-row timestamp arrays, decoded per block.
    std::unique_ptr<util::TimeSec[]> starts;           // run->count entries
    std::unique_ptr<util::TimeSec[]> ends;             // run->count entries
    std::unique_ptr<std::atomic<bool>[]> ts_ready;     // per block
    // Tier 2: materialized rows. Row-granular so a query materializes
    // exactly the rows its timestamp scan selected — skipped rows in the
    // same block only advance the column cursors.
    std::unique_ptr<core::EventInstance[]> slots;      // run->count entries
    std::unique_ptr<std::atomic<bool>[]> row_ready;    // per row
    std::mutex decode_mutex;
    std::size_t block_count = 0;

    std::size_t slot_count() const noexcept {
      return static_cast<std::size_t>(run->count);
    }
  };

  struct Bucket {
    util::TimeSec max_duration = 0;
    LazyV2Run* lazy = nullptr;                 // single sealed run, or
    std::vector<core::EventInstance> merged;   // eager multi-source merge
  };

  PersistentEventStore() = default;

  /// Tier 1: timestamp arrays ready for blocks [first_block, last_block).
  void ensure_v2_timestamps(const LazyV2Run& lazy, std::size_t first_block,
                            std::size_t last_block) const;
  /// Tier 2: rows [first, last) whose end reaches `min_end` materialized
  /// (row granularity; rows the window query would filter out anyway are
  /// never built — their column cursors just advance). Callers passing a
  /// real min_end must have tier-1 timestamps ready for the range; the
  /// default materializes unconditionally.
  void ensure_v2_rows(
      const LazyV2Run& lazy, std::size_t first, std::size_t last,
      util::TimeSec min_end =
          std::numeric_limits<util::TimeSec>::min()) const;

  std::filesystem::path dir_;
  // unique_ptrs keep addresses stable under the map's growth and the
  // store's moves; LazyV2Run pins a mutex so it lives behind unique_ptr.
  std::vector<std::unique_ptr<SegmentReader>> segments_;
  // Per-segment dictionary translation (dict id -> interned LocId);
  // inner buffers are stable under outer growth and store moves, so
  // LazyV2Run::loc_map can point straight at them.
  std::vector<std::vector<core::LocId>> v2_loc_maps_;
  std::vector<std::unique_ptr<LazyV2Run>> lazy_v2_runs_;
  std::unordered_map<std::string, Bucket> buckets_;
  std::vector<std::string> names_;  // sorted
  std::size_t total_ = 0;
  util::TimeSec watermark_ = 0;
  bool zone_pruning_ = true;
  std::unique_ptr<QueryStats> query_stats_ = std::make_unique<QueryStats>();
  OpenStats stats_;
  std::unique_ptr<core::LocationTable> locations_ =
      std::make_unique<core::LocationTable>();
};

}  // namespace grca::storage
