// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The persisted event store: a core::EventStore loaded from a segmented
// event log directory, so diagnosis runs against a persisted corpus without
// re-ingesting raw telemetry.
//
// open() decodes every sealed segment (storage::read_sealed), then the
// WAL's valid frame prefix (storage::read_wal: a torn tail is skipped and
// counted, never modified — open is strictly read-only), into the store
// and finalizes it. Each sealed run's column region is checked against its
// CRC32C before it is decoded. Events are added per name in
// segment-sequence order with the WAL tail last, so the store's stable
// sort by start yields exactly the in-memory store's bucket order — the
// basis of the byte-identical-verdicts guarantee. A name held in one
// sealed run arrives already sorted and is never re-sorted.
//
// Threading: the store is finalized before open() returns, so every query
// is read-only and safe from any number of threads, as for any warmed
// EventStore.
#pragma once

#include <cstdint>
#include <filesystem>

#include "core/event_store.h"

namespace grca::storage {

class PersistentEventStore final : public core::EventStore {
 public:
  /// What open() found — surfaced by `grca store inspect` and the tests.
  struct OpenStats {
    std::size_t sealed_segments = 0;
    bool wal_present = false;
    std::uint64_t wal_events = 0;        // valid WAL frames adopted
    std::uint64_t recovered_bytes = 0;   // WAL frame bytes adopted
    std::uint64_t truncated_bytes = 0;   // torn WAL tail skipped
    std::uint64_t sealed_bytes = 0;      // total sealed segment bytes read
    std::uint64_t event_count = 0;
  };

  /// Opens the log at `dir`. Throws StorageError when the directory holds
  /// no segments at all, or when a sealed segment is damaged, naming the
  /// file (WAL damage is recovered, not fatal).
  static PersistentEventStore open(const std::filesystem::path& dir);

  const OpenStats& stats() const noexcept { return stats_; }
  /// Newest sealed watermark (0 when no sealed segment exists).
  util::TimeSec watermark() const noexcept { return watermark_; }

 private:
  PersistentEventStore() = default;

  util::TimeSec watermark_ = 0;
  OpenStats stats_;
};

}  // namespace grca::storage
