// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "storage/persistent_store.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/event_log.h"
#include "util/error.h"

namespace grca::storage {

PersistentEventStore PersistentEventStore::open(
    const std::filesystem::path& dir) {
  obs::ScopedSpan span("store-open");
  PersistentEventStore store;
  store.dir_ = dir;

  // Sealed segments in sequence order. SegmentReader::open already refuses
  // a damaged footer or a v1 sealed segment, and read_all_events a run
  // whose column region fails its checksum; a live segment under a sealed
  // segment's name is refused here (verify is the diagnostic tool).
  for (const std::filesystem::path& path : list_segments(dir)) {
    SegmentReader seg = SegmentReader::open(path);
    if (!seg.sealed()) {
      throw StorageError("storage: segment " + path.string() +
                         " is not sealed");
    }
    store.stats_.sealed_bytes += seg.size();
    store.watermark_ = std::max(store.watermark_, seg.v2_footer().watermark);
    for (core::EventInstance& e : seg.read_all_events()) {
      store.add(std::move(e));
    }
    ++store.stats_.sealed_segments;
  }

  // Recover the WAL read-only: adopt the valid frame prefix, skip (and
  // count) the torn tail. Damage before the first frame means nothing is
  // recoverable.
  std::filesystem::path wal_path = dir / kWalName;
  if (std::filesystem::exists(wal_path)) {
    store.stats_.wal_present = true;
    SegmentReader::Scan scan;
    try {
      scan = SegmentReader::open(wal_path).scan_frames();
      store.stats_.recovered_bytes =
          scan.valid_bytes > kSegmentHeaderBytes
              ? scan.valid_bytes - kSegmentHeaderBytes
              : 0;
      store.stats_.truncated_bytes = scan.dropped_bytes;
    } catch (const StorageError&) {
      store.stats_.truncated_bytes = std::filesystem::file_size(wal_path);
    }
    store.stats_.wal_events = scan.events.size();
    for (core::EventInstance& e : scan.events) store.add(std::move(e));
  }
  if (store.stats_.sealed_segments == 0 && !store.stats_.wal_present) {
    throw StorageError("storage: no event log at " + dir.string() +
                       " (no segments, no WAL)");
  }
  store.finalize();
  store.stats_.event_count = store.total_instances();

  if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
    reg->counter("grca_storage_opens_total").inc();
    reg->gauge("grca_storage_segments")
        .set(static_cast<double>(store.stats_.sealed_segments));
    // The gauge keeps its historical name; it counts sealed bytes read.
    reg->gauge("grca_storage_mapped_bytes")
        .set(static_cast<double>(store.stats_.sealed_bytes));
    if (store.stats_.recovered_bytes > 0) {
      reg->counter("grca_storage_recovered_bytes")
          .inc(store.stats_.recovered_bytes);
    }
    if (store.stats_.truncated_bytes > 0) {
      reg->counter("grca_storage_truncated_bytes")
          .inc(store.stats_.truncated_bytes);
    }
  }
  return store;
}

}  // namespace grca::storage
