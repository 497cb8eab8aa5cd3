// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "storage/persistent_store.h"

#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/event_log.h"
#include "util/error.h"

namespace grca::storage {

PersistentEventStore PersistentEventStore::open(
    const std::filesystem::path& dir) {
  obs::ScopedSpan span("store-open");
  PersistentEventStore store;

  // Sealed segments first, in sequence order, each run checked before it
  // decodes; then the WAL's valid frame prefix, read-only: a torn tail is
  // skipped and counted, and a damaged header leaves nothing to adopt.
  SealedRead sealed = read_sealed(dir, [&store](core::EventInstance e) {
    store.add(std::move(e));
  });
  store.watermark_ = sealed.watermark.value_or(0);
  store.stats_.sealed_segments = sealed.files.size();
  store.stats_.sealed_bytes = sealed.bytes;
  WalRead wal = read_wal(dir / kWalName);
  store.stats_.wal_present = wal.present();
  store.stats_.wal_events = wal.events.size();
  store.stats_.recovered_bytes = wal.frame_bytes;
  store.stats_.truncated_bytes = wal.torn_bytes;
  for (core::EventInstance& e : wal.events) store.add(std::move(e));
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
