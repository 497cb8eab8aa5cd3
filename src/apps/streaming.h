// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Streaming (real-time) RCA — the paper's §VI future-work item "support
// real-time root cause applications", built on the same collector and
// engine as the batch pipeline.
//
// Design: raw records are ingested as they arrive (out-of-order within a
// bounded skew), and each accepted record is observed once by the
// extraction fold (collector::EventExtractor). Event extraction is
// finalized behind a sliding *freeze horizon* H: an event starting before
// `now - H` can no longer change (every flap pairs within the pairing
// window < H), so each tick emits it from the fold, exactly once, into the
// store. Symptom instances are diagnosed once they are both
// frozen and older than the *settle window* S — the maximum forward
// lookahead any diagnosis rule needs — so late diagnostic evidence is
// guaranteed to be present. Each advance() returns the newly completed
// diagnoses; detection latency is therefore bounded by S plus the tick
// interval.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "collector/extract.h"
#include "collector/normalizer.h"
#include "collector/routing_rebuild.h"
#include "core/engine.h"
#include "obs/feed_health.h"
#include "storage/segment.h"
#include "util/thread_pool.h"

namespace grca::storage {
class EventLogWriter;
}  // namespace grca::storage

namespace grca::apps {

struct StreamingOptions {
  /// Freeze horizon: extraction is finalized this far behind `now`. Must
  /// exceed the flap-pairing window.
  util::TimeSec freeze_horizon = 2 * util::kHour;
  /// Settle window: symptoms are diagnosed this long after they start, so
  /// delayed evidence (timers, 5-minute SNMP bins) has arrived.
  util::TimeSec settle = 600;
  /// Maximum tolerated arrival skew; older records are dropped and counted.
  util::TimeSec max_skew = util::kHour;
  /// Diagnosis workers between event freezing and diagnosis: 0 or 1
  /// diagnoses inline on the caller's thread; N > 1 starts N persistent
  /// workers fed through a bounded queue. Diagnoses are returned in the
  /// same order as the serial run regardless of worker count.
  unsigned workers = 1;
  collector::ExtractOptions extract;
  /// Write-ahead persistence (empty = off): each tick's frozen events are
  /// appended, in one WAL write, to the segmented event log at this
  /// directory just before they enter the store, and the log is sealed
  /// into a columnar segment every `persist_seal_every` stream-seconds of
  /// freeze progress (and on drain()). If the directory already holds
  /// sealed segments, the engine *resumes*: sealed events reload into the
  /// store, extraction of the already-persisted region is suppressed, and
  /// the diagnosis cursor skips symptoms the previous incarnation already
  /// reported — re-feeding the same raw stream then yields exactly the
  /// diagnoses the killed run never got to emit. A leftover WAL (torn by
  /// the crash) is discarded: its events are re-derived from the stream.
  std::filesystem::path persist_dir;
  util::TimeSec persist_seal_every = util::kHour;
};

class StreamingRca {
 public:
  StreamingRca(const topology::Network& net, core::DiagnosisGraph graph,
               StreamingOptions options = {});

  /// Drains the diagnosis worker stage (closes the job queue, joins the
  /// workers). Any batch in flight completes first.
  ~StreamingRca();

  /// Feeds one raw record. Records may arrive out of order by up to
  /// max_skew relative to the high-water mark already ingested. Every record
  /// is accounted for in exactly one of stored() / rejected() /
  /// dropped_late() — the conservation invariant the replay harness checks.
  void ingest(const telemetry::RawRecord& raw);

  /// Advances the stream clock and returns diagnoses newly completed at
  /// `now`. `now` must be non-decreasing across calls; a backwards clock is
  /// a caller bug and throws StateError (the contract is pinned, not UB).
  std::vector<core::Diagnosis> advance(util::TimeSec now);

  /// Finalizes everything buffered and diagnoses all remaining symptoms.
  /// Idempotent: a second drain() (with no ingest in between) returns an
  /// empty vector.
  std::vector<core::Diagnosis> drain();

  /// Injects a synthesized (non-telemetry) event instance directly into the
  /// event store — the alert engine's path for "missing data" evidence. Call
  /// from the ingest thread between advance() calls only: the store is
  /// single-writer and must not move while a diagnosis batch is in flight.
  /// Injected instances are not written to the persistence WAL (they are
  /// re-derivable from the feed-health metrics that raised them) and must
  /// not use the graph root's name — the diagnosis cursor walks the root
  /// bucket by insertion order, so a foreign instance there would corrupt
  /// resume bookkeeping. Throws ConfigError on a root-named instance.
  void inject(core::EventInstance instance);
  /// Instances added through inject() so far.
  std::size_t injected() const noexcept { return injected_; }

  const core::EventStore& store() const noexcept { return store_; }
  /// Records accepted (normalized, within skew) and observed by the
  /// extractor.
  std::size_t stored() const noexcept { return stored_; }
  /// Records rejected by the collector (unknown device).
  std::size_t rejected() const noexcept { return normalizer_.dropped(); }
  std::size_t dropped_late() const noexcept { return dropped_late_; }
  std::size_t diagnosed() const noexcept { return diagnosed_count_; }

  /// Per-source feed health (arrival counts, lag, gaps, late drops),
  /// updated on every ingest and re-evaluated against the clock on every
  /// advance(). Call from the ingest thread.
  const obs::FeedHealthMonitor& feed_health() const noexcept {
    return feed_health_;
  }

  /// The sealed watermark this engine resumed from, when persistence found
  /// an existing log (nullopt on a fresh start or without persistence).
  std::optional<util::TimeSec> resumed_from() const noexcept {
    return resumed_from_;
  }

 private:
  /// Emits the extractor's events starting before new_cut into the store
  /// (through the WAL) and replays routing up to new_cut.
  void freeze_until(util::TimeSec new_cut);
  /// Diagnoses frozen, settled, not-yet-diagnosed symptoms. With workers
  /// configured, the batch is pushed through the bounded queue and this
  /// call blocks until the whole batch is diagnosed — the store is never
  /// mutated while workers are running.
  std::vector<core::Diagnosis> diagnose_ready(util::TimeSec ready_cut);
  /// Publishes high_water - frozen_cut to the freeze-lag gauge.
  void update_freeze_lag();
  /// Seals the persistence log at the current freeze cut when the seal
  /// cadence has elapsed (`force` ignores the cadence — drain()).
  void maybe_seal(bool force);

  /// Join state for one in-flight diagnosis batch (defined in streaming.cpp).
  struct Batch;
  /// One slot of an in-flight diagnosis batch, handed to a worker.
  struct DiagnosisJob {
    const core::EventInstance* symptom = nullptr;
    std::size_t slot = 0;
    Batch* batch = nullptr;
  };
  void worker_loop();

  const topology::Network& net_;
  StreamingOptions options_;
  obs::FeedHealthMonitor feed_health_;  // must precede normalizer_
  collector::Normalizer normalizer_;
  collector::EventExtractor extractor_;
  collector::RebuiltRouting routing_;
  core::LocationMapper mapper_;
  core::EventStore store_;
  std::unique_ptr<core::RcaEngine> engine_;

  /// Write-ahead persistence (see StreamingOptions::persist_dir); null
  /// when persistence is off. Complete type only in streaming.cpp.
  std::unique_ptr<storage::EventLogWriter> persist_;
  /// Events starting before this are already sealed on disk (resume):
  /// extraction re-derives but does not re-add or re-append them.
  util::TimeSec extract_floor_ = std::numeric_limits<util::TimeSec>::min();
  util::TimeSec last_seal_cut_ = std::numeric_limits<util::TimeSec>::min();
  std::optional<util::TimeSec> resumed_from_;

  /// Worker stage between event ingestion and diagnosis: ingestion (the
  /// caller's thread) produces frozen symptom batches into the bounded
  /// queue; the workers consume and diagnose. Empty when workers <= 1.
  std::unique_ptr<util::BoundedQueue<DiagnosisJob>> jobs_;
  std::vector<std::thread> workers_;

  /// Monitor records (OSPF, BGP) not yet replayed into routing_, in
  /// normalized_order from routing_head_ on; the prefix before it is spent.
  std::vector<collector::NormalizedRecord> routing_buffer_;
  std::size_t routing_head_ = 0;
  util::TimeSec high_water_ = std::numeric_limits<util::TimeSec>::min();
  util::TimeSec frozen_cut_ = std::numeric_limits<util::TimeSec>::min();
  util::TimeSec last_now_ = std::numeric_limits<util::TimeSec>::min();
  std::size_t diagnose_cursor_ = 0;  // symptoms diagnosed so far (by order)
  std::size_t stored_ = 0;
  std::size_t dropped_late_ = 0;
  std::size_t diagnosed_count_ = 0;
  std::size_t injected_ = 0;

  // Streaming instrumentation (null when no registry is installed).
  obs::Gauge* freeze_lag_gauge_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Histogram* batch_seconds_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
};

}  // namespace grca::apps
