// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "apps/streaming.h"

#include <algorithm>
#include <chrono>

#include "obs/span.h"
#include "storage/event_log.h"

namespace grca::apps {

using collector::NormalizedRecord;
using util::TimeSec;

StreamingRca::StreamingRca(const topology::Network& net,
                           core::DiagnosisGraph graph,
                           StreamingOptions options)
    : net_(net),
      options_(options),
      normalizer_(net, &feed_health_),
      extractor_(net, options.extract),
      routing_(net),
      mapper_(net, routing_.ospf(), routing_.bgp()) {
  if (options_.extract.flap_pair_window + 120 > options_.freeze_horizon) {
    throw ConfigError(
        "StreamingRca: freeze_horizon must exceed the flap pairing window "
        "(+2 min slack), or flaps spanning the horizon would be lost");
  }
  // Resume before metrics enable so reloaded events are not double-counted
  // as fresh extractions, and before the engine exists so the store is
  // settled when diagnosis state initializes.
  if (!options_.persist_dir.empty()) {
    storage::SealedLoad sealed =
        storage::load_sealed_events(options_.persist_dir);
    // The crash-torn WAL is discarded: everything past the last seal is
    // re-derived from the re-fed stream (extract_floor_ gates duplicates).
    persist_ = std::make_unique<storage::EventLogWriter>(
        options_.persist_dir, /*discard_wal=*/true);
    if (sealed.watermark) {
      for (core::EventInstance& e : sealed.events) store_.add(std::move(e));
      store_.warm();
      extract_floor_ = *sealed.watermark;
      last_seal_cut_ = *sealed.watermark;
      resumed_from_ = sealed.watermark;
    }
  }
  store_.enable_metrics(obs::registry_ptr());
  if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
    freeze_lag_gauge_ = &reg->gauge("grca_streaming_freeze_lag_seconds");
    queue_depth_gauge_ = &reg->gauge("grca_streaming_queue_depth");
    batch_seconds_ = &reg->histogram("grca_streaming_batch_seconds");
    batch_size_ = &reg->histogram(
        "grca_streaming_batch_size",
        {0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  }
  engine_ = std::make_unique<core::RcaEngine>(std::move(graph), store_,
                                              mapper_);
  if (resumed_from_) {
    // Position the diagnosis cursor exactly where the killed incarnation
    // left off: at seal time (watermark W) every symptom starting before
    // W - settle had been diagnosed — the seal runs after diagnose_ready
    // within the same advance().
    auto symptoms = store_.all(engine_->graph().root());
    TimeSec ready = *resumed_from_ - options_.settle;
    while (diagnose_cursor_ < symptoms.size() &&
           symptoms[diagnose_cursor_].when.start < ready) {
      ++diagnose_cursor_;
    }
  }
  if (options_.workers > 1) {
    jobs_ = std::make_unique<util::BoundedQueue<DiagnosisJob>>(
        std::size_t{4} * options_.workers);
    workers_.reserve(options_.workers);
    for (unsigned i = 0; i < options_.workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

StreamingRca::~StreamingRca() {
  if (jobs_) jobs_->close();
  for (std::thread& t : workers_) t.join();
}

void StreamingRca::ingest(const telemetry::RawRecord& raw) {
  NormalizedRecord record;
  if (!normalizer_.normalize(raw, record)) return;  // unknown device
  constexpr TimeSec kNever = std::numeric_limits<TimeSec>::min();
  if ((frozen_cut_ != kNever && record.utc <= frozen_cut_) ||
      (high_water_ != kNever &&
       record.utc < high_water_ - options_.max_skew)) {
    ++dropped_late_;  // arrived after its region was finalized
    feed_health_.on_late_drop(record.source);
    return;
  }
  high_water_ = std::max(high_water_, record.utc);
  // Keep the buffer in normalize_stream's order, so equal-utc records reach
  // extraction in one order whatever their arrival order. Find the record's
  // utc run by utc alone, then place it within the run by the full order;
  // most records arrive nearly in order, so the run is near the back.
  auto [run_first, run_last] = std::equal_range(
      buffer_.begin(), buffer_.end(), record,
      [](const NormalizedRecord& x, const NormalizedRecord& y) {
        return x.utc < y.utc;
      });
  auto pos = std::upper_bound(run_first, run_last, record,
                              [](const NormalizedRecord& x,
                                 const NormalizedRecord& y) {
                                return collector::normalized_order(x, y) < 0;
                              });
  buffer_.insert(pos, std::move(record));
  ++stored_;
}

void StreamingRca::freeze_until(TimeSec new_cut) {
  if (new_cut <= frozen_cut_) return;
  // Extraction context: records somewhat before the region (so transitions
  // and pairings that began earlier resolve) through everything buffered.
  // On the very first freeze nothing has been finalized, so the whole
  // buffer is both context and freezable region.
  constexpr TimeSec kNever = std::numeric_limits<TimeSec>::min();
  TimeSec context_from =
      frozen_cut_ == kNever
          ? kNever
          : frozen_cut_ - options_.extract.flap_pair_window - 600;
  auto first = std::lower_bound(buffer_.begin(), buffer_.end(), context_from,
                                [](const NormalizedRecord& r, TimeSec t) {
                                  return r.utc < t;
                                });
  core::EventStore scratch;
  if (first != buffer_.end()) {
    extractor_.extract(
        std::span<const NormalizedRecord>(
            &*first, static_cast<std::size_t>(buffer_.end() - first)),
        scratch);
  }
  // extract_floor_ additionally masks the region a resumed engine already
  // reloaded from sealed segments — re-extracted twins of persisted events
  // must not re-enter the store (or the log). Only this tick's slice of
  // each bucket is sorted, never the whole re-extracted context; the store
  // receives it in all()'s order, so its buckets stay append-sorted.
  TimeSec effective_from =
      std::max({frozen_cut_, context_from, extract_floor_});
  std::vector<core::EventInstance> frozen;
  std::vector<const core::EventInstance*> slice;
  for (const std::string& name : scratch.event_names()) {
    scratch.starting_in(name, effective_from, new_cut, slice);
    for (const core::EventInstance* e : slice) frozen.push_back(*e);
  }
  // Write-ahead: the tick's frames are on the WAL, in one write, before
  // the events enter the store.
  if (persist_) persist_->append(frozen);
  for (core::EventInstance& e : frozen) store_.add(std::move(e));
  // Routing follows the freeze cut: monitor records in the frozen region are
  // final and strictly ordered. Because every replayed change time is >= the
  // previous routing_cut_ — and all diagnosed symptoms are older than that
  // cut — replay only appends routing epochs: epoch_at(t) for already-
  // diagnosed times never renumbers, so the engine's join cache stays valid
  // across batches without invalidation.
  auto route_first = std::lower_bound(
      buffer_.begin(), buffer_.end(), routing_cut_,
      [](const NormalizedRecord& r, TimeSec t) { return r.utc < t; });
  auto route_last = std::lower_bound(
      buffer_.begin(), buffer_.end(), new_cut,
      [](const NormalizedRecord& r, TimeSec t) { return r.utc < t; });
  if (route_first < route_last) {
    routing_.replay(std::span<const NormalizedRecord>(
        &*route_first, static_cast<std::size_t>(route_last - route_first)));
  }
  routing_cut_ = new_cut;
  frozen_cut_ = new_cut;
  // Trim records that can no longer contribute to any future extraction.
  TimeSec keep_from =
      frozen_cut_ - options_.extract.flap_pair_window - 2 * 600;
  auto keep = std::lower_bound(buffer_.begin(), buffer_.end(), keep_from,
                               [](const NormalizedRecord& r, TimeSec t) {
                                 return r.utc < t;
                               });
  buffer_.erase(buffer_.begin(), keep);
}

/// Join state for one batch pushed through the worker queue.
struct StreamingRca::Batch {
  std::vector<core::Diagnosis> results;
  std::mutex mutex;
  std::condition_variable done;
  std::size_t remaining = 0;
  std::exception_ptr error;
};

void StreamingRca::worker_loop() {
  DiagnosisJob job;
  while (jobs_->pop(job)) {
    std::exception_ptr error;
    try {
      job.batch->results[job.slot] = engine_->diagnose(*job.symptom);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard lock(job.batch->mutex);
    if (error && !job.batch->error) job.batch->error = error;
    if (--job.batch->remaining == 0) job.batch->done.notify_all();
  }
}

std::vector<core::Diagnosis> StreamingRca::diagnose_ready(TimeSec ready_cut) {
  auto t0 = std::chrono::steady_clock::now();
  auto symptoms = store_.all(engine_->graph().root());
  std::size_t first = diagnose_cursor_;
  while (diagnose_cursor_ < symptoms.size() &&
         symptoms[diagnose_cursor_].when.start < ready_cut) {
    ++diagnose_cursor_;
  }
  const std::size_t count = diagnose_cursor_ - first;
  diagnosed_count_ += count;
  if (batch_size_) batch_size_->observe(static_cast<double>(count));
  auto record_batch_time = [&] {
    if (batch_seconds_) {
      batch_seconds_->observe(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
    }
  };
  if (!jobs_ || count == 0) {
    std::vector<core::Diagnosis> out;
    out.reserve(count);
    for (std::size_t i = first; i < diagnose_cursor_; ++i) {
      out.push_back(engine_->diagnose(symptoms[i]));
    }
    record_batch_time();
    return out;
  }
  // Parallel stage: the store is frozen for the duration of the batch (the
  // next ingest/freeze happens only after this returns), so workers see a
  // read-only store. Pre-sort any dirty buckets from this thread first.
  store_.warm();
  Batch batch;
  batch.results.resize(count);
  batch.remaining = count;
  for (std::size_t i = 0; i < count; ++i) {
    jobs_->push(DiagnosisJob{&symptoms[first + i], i, &batch});
  }
  // Depth right after the producer finished: how far the workers are
  // behind at the moment the batch is fully enqueued.
  if (queue_depth_gauge_) {
    queue_depth_gauge_->set(static_cast<double>(jobs_->size()));
  }
  std::unique_lock lock(batch.mutex);
  batch.done.wait(lock, [&] { return batch.remaining == 0; });
  if (batch.error) std::rethrow_exception(batch.error);
  if (queue_depth_gauge_) queue_depth_gauge_->set(0.0);
  record_batch_time();
  return std::move(batch.results);
}

std::vector<core::Diagnosis> StreamingRca::advance(TimeSec now) {
  if (now < last_now_) {
    throw StateError("StreamingRca::advance: clock moved backwards (" +
                     std::to_string(now) + " after " +
                     std::to_string(last_now_) + ")");
  }
  last_now_ = now;
  {
    obs::ScopedSpan span("stream-freeze");
    freeze_until(now - options_.freeze_horizon);
  }
  update_freeze_lag();
  feed_health_.observe_clock(now);
  std::vector<core::Diagnosis> out;
  {
    obs::ScopedSpan span("stream-diagnose");
    out = diagnose_ready(frozen_cut_ - options_.settle);
  }
  // Seal only after the diagnosis pass: the resume logic depends on every
  // symptom older than watermark - settle having been diagnosed by the
  // time the watermark hits disk.
  maybe_seal(/*force=*/false);
  return out;
}

void StreamingRca::inject(core::EventInstance instance) {
  if (instance.name == engine_->graph().root()) {
    throw ConfigError(
        "StreamingRca::inject: cannot inject instances of the symptom "
        "root '" +
        instance.name + "' (the diagnosis cursor owns that bucket)");
  }
  store_.add(std::move(instance));
  ++injected_;
}

std::vector<core::Diagnosis> StreamingRca::drain() {
  if (high_water_ == std::numeric_limits<TimeSec>::min()) return {};
  {
    obs::ScopedSpan span("stream-freeze");
    freeze_until(high_water_ + 1);
  }
  update_freeze_lag();
  std::vector<core::Diagnosis> out;
  {
    obs::ScopedSpan span("stream-diagnose");
    out = diagnose_ready(std::numeric_limits<TimeSec>::max());
  }
  maybe_seal(/*force=*/true);
  return out;
}

void StreamingRca::maybe_seal(bool force) {
  constexpr TimeSec kNever = std::numeric_limits<TimeSec>::min();
  if (!persist_ || frozen_cut_ == kNever) return;
  if (!force) {
    // Establish the cadence baseline on the first freeze instead of
    // writing an empty segment at stream start.
    if (last_seal_cut_ == kNever) {
      last_seal_cut_ = frozen_cut_;
      return;
    }
    if (frozen_cut_ - last_seal_cut_ < options_.persist_seal_every) return;
  }
  // Nothing new and no watermark progress: a seal would only add an empty
  // segment carrying information already on disk (keeps drain idempotent).
  if (persist_->pending() == 0 && last_seal_cut_ == frozen_cut_) return;
  persist_->seal(frozen_cut_);
  last_seal_cut_ = frozen_cut_;
}

void StreamingRca::update_freeze_lag() {
  constexpr TimeSec kNever = std::numeric_limits<TimeSec>::min();
  if (freeze_lag_gauge_ && high_water_ != kNever && frozen_cut_ != kNever) {
    freeze_lag_gauge_->set(
        static_cast<double>(std::max<TimeSec>(0, high_water_ - frozen_cut_)));
  }
}

}  // namespace grca::apps
