// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "apps/streaming.h"

#include <algorithm>
#include <chrono>

#include "obs/span.h"

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
    storage::SealedRead sealed = storage::read_sealed(
        options_.persist_dir,
        [this](core::EventInstance e) { store_.add(std::move(e)); });
    // The writer drops the crash-torn WAL: everything past the last seal is
    // re-derived from the re-fed stream (extract_floor_ gates duplicates).
    persist_ = std::make_unique<storage::EventLogWriter>(options_.persist_dir);
    if (sealed.watermark) {
      store_.warm();
      extract_floor_ = *sealed.watermark;
      last_seal_cut_ = *sealed.watermark;
      resumed_from_ = sealed.watermark;
    }
  }
  store_.enable_metrics(obs::registry_ptr());
  if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
    freeze_lag_gauge_ = &reg->gauge("grca_streaming_freeze_lag_seconds");
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
  ++stored_;
  extractor_.observe(record);
  if (record.source != telemetry::SourceType::kOspfMon &&
      record.source != telemetry::SourceType::kBgpMon) {
    return;
  }
  // Routing replays monitor records in normalize_stream's order, so
  // equal-utc records apply in one order whatever their arrival order. Find
  // the record's utc run by utc alone, then place it within the run by the
  // full order; most records arrive nearly in order, so the run is near the
  // back.
  auto [run_first, run_last] = std::equal_range(
      routing_buffer_.begin() + static_cast<std::ptrdiff_t>(routing_head_),
      routing_buffer_.end(), record,
      [](const NormalizedRecord& x, const NormalizedRecord& y) {
        return x.utc < y.utc;
      });
  auto pos = std::upper_bound(run_first, run_last, record,
                              [](const NormalizedRecord& x,
                                 const NormalizedRecord& y) {
                                return collector::normalized_order(x, y) < 0;
                              });
  routing_buffer_.insert(pos, std::move(record));
}

void StreamingRca::freeze_until(TimeSec new_cut) {
  if (new_cut <= frozen_cut_) return;
  std::vector<core::EventInstance> frozen;
  extractor_.emit(new_cut, frozen);
  // Instances below the previous cut come from records observed after it
  // (late, yet inside max_skew) and are dropped, as the region they fall in
  // is already final; extract_floor_ masks the region a resumed engine
  // reloaded from sealed segments, so persisted events do not re-enter the
  // store or the log. What is left starts at or after every earlier tick's
  // events, so the store's buckets stay append-sorted.
  TimeSec floor = std::max(frozen_cut_, extract_floor_);
  std::erase_if(frozen, [floor](const core::EventInstance& e) {
    return e.when.start < floor;
  });
  // Write-ahead: the tick's frames are on the WAL, in one write, before
  // the events enter the store.
  if (persist_) persist_->append(frozen);
  for (core::EventInstance& e : frozen) store_.add(std::move(e));
  // Routing follows the freeze cut: monitor records in the frozen region are
  // final and strictly ordered. Because every replayed change time is >= the
  // previous freeze cut — and all diagnosed symptoms are older than that
  // cut — replay only appends routing epochs: epoch_at(t) for already-
  // diagnosed times never renumbers, so the engine's join memo stays valid
  // across batches without invalidation.
  auto route_first =
      routing_buffer_.begin() + static_cast<std::ptrdiff_t>(routing_head_);
  auto route_last = std::lower_bound(
      route_first, routing_buffer_.end(), new_cut,
      [](const NormalizedRecord& r, TimeSec t) { return r.utc < t; });
  if (route_first < route_last) {
    routing_.replay(std::span<const NormalizedRecord>(
        &*route_first, static_cast<std::size_t>(route_last - route_first)));
  }
  // Replayed records are spent. They leave from the front in amortized O(1):
  // the head moves, and the spent prefix is erased once it is half the
  // buffer.
  routing_head_ =
      static_cast<std::size_t>(route_last - routing_buffer_.begin());
  if (2 * routing_head_ >= routing_buffer_.size()) {
    routing_buffer_.erase(
        routing_buffer_.begin(),
        routing_buffer_.begin() + static_cast<std::ptrdiff_t>(routing_head_));
    routing_head_ = 0;
  }
  frozen_cut_ = new_cut;
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
  std::vector<core::Diagnosis> out;
  out.reserve(count);
  for (std::size_t i = first; i < diagnose_cursor_; ++i) {
    out.push_back(engine_->diagnose(symptoms[i]));
  }
  if (batch_seconds_) {
    batch_seconds_->observe(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
  }
  return out;
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
