// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "obs/feed_health.h"

#include <algorithm>

#include "obs/export.h"

namespace grca::obs {

using telemetry::SourceType;
using util::TimeSec;

namespace {

/// Arrival-lag bounds in seconds: sub-minute through multi-hour skew.
const std::vector<double> kLagBounds = {1,   5,    30,   60,   300,
                                        900, 1800, 3600, 7200, 21600};

/// How far behind `arrival_utc` a record of `event_utc` arrived; never
/// negative.
TimeSec lag_of(TimeSec event_utc, TimeSec arrival_utc) {
  return std::max<TimeSec>(0, arrival_utc - event_utc);
}

std::string series(const char* name, SourceType source) {
  return prometheus_label(name, "source",
                          std::string(telemetry::to_string(source)));
}

}  // namespace

TimeSec FeedHealthMonitor::expected_cadence(SourceType source) noexcept {
  switch (source) {
    case SourceType::kSnmp:
    case SourceType::kPerfMon:
    case SourceType::kCdnMon:
      return 300;  // 5-minute pollers / probes
    case SourceType::kServerLog:
      return 600;
    case SourceType::kSyslog:
      return util::kHour;  // event-driven, but busy networks log steadily
    case SourceType::kLayer1Log:
    case SourceType::kTacacs:
    case SourceType::kOspfMon:
    case SourceType::kBgpMon:
    case SourceType::kWorkflowLog:
      return util::kDay;  // purely event-driven; silence is normal
  }
  return util::kDay;
}

FeedHealthMonitor::FeedHealthMonitor(MetricsRegistry* registry)
    : registry_(registry), feeds_(kSourceCount) {}

FeedHealthMonitor::Feed& FeedHealthMonitor::feed(SourceType source) {
  Feed& f = feeds_[static_cast<std::size_t>(source)];
  if (!f.seen) {
    f.seen = true;
    if (registry_) {
      f.records_total =
          &registry_->counter(series("grca_feed_records_total", source));
      f.rejected_total =
          &registry_->counter(series("grca_feed_rejected_total", source));
      f.late_drops_total =
          &registry_->counter(series("grca_feed_late_drops_total", source));
      f.last_seen_gauge =
          &registry_->gauge(series("grca_feed_last_seen_utc_seconds", source));
      f.gap_gauge =
          &registry_->gauge(series("grca_feed_gap_seconds", source));
      f.silent_gauge = &registry_->gauge(series("grca_feed_silent", source));
      f.lag_hist = &registry_->histogram(
          series("grca_feed_lag_seconds", source), kLagBounds);
    }
  }
  return f;
}

void FeedHealthMonitor::on_record(SourceType source, TimeSec event_utc,
                                  TimeSec arrival_utc) {
  Feed& f = feed(source);
  ++f.records;
  ++total_records_;
  f.last_seen = std::max(f.last_seen, event_utc);
  const auto lag = static_cast<double>(lag_of(event_utc, arrival_utc));
  f.lag_sum += lag;
  if (f.records_total) f.records_total->inc();
  if (f.last_seen_gauge) {
    f.last_seen_gauge->set(static_cast<double>(f.last_seen));
  }
  if (f.lag_hist) f.lag_hist->observe(lag);
}

void FeedHealthMonitor::on_rejected(SourceType source) {
  Feed& f = feed(source);
  ++f.rejected;
  if (f.rejected_total) f.rejected_total->inc();
}

void FeedHealthMonitor::Batch::record(SourceType source, TimeSec event_utc,
                                      TimeSec arrival_utc) {
  Tally& t = sources_[static_cast<std::size_t>(source)];
  ++t.records;
  t.last_seen = std::max(t.last_seen, event_utc);
  const TimeSec lag = lag_of(event_utc, arrival_utc);
  t.lag_sum += lag;
  if (t.lag_buckets.empty()) t.lag_buckets.assign(kLagBounds.size() + 1, 0);
  ++t.lag_buckets[Histogram::bucket_of(kLagBounds, static_cast<double>(lag))];
}

void FeedHealthMonitor::Batch::reject(SourceType source) {
  ++sources_[static_cast<std::size_t>(source)].rejected;
}

void FeedHealthMonitor::Batch::merge(const Batch& other) {
  for (std::size_t i = 0; i < kSourceCount; ++i) {
    Tally& t = sources_[i];
    const Tally& o = other.sources_[i];
    t.records += o.records;
    t.rejected += o.rejected;
    t.last_seen = std::max(t.last_seen, o.last_seen);
    t.lag_sum += o.lag_sum;
    if (o.lag_buckets.empty()) continue;
    if (t.lag_buckets.empty()) t.lag_buckets.assign(o.lag_buckets.size(), 0);
    for (std::size_t b = 0; b < o.lag_buckets.size(); ++b) {
      t.lag_buckets[b] += o.lag_buckets[b];
    }
  }
}

void FeedHealthMonitor::add(const Batch& batch) {
  for (std::size_t i = 0; i < kSourceCount; ++i) {
    const Batch::Tally& t = batch.sources_[i];
    if (t.records == 0 && t.rejected == 0) continue;
    Feed& f = feed(static_cast<SourceType>(i));
    if (t.rejected > 0) {
      f.rejected += t.rejected;
      if (f.rejected_total) f.rejected_total->inc(t.rejected);
    }
    if (t.records == 0) continue;
    f.records += t.records;
    total_records_ += t.records;
    f.last_seen = std::max(f.last_seen, t.last_seen);
    f.lag_sum += static_cast<double>(t.lag_sum);
    if (f.records_total) f.records_total->inc(t.records);
    if (f.last_seen_gauge) {
      f.last_seen_gauge->set(static_cast<double>(f.last_seen));
    }
    if (f.lag_hist) {
      f.lag_hist->add(t.lag_buckets, static_cast<double>(t.lag_sum));
    }
  }
}

void FeedHealthMonitor::on_late_drop(SourceType source) {
  Feed& f = feed(source);
  ++f.late_drops;
  ++total_late_;
  if (f.late_drops_total) f.late_drops_total->inc();
}

void FeedHealthMonitor::observe_clock(TimeSec now) {
  for (std::size_t i = 0; i < feeds_.size(); ++i) {
    Feed& f = feeds_[i];
    if (!f.seen || f.records == 0) continue;
    f.gap = std::max<TimeSec>(0, now - f.last_seen);
    TimeSec cadence = expected_cadence(static_cast<SourceType>(i));
    f.silent = f.gap > kSilenceCadences * cadence;
    if (f.gap_gauge) f.gap_gauge->set(static_cast<double>(f.gap));
    if (f.silent_gauge) f.silent_gauge->set(f.silent ? 1.0 : 0.0);
  }
}

std::vector<FeedHealthMonitor::Status> FeedHealthMonitor::status() const {
  std::vector<Status> out;
  for (std::size_t i = 0; i < feeds_.size(); ++i) {
    const Feed& f = feeds_[i];
    if (!f.seen) continue;
    Status s;
    s.source = static_cast<SourceType>(i);
    s.records = f.records;
    s.rejected = f.rejected;
    s.late_drops = f.late_drops;
    s.last_seen = f.last_seen;
    s.gap = f.gap;
    s.silent = f.silent;
    s.mean_lag = f.records ? f.lag_sum / static_cast<double>(f.records) : 0.0;
    out.push_back(s);
  }
  return out;
}

}  // namespace grca::obs
