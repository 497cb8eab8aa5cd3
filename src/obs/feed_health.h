// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Telemetry feed-health monitoring. The paper's platform treated data
// quality as a first-class operational concern: with ~600 feeds, a silent
// poller or a lagging syslog relay corrupts diagnoses long before anyone
// notices the missing records. This monitor tracks, per telemetry source:
//
//  - arrival counts and collector rejections;
//  - the last-seen event timestamp and an arrival-lag distribution
//    (how far behind the stream's high-water mark records arrive);
//  - gap/silence detection against the source's expected cadence (a 5-min
//    SNMP poller that has been quiet for 20 minutes is silent; syslog,
//    which is event-driven, gets a much slower alarm);
//  - late-drop counts (records that arrived after their region of the
//    stream was frozen and had to be discarded).
//
// Everything is mirrored into the metrics registry as labelled series
// (`grca_feed_*{source="..."}`) so the exporters pick it up, and exposed
// as a Status struct for console output (streaming_monitor's health line).
//
// Threading contract: on_record/on_rejected/on_late_drop/observe_clock/add
// are single-writer (the ingest thread); status() may be called from the
// same thread at any time. The underlying registry metrics are atomic, so
// concurrent exporters are safe. A Batch is plain data: parallel ingest
// keeps one per worker and adds them in order from one thread.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "telemetry/records.h"

namespace grca::obs {

/// Number of telemetry source kinds (telemetry::SourceType is a dense enum).
inline constexpr std::size_t kSourceCount = 10;

class FeedHealthMonitor {
 public:
  /// Registers per-source series lazily in `registry`; a null registry
  /// keeps the in-memory status tracking but exports nothing.
  explicit FeedHealthMonitor(MetricsRegistry* registry = registry_ptr());

  /// One record of `source` arrived. `event_utc` is the record's own
  /// timestamp; `arrival_utc` approximates when it reached the collector
  /// (in streaming, the stream high-water mark). Lag = arrival - event.
  void on_record(telemetry::SourceType source, util::TimeSec event_utc,
                 util::TimeSec arrival_utc);

  /// One record of `source` was rejected by the collector (unknown device).
  void on_rejected(telemetry::SourceType source);

  /// The on_record/on_rejected tallies of a run of records, kept apart from
  /// any monitor so that several can be summed on their own.
  class Batch {
   public:
    void record(telemetry::SourceType source, util::TimeSec event_utc,
                util::TimeSec arrival_utc);
    void reject(telemetry::SourceType source);
    /// Adds `other`'s tallies to this one.
    void merge(const Batch& other);

   private:
    friend class FeedHealthMonitor;
    struct Tally {
      std::uint64_t records = 0;
      std::uint64_t rejected = 0;
      util::TimeSec last_seen = 0;
      util::TimeSec lag_sum = 0;  // whole seconds, so any order sums exactly
      std::vector<std::uint64_t> lag_buckets;  // empty until a record
    };
    std::array<Tally, kSourceCount> sources_;
  };

  /// Reports every record and rejection of `batch` at once, touching each
  /// registry series once: the final status and series equal on_record and
  /// on_rejected called for each in turn.
  void add(const Batch& batch);

  /// One record of `source` arrived too late (behind the freeze horizon /
  /// skew bound) and was dropped.
  void on_late_drop(telemetry::SourceType source);

  /// Re-evaluates gap/silence state against `now` and refreshes the gap
  /// gauges. Call from the tick loop (streaming) or once after a batch run.
  void observe_clock(util::TimeSec now);

  /// Expected record cadence for a source: the interval after which a quiet
  /// feed becomes suspicious (5-minute pollers → 300 s; event-driven
  /// sources get day-scale cadences so they do not false-alarm).
  static util::TimeSec expected_cadence(telemetry::SourceType source) noexcept;

  /// How many cadences of silence before a feed is flagged silent.
  static constexpr int kSilenceCadences = 3;

  struct Status {
    telemetry::SourceType source = telemetry::SourceType::kSyslog;
    std::uint64_t records = 0;
    std::uint64_t rejected = 0;
    std::uint64_t late_drops = 0;
    util::TimeSec last_seen = 0;  // event time of the newest record
    util::TimeSec gap = 0;        // now - last_seen at the last observe_clock
    bool silent = false;          // gap > kSilenceCadences * cadence
    double mean_lag = 0.0;        // mean arrival lag in seconds
  };

  /// Status of every source that has seen at least one record (or drop).
  std::vector<Status> status() const;

  std::uint64_t total_records() const noexcept { return total_records_; }
  std::uint64_t total_late_drops() const noexcept { return total_late_; }

 private:
  struct Feed {
    bool seen = false;
    std::uint64_t records = 0;
    std::uint64_t rejected = 0;
    std::uint64_t late_drops = 0;
    util::TimeSec last_seen = 0;
    util::TimeSec gap = 0;
    bool silent = false;
    double lag_sum = 0.0;
    // Registry series (null when the monitor is unregistered).
    Counter* records_total = nullptr;
    Counter* rejected_total = nullptr;
    Counter* late_drops_total = nullptr;
    Gauge* last_seen_gauge = nullptr;
    Gauge* gap_gauge = nullptr;
    Gauge* silent_gauge = nullptr;
    Histogram* lag_hist = nullptr;
  };

  Feed& feed(telemetry::SourceType source);

  MetricsRegistry* registry_;
  std::vector<Feed> feeds_;  // indexed by SourceType
  std::uint64_t total_records_ = 0;
  std::uint64_t total_late_ = 0;
};

}  // namespace grca::obs
