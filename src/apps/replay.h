// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// High-rate feed replay harness. The paper's deployment ingested hundreds
// of millions of records/day from ~600 sources; this replayer exercises
// StreamingRca at comparable (time-compressed) rates against a synthetic
// scenario or a recorded corpus, and closes the validation loop the feed-
// health metrics were built for: at the end of a run, every record the
// generator emitted must be accounted for (stored, rejected, or
// late-dropped — nothing silently vanishes at speed), and every
// ground-truth symptom must carry a streaming verdict identical to the
// batch Pipeline's on the same data.
//
// Architecture: one thread. Arrival times are derived deterministically
// from a seed (a stable per-source delivery lag plus per-record jitter), and
// the whole schedule is sorted once by (arrival, emission index) — a total
// order, so every run of the same seed ingests the same sequence. One loop
// walks that schedule, paces against the scaled wall clock (`rate`
// sim-seconds per wall-second; <= 0 means as fast as possible), and calls
// StreamingRca::ingest/advance while sampling the metrics registry. The
// fixed order is what makes the conservation and differential checks exact
// instead of statistical.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/streaming.h"
#include "simulation/scenario.h"

namespace grca::apps {

struct ReplayOptions {
  /// Time-compression factor: sim-seconds replayed per wall-clock second
  /// (100.0 = "100x real time"). <= 0 replays as fast as possible.
  double rate = 0.0;
  /// Stream-clock advance interval, in sim seconds.
  util::TimeSec tick = 300;
  /// Arrival-skew model, in sim seconds: every source gets a stable
  /// delivery lag drawn from [0, source_lag] and every record an extra
  /// jitter from [0, record_jitter], both seeded. Keep the sum below the
  /// stream's max_skew (and freeze horizon) for a loss-free replay;
  /// records delayed beyond it are late-dropped and accounted for in the
  /// conservation check.
  util::TimeSec source_lag = 0;
  util::TimeSec record_jitter = 0;
  std::uint64_t seed = 1;
  /// Thread count for the batch reference diagnosis (0 = hardware).
  unsigned batch_threads = 0;
  StreamingOptions stream;
};

/// Record-level conservation: everything the generator emitted is either
/// stored in the stream buffer, rejected by the collector (unknown
/// device), or dropped as late — and the feed-health registry view must
/// agree with the engine's own counts.
struct ConservationCheck {
  std::size_t emitted = 0;
  std::size_t stored = 0;
  std::size_t rejected = 0;
  std::size_t dropped_late = 0;
  // The same flows as seen by the FeedHealthMonitor (obs registry view).
  std::uint64_t feed_records = 0;
  std::uint64_t feed_rejected = 0;
  std::uint64_t feed_late_drops = 0;

  std::int64_t unaccounted() const noexcept {
    return static_cast<std::int64_t>(emitted) -
           static_cast<std::int64_t>(stored) -
           static_cast<std::int64_t>(rejected) -
           static_cast<std::int64_t>(dropped_late);
  }
  bool conserved() const noexcept {
    return unaccounted() == 0 && feed_records == stored + dropped_late &&
           feed_rejected == rejected && feed_late_drops == dropped_late;
  }
};

/// Streaming-vs-batch verdict diff over (symptom location, start) keys.
struct VerdictDiff {
  std::size_t compared = 0;        // keys present on both sides
  std::size_t mismatched = 0;      // primary() differs
  std::size_t streaming_only = 0;  // diagnosed only by the streaming run
  std::size_t batch_only = 0;      // diagnosed only by the batch run

  bool identical() const noexcept {
    return mismatched == 0 && streaming_only == 0 && batch_only == 0;
  }
};

/// Ground-truth coverage: every injected symptom must be matched by a
/// streaming diagnosis (within the scoring tolerance).
struct TruthCheck {
  std::size_t truth_total = 0;
  std::size_t matched = 0;   // truth entries matched by a streaming diagnosis
  std::size_t correct = 0;   // ... with the right canonical root cause
  VerdictDiff verdicts;      // streaming vs batch Pipeline
  double batch_wall_seconds = 0.0;

  bool passed() const noexcept {
    return matched == truth_total && verdicts.identical();
  }
};

struct SourceReplayStats {
  telemetry::SourceType source = telemetry::SourceType::kSyslog;
  std::uint64_t records = 0;
  std::uint64_t rejected = 0;
  std::uint64_t late_drops = 0;
};

struct ReplayReport {
  double wall_seconds = 0.0;
  double records_per_sec = 0.0;
  std::size_t ticks = 0;
  std::size_t diagnoses_count = 0;
  // Ingest-call latency (wall time of one StreamingRca::ingest), in µs.
  double ingest_p50_us = 0.0;
  double ingest_p99_us = 0.0;
  double ingest_max_us = 0.0;
  /// Detection latency in sim seconds: symptom start -> the tick that
  /// emitted the diagnosis, or -> the last record's arrival (clamped at 0)
  /// for diagnoses drain() returns after the feed ends.
  double detection_mean_s = 0.0;
  util::TimeSec detection_max_s = 0;
  ConservationCheck conservation;
  std::optional<TruthCheck> truth;  // present when truth labels were given
  std::vector<SourceReplayStats> sources;
  /// Peak values of every gauge sampled during the run (freeze lag, feed
  /// gaps, ...), by registry name.
  std::map<std::string, double> gauge_peaks;
  /// The streaming diagnoses themselves, in emission order.
  std::vector<core::Diagnosis> diagnoses;

  double records_per_min() const noexcept { return records_per_sec * 60.0; }
  /// The hard gate: conservation plus (when truth was given) full
  /// ground-truth coverage with batch-identical verdicts.
  bool passed() const noexcept {
    return conservation.conserved() && (!truth || truth->passed());
  }
};

/// Renders the report as a single JSON document (`grca replay --report-out`).
std::string render_json(const ReplayReport& report);

/// Renders a human-readable summary for the console.
std::string render_text(const ReplayReport& report);

class FeedReplayer {
 public:
  FeedReplayer(const topology::Network& net, ReplayOptions options = {});

  /// Replays `records` (generator/archive order) against a fresh
  /// StreamingRca over `graph`. When `truth` is non-null the report also
  /// carries the ground-truth check: scoring coverage plus a verdict diff
  /// against a batch Pipeline run over the same records (`canonical` folds
  /// application primaries onto truth labels; identity when empty).
  ReplayReport replay(
      const telemetry::RecordStream& records, const core::DiagnosisGraph& graph,
      const std::vector<sim::TruthEntry>* truth = nullptr,
      const std::function<std::string(const std::string&)>& canonical = {});

 private:
  const topology::Network& net_;
  ReplayOptions options_;
};

}  // namespace grca::apps
