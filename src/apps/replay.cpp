// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "apps/replay.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <limits>
#include <sstream>
#include <thread>

#include "apps/pipeline.h"
#include "apps/scoring.h"
#include "obs/export.h"
#include "util/rng.h"
#include "util/table.h"

namespace grca::apps {

namespace {

using util::TimeSec;

struct Item {
  const telemetry::RawRecord* raw = nullptr;
  TimeSec arrival = 0;     // scheduled arrival, sim seconds
  std::uint64_t seq = 0;   // emission index: the schedule tie-breaker
};

bool item_before(const Item& a, const Item& b) {
  return a.arrival != b.arrival ? a.arrival < b.arrival : a.seq < b.seq;
}

std::string verdict_key(const core::Diagnosis& d) {
  return d.symptom.where.key() + "@" + std::to_string(d.symptom.when.start);
}

}  // namespace

FeedReplayer::FeedReplayer(const topology::Network& net, ReplayOptions options)
    : net_(net), options_(options) {
  if (options_.tick <= 0) {
    throw ConfigError("FeedReplayer: tick must be positive");
  }
}

ReplayReport FeedReplayer::replay(
    const telemetry::RecordStream& records, const core::DiagnosisGraph& graph,
    const std::vector<sim::TruthEntry>* truth,
    const std::function<std::string(const std::string&)>& canonical) {
  ReplayReport report;
  report.conservation.emitted = records.size();

  // ---- Arrival schedule (seed-deterministic) -----------------------------
  // A stable per-source delivery lag plus per-record jitter, drawn in
  // emission order, then sorted by (arrival, emission index): the ingest
  // order is identical for every run of the same seed.
  util::Rng rng(options_.seed);
  std::array<TimeSec, obs::kSourceCount> source_delay{};
  for (TimeSec& d : source_delay) {
    d = options_.source_lag > 0 ? rng.range(0, options_.source_lag) : 0;
  }
  std::vector<Item> schedule;
  schedule.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const telemetry::RawRecord& r = records[i];
    TimeSec delay = source_delay[static_cast<std::size_t>(r.source)];
    if (options_.record_jitter > 0) {
      delay += rng.range(0, options_.record_jitter);
    }
    schedule.push_back(Item{&r, r.true_utc + delay, i});
  }
  std::sort(schedule.begin(), schedule.end(), item_before);

  // Gauges are instantaneous (a drained stream reads zero), so the report
  // keeps each gauge's peak over the ticks.
  obs::MetricsRegistry* registry = obs::registry_ptr();
  auto sample_gauges = [&] {
    if (!registry) return;
    for (const auto& [name, value] : registry->snapshot().gauges) {
      auto [it, inserted] = report.gauge_peaks.emplace(name, value);
      if (!inserted && value > it->second) it->second = value;
    }
  };
  core::DiagnosisGraph stream_graph = graph;
  StreamingRca stream(net_, std::move(stream_graph), options_.stream);

  // ---- Replay loop: pacing + ticks ----------------------------------------
  std::vector<std::uint32_t> latency_ns;
  latency_ns.reserve(records.size());
  double detection_sum = 0.0;
  auto record_detection = [&](core::Diagnosis& d, TimeSec detected_at) {
    TimeSec lat = std::max<TimeSec>(0, detected_at - d.symptom.when.start);
    report.detection_max_s = std::max(report.detection_max_s, lat);
    detection_sum += static_cast<double>(lat);
    report.diagnoses.push_back(std::move(d));
  };
  auto do_tick = [&](TimeSec now_tick) {
    for (core::Diagnosis& d : stream.advance(now_tick)) {
      record_detection(d, now_tick);
    }
    sample_gauges();
    ++report.ticks;
  };

  const auto wall0 = std::chrono::steady_clock::now();
  const TimeSec sim0 = schedule.empty() ? 0 : schedule.front().arrival;
  TimeSec next_tick = sim0 + options_.tick;
  for (const Item& item : schedule) {
    while (item.arrival >= next_tick) {
      do_tick(next_tick);
      next_tick += options_.tick;
    }
    if (options_.rate > 0) {
      std::this_thread::sleep_until(
          wall0 + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(item.arrival - sim0) /
                          options_.rate)));
    }
    const auto t0 = std::chrono::steady_clock::now();
    stream.ingest(*item.raw);
    const auto t1 = std::chrono::steady_clock::now();
    latency_ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
        std::numeric_limits<std::uint32_t>::max())));
  }
  // drain() runs when the feed ends: its diagnoses are detected at the last
  // record's arrival.
  const TimeSec feed_end = schedule.empty() ? 0 : schedule.back().arrival;
  for (core::Diagnosis& d : stream.drain()) record_detection(d, feed_end);
  sample_gauges();
  report.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
  report.records_per_sec =
      report.wall_seconds > 0.0
          ? static_cast<double>(records.size()) / report.wall_seconds
          : 0.0;
  report.diagnoses_count = report.diagnoses.size();
  if (report.diagnoses_count > 0) {
    report.detection_mean_s = detection_sum / report.diagnoses_count;
  }

  // ---- Ingest latency percentiles ----------------------------------------
  if (!latency_ns.empty()) {
    std::vector<std::uint32_t> sorted = latency_ns;
    std::sort(sorted.begin(), sorted.end());
    auto at = [&](double q) {
      std::size_t i = static_cast<std::size_t>(q * (sorted.size() - 1));
      return static_cast<double>(sorted[i]) / 1000.0;
    };
    report.ingest_p50_us = at(0.50);
    report.ingest_p99_us = at(0.99);
    report.ingest_max_us = static_cast<double>(sorted.back()) / 1000.0;
  }

  // ---- Conservation ------------------------------------------------------
  report.conservation.stored = stream.stored();
  report.conservation.rejected = stream.rejected();
  report.conservation.dropped_late = stream.dropped_late();
  const obs::FeedHealthMonitor& health = stream.feed_health();
  report.conservation.feed_records = health.total_records();
  report.conservation.feed_late_drops = health.total_late_drops();
  for (const obs::FeedHealthMonitor::Status& s : health.status()) {
    report.conservation.feed_rejected += s.rejected;
    report.sources.push_back(
        SourceReplayStats{s.source, s.records, s.rejected, s.late_drops});
  }

  // ---- Ground-truth conservation: coverage + batch verdict diff ----------
  if (truth != nullptr) {
    TruthCheck check;
    check.truth_total = truth->size();
    Score score = score_diagnoses(report.diagnoses, *truth, canonical);
    check.matched = score.matched;
    check.correct = score.correct;

    // The batch reference runs with instrumentation disabled so its own
    // collector pass does not double-count into the live registry.
    const auto batch0 = std::chrono::steady_clock::now();
    std::vector<core::Diagnosis> batch;
    {
      obs::ScopedRegistry off(nullptr);
      Pipeline pipeline(net_, records, options_.stream.extract);
      batch = pipeline.diagnose_all(graph, options_.batch_threads);
    }
    check.batch_wall_seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - batch0)
                                   .count();
    std::map<std::string, std::string> batch_verdicts;
    for (const core::Diagnosis& d : batch) {
      batch_verdicts.emplace(verdict_key(d), d.primary());
    }
    std::size_t streaming_matched = 0;
    for (const core::Diagnosis& d : report.diagnoses) {
      auto it = batch_verdicts.find(verdict_key(d));
      if (it == batch_verdicts.end()) {
        ++check.verdicts.streaming_only;
        continue;
      }
      ++check.verdicts.compared;
      ++streaming_matched;
      if (it->second != d.primary()) ++check.verdicts.mismatched;
    }
    check.verdicts.batch_only = batch_verdicts.size() >= streaming_matched
                                    ? batch_verdicts.size() - streaming_matched
                                    : 0;
    report.truth = std::move(check);
  }
  return report;
}

// ---- Rendering -------------------------------------------------------------

std::string render_json(const ReplayReport& report) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\n";
  out << "  \"records\": " << report.conservation.emitted << ",\n";
  out << "  \"wall_seconds\": " << report.wall_seconds << ",\n";
  out << "  \"records_per_sec\": " << report.records_per_sec << ",\n";
  out << "  \"records_per_min\": " << report.records_per_min() << ",\n";
  out << "  \"ticks\": " << report.ticks << ",\n";
  out << "  \"diagnoses\": " << report.diagnoses_count << ",\n";
  out << "  \"ingest_latency_us\": {\"p50\": " << report.ingest_p50_us
      << ", \"p99\": " << report.ingest_p99_us
      << ", \"max\": " << report.ingest_max_us << "},\n";
  out << "  \"detection_latency_s\": {\"mean\": " << report.detection_mean_s
      << ", \"max\": " << report.detection_max_s << "},\n";
  const ConservationCheck& c = report.conservation;
  out << "  \"conservation\": {\"emitted\": " << c.emitted
      << ", \"stored\": " << c.stored << ", \"rejected\": " << c.rejected
      << ", \"dropped_late\": " << c.dropped_late
      << ", \"unaccounted\": " << c.unaccounted()
      << ", \"feed_records\": " << c.feed_records
      << ", \"feed_rejected\": " << c.feed_rejected
      << ", \"feed_late_drops\": " << c.feed_late_drops
      << ", \"conserved\": " << (c.conserved() ? "true" : "false") << "},\n";
  out << "  \"sources\": [";
  for (std::size_t i = 0; i < report.sources.size(); ++i) {
    const SourceReplayStats& s = report.sources[i];
    if (i) out << ", ";
    out << "{\"source\": \""
        << obs::json_escape(std::string(telemetry::to_string(s.source)))
        << "\", \"records\": " << s.records << ", \"rejected\": " << s.rejected
        << ", \"late_drops\": " << s.late_drops << "}";
  }
  out << "],\n";
  if (report.truth) {
    const TruthCheck& t = *report.truth;
    out << "  \"truth\": {\"total\": " << t.truth_total
        << ", \"matched\": " << t.matched << ", \"correct\": " << t.correct
        << ", \"batch_wall_seconds\": " << t.batch_wall_seconds
        << ", \"verdicts\": {\"compared\": " << t.verdicts.compared
        << ", \"mismatched\": " << t.verdicts.mismatched
        << ", \"streaming_only\": " << t.verdicts.streaming_only
        << ", \"batch_only\": " << t.verdicts.batch_only
        << ", \"identical\": " << (t.verdicts.identical() ? "true" : "false")
        << "}, \"passed\": " << (t.passed() ? "true" : "false") << "},\n";
  }
  out << "  \"gauge_peaks\": {";
  bool first = true;
  for (const auto& [name, peak] : report.gauge_peaks) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << obs::json_escape(name) << "\": " << peak;
  }
  out << "},\n";
  out << "  \"passed\": " << (report.passed() ? "true" : "false") << "\n";
  out << "}\n";
  return out.str();
}

std::string render_text(const ReplayReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "replayed %zu records in %.2f s (%.0f records/s, %.2fM "
                "records/min), %zu ticks\n",
                report.conservation.emitted, report.wall_seconds,
                report.records_per_sec, report.records_per_min() / 1e6,
                report.ticks);
  out += line;
  std::snprintf(line, sizeof(line),
                "ingest latency: p50 %.2f us  p99 %.2f us  max %.2f us\n",
                report.ingest_p50_us, report.ingest_p99_us,
                report.ingest_max_us);
  out += line;
  std::snprintf(line, sizeof(line),
                "diagnosed %zu symptoms; detection latency mean %.0f s, "
                "max %lld s\n",
                report.diagnoses_count, report.detection_mean_s,
                static_cast<long long>(report.detection_max_s));
  out += line;

  util::TextTable sources({"Source", "Records", "Rejected", "Late drops"});
  for (const SourceReplayStats& s : report.sources) {
    sources.add_row({std::string(telemetry::to_string(s.source)),
                     std::to_string(s.records), std::to_string(s.rejected),
                     std::to_string(s.late_drops)});
  }
  out += sources.render("per-source feed health");

  const ConservationCheck& c = report.conservation;
  std::snprintf(line, sizeof(line),
                "conservation: emitted %zu = stored %zu + rejected %zu + "
                "dropped-late %zu (unaccounted %lld) %s\n",
                c.emitted, c.stored, c.rejected, c.dropped_late,
                static_cast<long long>(c.unaccounted()),
                c.conserved() ? "OK" : "VIOLATED");
  out += line;
  if (!c.conserved()) {
    std::snprintf(line, sizeof(line),
                  "  registry view: feed_records %llu (want stored+late %zu), "
                  "feed_rejected %llu, feed_late_drops %llu\n",
                  static_cast<unsigned long long>(c.feed_records),
                  c.stored + c.dropped_late,
                  static_cast<unsigned long long>(c.feed_rejected),
                  static_cast<unsigned long long>(c.feed_late_drops));
    out += line;
  }
  if (report.truth) {
    const TruthCheck& t = *report.truth;
    std::snprintf(line, sizeof(line),
                  "ground truth: %zu/%zu symptoms matched by a streaming "
                  "diagnosis (%zu with the correct cause)\n",
                  t.matched, t.truth_total, t.correct);
    out += line;
    std::snprintf(
        line, sizeof(line),
        "batch diff: %zu verdicts compared, %zu mismatched, %zu "
        "streaming-only, %zu batch-only (batch took %.2f s) %s\n",
        t.verdicts.compared, t.verdicts.mismatched, t.verdicts.streaming_only,
        t.verdicts.batch_only, t.batch_wall_seconds,
        t.verdicts.identical() ? "IDENTICAL" : "DIVERGED");
    out += line;
  }
  std::snprintf(line, sizeof(line), "replay gate: %s\n",
                report.passed() ? "PASSED" : "FAILED");
  out += line;
  return out;
}

}  // namespace grca::apps
