// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for streaming (real-time) RCA: batch-equivalence, bounded detection
// latency, late-record handling, and drain semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/bgp_flap_app.h"
#include "apps/pipeline.h"
#include "apps/scoring.h"
#include "apps/streaming.h"
#include "obs/metrics.h"
#include "simulation/workloads.h"
#include "topology/config.h"
#include "topology/topo_gen.h"

namespace grca::apps {
namespace {

namespace t = topology;

struct StreamFixture {
  t::Network sim_net;
  t::Network rca_net;
  sim::StudyOutput study;

  StreamFixture() {
    t::TopoParams tp;
    tp.pops = 4;
    tp.pers_per_pop = 3;
    tp.customers_per_per = 5;
    sim_net = t::generate_isp(tp);
    rca_net = t::build_network_from_configs(
        t::render_all_configs(sim_net), t::render_layer1_inventory(sim_net));
    sim::BgpStudyParams params;
    params.days = 3;
    params.target_symptoms = 150;
    params.noise = 0.3;
    study = sim::run_bgp_study(sim_net, params);
  }

  StreamingOptions stream_options() const {
    StreamingOptions options;
    options.freeze_horizon = 900;
    options.settle = 400;
    options.extract.flap_pair_window = 600;
    return options;
  }
};

TEST(Streaming, MatchesBatchDiagnoses) {
  StreamFixture f;
  // Batch reference (same shortened pairing window).
  collector::ExtractOptions extract;
  extract.flap_pair_window = 600;
  Pipeline pipeline(f.rca_net, f.study.records, extract);
  core::RcaEngine engine(bgp::build_graph(), pipeline.store(),
                         pipeline.mapper());
  auto batch = engine.diagnose_all();

  // Streaming run, ticking every 5 minutes of record time.
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  std::vector<core::Diagnosis> streamed;
  util::TimeSec next_tick = f.study.records.front().true_utc;
  for (const telemetry::RawRecord& r : f.study.records) {
    while (r.true_utc >= next_tick) {
      for (auto& d : stream.advance(next_tick)) streamed.push_back(std::move(d));
      next_tick += 300;
    }
    stream.ingest(r);
  }
  for (auto& d : stream.drain()) streamed.push_back(std::move(d));

  ASSERT_EQ(streamed.size(), batch.size());
  // Same verdict for every symptom (order may differ; match by key+time).
  std::map<std::string, std::string> batch_verdicts;
  for (const core::Diagnosis& d : batch) {
    batch_verdicts[d.symptom.where.key() + "@" +
                   std::to_string(d.symptom.when.start)] = d.primary();
  }
  std::size_t mismatches = 0;
  for (const core::Diagnosis& d : streamed) {
    auto it = batch_verdicts.find(d.symptom.where.key() + "@" +
                                  std::to_string(d.symptom.when.start));
    ASSERT_NE(it, batch_verdicts.end());
    mismatches += it->second != d.primary();
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Streaming, AccuracyMatchesGroundTruth) {
  StreamFixture f;
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  for (const telemetry::RawRecord& r : f.study.records) stream.ingest(r);
  auto diagnoses = stream.drain();
  Score score = score_diagnoses(diagnoses, f.study.truth,
                                bgp::canonical_cause);
  EXPECT_GE(score.accuracy(), 0.9) << score.confusion_table().render();
}

TEST(Streaming, DetectionLatencyBounded) {
  StreamFixture f;
  StreamingOptions options = f.stream_options();
  StreamingRca stream(f.rca_net, bgp::build_graph(), options);
  util::TimeSec max_latency = 0;
  util::TimeSec next_tick = f.study.records.front().true_utc;
  for (const telemetry::RawRecord& r : f.study.records) {
    while (r.true_utc >= next_tick) {
      for (const core::Diagnosis& d : stream.advance(next_tick)) {
        max_latency =
            std::max(max_latency, next_tick - d.symptom.when.start);
      }
      next_tick += 300;
    }
    stream.ingest(r);
  }
  EXPECT_GT(stream.diagnosed(), 0u);
  // Latency is bounded by horizon + settle + one tick.
  EXPECT_LE(max_latency, options.freeze_horizon + options.settle + 300 + 60);
}

TEST(Streaming, LateRecordsDroppedNotCrashed) {
  StreamFixture f;
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  const telemetry::RawRecord& first = f.study.records.front();
  stream.ingest(first);
  stream.advance(first.true_utc + 3 * util::kHour);
  // A record far behind the frozen cut must be counted, not applied.
  telemetry::RawRecord stale = first;
  stream.ingest(stale);
  EXPECT_EQ(stream.dropped_late(), 1u);
}

// The skew bound is inclusive: a record exactly max_skew behind the
// high-water mark is still accepted; one second older is dropped. (Before
// any advance() the frozen cut is still unset, so only the skew condition
// is in play.)
TEST(Streaming, SkewBoundaryExactlyAtMaxSkewIsKept) {
  StreamFixture f;
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  const telemetry::RawRecord& first = f.study.records.front();
  stream.ingest(first);  // high-water mark = this record's normalized utc

  // Shifting the raw timestamp shifts the normalized utc by the same amount
  // (the collector's timezone reconstruction is a fixed per-source offset).
  telemetry::RawRecord boundary = first;
  boundary.timestamp -= util::kHour;  // default max_skew
  stream.ingest(boundary);
  EXPECT_EQ(stream.dropped_late(), 0u);

  telemetry::RawRecord beyond = first;
  beyond.timestamp -= util::kHour + 1;
  stream.ingest(beyond);
  EXPECT_EQ(stream.dropped_late(), 1u);
}

// Late drops are attributed to the originating feed, both in the monitor's
// status and in the registry's labelled counter (satellite of the
// observability subsystem).
TEST(Streaming, LateDropsCountedPerSource) {
  StreamFixture f;
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(&registry);
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  const telemetry::RawRecord& first = f.study.records.front();
  stream.ingest(first);
  stream.advance(first.true_utc + 3 * util::kHour);
  telemetry::RawRecord stale = first;
  stream.ingest(stale);  // behind the frozen cut now

  EXPECT_EQ(stream.dropped_late(), 1u);
  EXPECT_EQ(stream.feed_health().total_late_drops(), 1u);
  bool found = false;
  for (const auto& s : stream.feed_health().status()) {
    if (s.source == first.source) {
      found = true;
      EXPECT_EQ(s.late_drops, 1u);
    }
  }
  EXPECT_TRUE(found);
  std::string series = "grca_feed_late_drops_total{source=\"" +
                       std::string(telemetry::to_string(first.source)) +
                       "\"}";
  EXPECT_EQ(registry.counter(series).value(), 1u);
}

TEST(Streaming, AdvanceBeforeDataIsEmpty) {
  StreamFixture f;
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  EXPECT_TRUE(stream.advance(util::make_utc(2010, 1, 1)).empty());
  EXPECT_TRUE(stream.drain().empty());
}

TEST(Streaming, RejectsInsufficientHorizon) {
  StreamFixture f;
  StreamingOptions options;
  options.freeze_horizon = 300;
  options.extract.flap_pair_window = 600;
  EXPECT_THROW(StreamingRca(f.rca_net, bgp::build_graph(), options),
               ConfigError);
}

TEST(Streaming, EachSymptomDiagnosedOnce) {
  StreamFixture f;
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  std::set<std::string> seen;
  util::TimeSec next_tick = f.study.records.front().true_utc;
  std::size_t duplicates = 0;
  for (const telemetry::RawRecord& r : f.study.records) {
    while (r.true_utc >= next_tick) {
      for (const core::Diagnosis& d : stream.advance(next_tick)) {
        duplicates += !seen
                           .insert(d.symptom.where.key() + "@" +
                                   std::to_string(d.symptom.when.start))
                           .second;
      }
      next_tick += 300;
    }
    stream.ingest(r);
  }
  for (const core::Diagnosis& d : stream.drain()) {
    duplicates += !seen
                       .insert(d.symptom.where.key() + "@" +
                               std::to_string(d.symptom.when.start))
                       .second;
  }
  EXPECT_EQ(duplicates, 0u);
}

// Arrival order among records that normalize to the same utc must not
// reach the store: the stream inserts by normalize_stream's total order.
// One arrival order is the corpus as generated plus a same-second Down and
// Up of one interface and two same-second BGP notifications of one router
// (their events share a name and a start, so only record order can order
// them); the other reverses every run of equal-utc records.
TEST(Streaming, EqualUtcArrivalOrderDoesNotChangeStoreOrVerdicts) {
  StreamFixture f;
  telemetry::RecordStream forward = f.study.records;
  auto flap = std::find_if(
      forward.begin(), forward.end(), [](const telemetry::RawRecord& r) {
        return r.body.find("%LINK-3-UPDOWN") != std::string::npos;
      });
  ASSERT_NE(flap, forward.end());
  std::string head = flap->body.substr(0, flap->body.rfind(' ') + 1);
  telemetry::RawRecord down = *flap;
  down.body = head + "down";
  telemetry::RawRecord up = *flap;
  up.body = head + "up";
  telemetry::RawRecord hte_a = *flap;
  hte_a.body = telemetry::msg::bgp_notification("192.0.2.1", true, "4/0",
                                                "hold time expired");
  telemetry::RawRecord hte_b = hte_a;
  hte_b.body = telemetry::msg::bgp_notification("192.0.2.2", true, "4/0",
                                                "hold time expired");
  forward.insert(std::next(flap), {down, up, hte_a, hte_b});

  telemetry::RecordStream reversed = forward;
  std::size_t permuted_runs = 0;
  for (auto run = reversed.begin(); run != reversed.end();) {
    auto end = std::find_if(run, reversed.end(),
                            [&](const telemetry::RawRecord& r) {
                              return r.true_utc != run->true_utc;
                            });
    if (end - run > 1) {
      std::reverse(run, end);
      ++permuted_runs;
    }
    run = end;
  }
  ASSERT_GT(permuted_runs, 1u);

  auto run_stream = [&](StreamingRca& stream,
                        const telemetry::RecordStream& records) {
    std::vector<std::string> verdicts;
    auto keep = [&](std::vector<core::Diagnosis> batch) {
      for (const core::Diagnosis& d : batch) {
        verdicts.push_back(d.symptom.where.key() + "@" +
                           std::to_string(d.symptom.when.start) + "=" +
                           d.primary());
      }
    };
    util::TimeSec next_tick = records.front().true_utc;
    for (const telemetry::RawRecord& r : records) {
      while (r.true_utc >= next_tick) {
        keep(stream.advance(next_tick));
        next_tick += 300;
      }
      stream.ingest(r);
    }
    keep(stream.drain());
    return verdicts;
  };
  StreamingRca a(f.rca_net, bgp::build_graph(), f.stream_options());
  StreamingRca b(f.rca_net, bgp::build_graph(), f.stream_options());
  EXPECT_EQ(run_stream(a, forward), run_stream(b, reversed));
  ASSERT_EQ(a.store().event_names(), b.store().event_names());
  for (const std::string& name : a.store().event_names()) {
    auto x = a.store().all(name);
    auto y = b.store().all(name);
    ASSERT_EQ(x.size(), y.size()) << name;
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], y[i]) << name << "[" << i << "]";
    }
  }
}

}  // namespace
}  // namespace grca::apps
