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
#include "apps/innet_app.h"
#include "apps/streaming.h"
#include "collector/extract.h"
#include "obs/metrics.h"
#include "simulation/scenario.h"
#include "simulation/workloads.h"
#include "util/rng.h"
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

// ---- Incremental extraction: the stream's store is batch extract ----------

/// One record as the stream receives it: the stream clock at its arrival.
struct Arrival {
  util::TimeSec at;
  const telemetry::RawRecord* record;
};

/// The records in true-time order (skew_seed 0), or each delayed by a
/// seeded per-source lag of up to 240 s plus up to 30 s of per-record
/// jitter. Both stay inside the fixture's freeze horizon less its pairing
/// window, so nothing arrives after a decision that needs it.
std::vector<Arrival> arrivals(const telemetry::RecordStream& records,
                              std::uint64_t skew_seed) {
  util::Rng rng(skew_seed);
  std::map<telemetry::SourceType, util::TimeSec> lag;
  std::vector<Arrival> out;
  out.reserve(records.size());
  for (const telemetry::RawRecord& r : records) {
    util::TimeSec delay = 0;
    if (skew_seed != 0) {
      auto [it, fresh] = lag.try_emplace(r.source, 0);
      if (fresh) it->second = rng.range(0, 240);
      delay = it->second + rng.range(0, 30);
    }
    out.push_back({r.true_utc + delay, &r});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& x, const Arrival& y) {
                     return x.at < y.at;
                   });
  return out;
}

/// Feeds the arrivals, advancing the clock every `tick` seconds of arrival
/// time, then drains.
void feed(StreamingRca& stream, const std::vector<Arrival>& arrivals,
          util::TimeSec tick = 300) {
  util::TimeSec next_tick = arrivals.front().at;
  for (const Arrival& a : arrivals) {
    while (a.at >= next_tick) {
      stream.advance(next_tick);
      next_tick += tick;
    }
    stream.ingest(*a.record);
  }
  stream.drain();
}

core::EventStore batch_extract(const t::Network& net,
                               const telemetry::RecordStream& records,
                               const collector::ExtractOptions& options) {
  collector::Normalizer normalizer(net);
  auto normalized = normalizer.normalize_stream(records);
  core::EventStore store;
  collector::EventExtractor(net, options).extract(normalized, store);
  return store;
}

/// Every event name holds equal instances in the same order.
void expect_same_events(const core::EventStore& got,
                        const core::EventStore& want) {
  ASSERT_EQ(got.event_names(), want.event_names());
  for (const std::string& name : want.event_names()) {
    auto x = got.all(name);
    auto y = want.all(name);
    ASSERT_EQ(x.size(), y.size()) << name;
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], y[i]) << name << "[" << i << "]";
    }
  }
}

/// Streams `records` in order and under two per-source skews; each run's
/// store must equal batch extract of the same records.
void expect_stream_is_batch(const StreamFixture& f,
                            const telemetry::RecordStream& records,
                            const core::DiagnosisGraph& graph) {
  StreamingOptions options = f.stream_options();
  core::EventStore batch = batch_extract(f.rca_net, records, options.extract);
  for (std::uint64_t skew_seed : {0, 11, 12}) {
    SCOPED_TRACE("skew seed " + std::to_string(skew_seed));
    StreamingRca stream(f.rca_net, graph, options);
    feed(stream, arrivals(records, skew_seed));
    ASSERT_EQ(stream.dropped_late(), 0u);
    ASSERT_EQ(stream.stored(), records.size());
    expect_same_events(stream.store(), batch);
  }
}

TEST(Streaming, StoreMatchesBatchExtract) {
  StreamFixture f;
  // The BGP corpus plus a route leak, so prefix-flood detection runs too.
  telemetry::RecordStream bgp = f.study.records;
  {
    routing::OspfSim ospf(f.sim_net);
    routing::BgpSim routes(ospf);
    sim::ScenarioEngine eng(f.sim_net, ospf, routes, 5);
    eng.bgp_route_leak(f.sim_net.customers()[2].id,
                       bgp.front().true_utc + 20 * util::kHour, 40);
    for (telemetry::RawRecord& r : eng.take_records()) {
      bgp.push_back(std::move(r));
    }
    telemetry::sort_stream(bgp);
  }
  ASSERT_FALSE(batch_extract(f.rca_net, bgp, f.stream_options().extract)
                   .all("bgp-prefix-flood")
                   .empty());
  {
    SCOPED_TRACE("bgp");
    expect_stream_is_batch(f, bgp, bgp::build_graph());
  }

  // An innet-style corpus (perf probes, OSPF reconvergence) plus a
  // router-wide cost-out/in and a link cost-out/in, each in for 15 minutes.
  sim::InnetStudyParams params;
  params.days = 2;
  params.target_symptoms = 60;
  params.noise = 0.3;
  telemetry::RecordStream innet =
      sim::run_innet_study(f.sim_net, params).records;
  {
    routing::OspfSim ospf(f.sim_net);
    routing::BgpSim routes(ospf);
    sim::ScenarioEngine eng(f.sim_net, ospf, routes, 6);
    util::TimeSec t0 = innet.front().true_utc + 6 * util::kHour;
    const t::LogicalLink& held = f.sim_net.links().back();
    eng.cost_out_router(f.sim_net.routers().front().id, t0);
    eng.cost_out_link(held.id, t0 + 300);
    eng.cost_in_router(f.sim_net.routers().front().id, t0 + 900);
    eng.cost_in_link(held.id, t0 + 1200);
    for (telemetry::RawRecord& r : eng.take_records()) {
      innet.push_back(std::move(r));
    }
    telemetry::sort_stream(innet);
  }
  core::EventStore batch = batch_extract(f.rca_net, innet, {});
  for (const char* name : {"router-cost-inout", "link-cost-inup",
                           "link-cost-outdown", "innet-loss-increase"}) {
    ASSERT_FALSE(batch.all(name).empty()) << name;
  }
  {
    SCOPED_TRACE("innet");
    expect_stream_is_batch(f, innet, innet::build_graph());
  }
}

// A cost-in long after its cost-out is still a transition in the stream:
// the previous metric per link lives in the extractor across ticks, not in
// a window of buffered records.
TEST(Streaming, LongCostOutMatchesBatch) {
  StreamFixture f;
  sim::TelemetryEmitter emitter(f.sim_net);
  const t::LogicalLink& link = f.sim_net.links().front();
  util::TimeSec t0 = util::make_utc(2010, 1, 10);
  emitter.ospfmon(link.id, t0, 0xFFFF);
  emitter.ospfmon(link.id, t0 + 3 * util::kHour, link.ospf_weight);
  // A workflow record every ten minutes keeps the stream clock moving.
  for (util::TimeSec t = t0; t <= t0 + 4 * util::kHour; t += 600) {
    emitter.workflow(f.sim_net.routers().front().id, t, "provisioning");
  }
  telemetry::RecordStream records = emitter.take();

  core::EventStore batch =
      batch_extract(f.rca_net, records, f.stream_options().extract);
  ASSERT_EQ(batch.all("link-cost-outdown").size(), 1u);
  ASSERT_EQ(batch.all("link-cost-inup").size(), 1u);
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  feed(stream, arrivals(records, 0));
  expect_same_events(stream.store(), batch);
}

// A router-wide cost-out whose link readings straddle a freeze cut is
// still one router-cost-inout: transitions are decided a grouping window
// ahead of the cut.
TEST(Streaming, RouterCostOutStraddlingACutMatchesBatch) {
  StreamFixture f;
  sim::TelemetryEmitter emitter(f.sim_net);
  const util::TimeSec base = util::make_utc(2010, 1, 10);
  t::RouterId router = f.sim_net.routers().front().id;
  for (const t::Router& r : f.sim_net.routers()) {
    if (f.sim_net.links_of_router(r.id).size() >= 3) router = r.id;
  }
  auto links = f.sim_net.links_of_router(router);
  ASSERT_GE(links.size(), 3u);
  // Ticks fall on multiples of 300 s after `base`, so with the fixture's
  // 900 s horizon base + 3000 is a freeze cut.
  for (std::size_t i = 0; i < links.size(); ++i) {
    emitter.ospfmon(links[i], base + (i == 0 ? 2990 : 3010), 0xFFFF);
  }
  emitter.workflow(router, base + 2 * util::kHour, "provisioning");
  telemetry::RecordStream records = emitter.take();

  core::EventStore batch =
      batch_extract(f.rca_net, records, f.stream_options().extract);
  ASSERT_EQ(batch.all("router-cost-inout").size(), 1u);
  ASSERT_TRUE(batch.all("link-cost-outdown").empty());
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  util::TimeSec next_tick = base;
  for (const telemetry::RawRecord& r : records) {
    while (r.true_utc >= next_tick) {
      stream.advance(next_tick);
      next_tick += 300;
    }
    stream.ingest(r);
  }
  stream.drain();
  expect_same_events(stream.store(), batch);
}

// Flap pairing decided at each freeze cut equals the batch pass, case by
// case. D D U U pairs the second down only (the nested-flap reading batch
// has always had); an up that follows an up pairs nothing; a pair wider
// than the window is no flap; a same-second down/up is a zero-length flap;
// a repeated down record pairs once; and a pair straddling a freeze cut is
// decided once, at that cut.
TEST(Streaming, FlapPairingTableMatchesBatch) {
  StreamFixture f;
  sim::TelemetryEmitter emitter(f.sim_net);
  const t::Router& router = f.sim_net.routers().front();
  const util::TimeSec base = util::make_utc(2010, 1, 10);
  const util::TimeSec window = f.stream_options().extract.flap_pair_window;
  struct Case {
    std::string iface;
    std::vector<std::pair<util::TimeSec, bool>> observations;  // (t, up)
    std::vector<util::TimeInterval> flaps;
  };
  // Ticks fall on multiples of 300 s after `base`, so with the fixture's
  // 900 s horizon base + 3000 is a freeze cut.
  const std::vector<Case> cases = {
      {"so-9/0/0",
       {{base + 1000, false}, {base + 1100, false}, {base + 1200, true},
        {base + 1300, true}},
       {{base + 1100, base + 1200}}},
      {"so-9/0/1",
       {{base + 1000, false}, {base + 1200, true}, {base + 1300, true}},
       {{base + 1000, base + 1200}}},
      {"so-9/0/2", {{base + 1000, false}, {base + 1001 + window, true}}, {}},
      {"so-9/0/3",
       {{base + 2000, true}, {base + 2000, false}},
       {{base + 2000, base + 2000}}},
      {"so-9/0/4",
       {{base + 2990, false}, {base + 3100, true}},
       {{base + 2990, base + 3100}}},
      {"so-9/0/5",
       {{base + 1500, false}, {base + 1500, false}, {base + 1600, true}},
       {{base + 1500, base + 1600}}},
  };
  for (const Case& c : cases) {
    for (auto [at, up] : c.observations) {
      emitter.syslog(router.id, at, telemetry::msg::link_updown(c.iface, up));
    }
  }
  emitter.workflow(router.id, base + 4 * util::kHour, "provisioning");
  telemetry::RecordStream records = emitter.take();

  core::EventStore batch =
      batch_extract(f.rca_net, records, f.stream_options().extract);
  for (const Case& c : cases) {
    std::vector<util::TimeInterval> got;
    for (const core::EventInstance& e : batch.all("interface-flap")) {
      if (e.where.b == c.iface) got.push_back(e.when);
    }
    EXPECT_EQ(got, c.flaps) << c.iface;
  }
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  util::TimeSec next_tick = base;
  for (const telemetry::RawRecord& r : records) {
    while (r.true_utc >= next_tick) {
      stream.advance(next_tick);
      next_tick += 300;
    }
    stream.ingest(r);
  }
  stream.drain();
  expect_same_events(stream.store(), batch);
}

// Each record goes through the extractor once: after drain() the observed
// count equals the records the stream accepted.
TEST(Streaming, ExtractorObservesEachRecordOnce) {
  StreamFixture f;
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(&registry);
  StreamingRca stream(f.rca_net, bgp::build_graph(), f.stream_options());
  feed(stream, arrivals(f.study.records, 0));
  EXPECT_EQ(stream.stored(), f.study.records.size());
  EXPECT_EQ(registry.counter("grca_extract_records_total").value(),
            stream.stored());
}

}  // namespace
}  // namespace grca::apps
