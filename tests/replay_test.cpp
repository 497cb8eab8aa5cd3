// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the high-rate feed replay harness: record conservation,
// streaming-vs-batch differential equivalence at max rate, arrival-
// permutation determinism, late-drop accounting beyond max_skew, detection
// latency, and streaming preconditions.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "apps/bgp_flap_app.h"
#include "apps/replay.h"
#include "apps/streaming.h"
#include "obs/span.h"
#include "simulation/archive.h"
#include "simulation/workloads.h"
#include "topology/config.h"
#include "topology/topo_gen.h"

namespace grca::apps {
namespace {

namespace t = topology;

struct ReplayFixture {
  t::Network sim_net;
  t::Network rca_net;
  sim::StudyOutput study;

  ReplayFixture() {
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

  ReplayOptions replay_options() const {
    ReplayOptions options;
    options.stream.freeze_horizon = 900;
    options.stream.settle = 400;
    options.stream.extract.flap_pair_window = 600;
    return options;
  }
};

const ReplayFixture& fixture() {
  static const ReplayFixture f;
  return f;
}

/// Canonical serialization of a diagnosis set: sorted "key@start -> cause"
/// lines. Byte-identical fingerprints mean identical diagnosis sets even
/// when emission order differs for symptoms with equal start times.
std::string fingerprint(const std::vector<core::Diagnosis>& diagnoses) {
  std::vector<std::string> lines;
  lines.reserve(diagnoses.size());
  for (const core::Diagnosis& d : diagnoses) {
    lines.push_back(d.symptom.where.key() + "@" +
                    std::to_string(d.symptom.when.start) + " -> " +
                    d.primary());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

void expect_conserved(const ReplayReport& report) {
  const ConservationCheck& c = report.conservation;
  EXPECT_EQ(c.unaccounted(), 0)
      << "emitted " << c.emitted << " stored " << c.stored << " rejected "
      << c.rejected << " late " << c.dropped_late;
  EXPECT_TRUE(c.conserved())
      << "feed_records " << c.feed_records << " feed_rejected "
      << c.feed_rejected << " feed_late " << c.feed_late_drops;
}

// ---- Differential: replayed streaming vs batch Pipeline --------------------

TEST(Replay, MaxRateMatchesBatchVerdicts) {
  const ReplayFixture& f = fixture();
  ReplayOptions options = f.replay_options();
  options.source_lag = 120;
  options.record_jitter = 60;
  FeedReplayer replayer(f.rca_net, options);
  ReplayReport report = replayer.replay(f.study.records, bgp::build_graph(),
                                        &f.study.truth, bgp::canonical_cause);

  expect_conserved(report);
  ASSERT_TRUE(report.truth.has_value());
  // Every ground-truth symptom has a streaming diagnosis...
  EXPECT_EQ(report.truth->matched, report.truth->truth_total);
  EXPECT_GT(report.truth->truth_total, 0u);
  // ...and every streaming verdict is identical to the batch Pipeline's.
  EXPECT_TRUE(report.truth->verdicts.identical())
      << "mismatched " << report.truth->verdicts.mismatched
      << " streaming_only " << report.truth->verdicts.streaming_only
      << " batch_only " << report.truth->verdicts.batch_only;
  EXPECT_TRUE(report.passed());
  EXPECT_GT(report.records_per_sec, 0.0);
  EXPECT_EQ(report.conservation.emitted, f.study.records.size());
}

TEST(Replay, ReportCarriesObservability) {
  const ReplayFixture& f = fixture();
  ReplayOptions options = f.replay_options();
  FeedReplayer replayer(f.rca_net, options);
  ReplayReport report = replayer.replay(f.study.records, bgp::build_graph());

  EXPECT_GT(report.ticks, 0u);
  EXPECT_GT(report.ingest_p99_us, 0.0);
  EXPECT_GE(report.ingest_max_us, report.ingest_p99_us);
  EXPECT_GE(report.ingest_p99_us, report.ingest_p50_us);
  // The sampler captured the streaming gauges at tick granularity.
  EXPECT_TRUE(report.gauge_peaks.count("grca_streaming_freeze_lag_seconds"));
  // Per-source stats cover every record.
  std::uint64_t per_source = 0;
  for (const SourceReplayStats& s : report.sources) per_source += s.records;
  EXPECT_EQ(per_source, report.conservation.feed_records);
  // Rendering round-trips without truth present.
  EXPECT_NE(render_json(report).find("\"conserved\": true"), std::string::npos);
  EXPECT_NE(render_text(report).find("PASSED"), std::string::npos);
}

// ---- Property: arrival permutation determinism -----------------------------

TEST(Replay, ArrivalPermutationDoesNotChangeDiagnoses) {
  const ReplayFixture& f = fixture();
  ReplayOptions in_order = f.replay_options();
  std::string reference = fingerprint(
      FeedReplayer(f.rca_net, in_order)
          .replay(f.study.records, bgp::build_graph())
          .diagnoses);
  EXPECT_FALSE(reference.empty());
  // Delays stay below min(max_skew, freeze_horizon): no record can be
  // late-dropped, so every seeded arrival permutation must produce the
  // in-order diagnosis set.
  for (std::uint64_t seed : {1ull, 7ull, 13ull}) {
    ReplayOptions options = f.replay_options();
    options.seed = seed;
    options.source_lag = 200;
    options.record_jitter = 100;
    FeedReplayer replayer(f.rca_net, options);
    ReplayReport report = replayer.replay(f.study.records, bgp::build_graph());
    expect_conserved(report);
    EXPECT_EQ(report.conservation.dropped_late, 0u) << "seed " << seed;
    EXPECT_EQ(fingerprint(report.diagnoses), reference)
        << "seed " << seed << ": diagnosis set diverged";
  }
}

TEST(Replay, BeyondMaxSkewRecordsAreDroppedAndAccounted) {
  const ReplayFixture& f = fixture();
  ReplayOptions options = f.replay_options();
  // Tolerate almost no skew while delivering with heavy per-source lag:
  // a chunk of the stream must arrive beyond max_skew and be dropped.
  options.stream.max_skew = 30;
  options.source_lag = 600;
  options.record_jitter = 120;
  FeedReplayer replayer(f.rca_net, options);
  ReplayReport report = replayer.replay(f.study.records, bgp::build_graph());

  EXPECT_GT(report.conservation.dropped_late, 0u);
  // Losing records must never lose accounting.
  expect_conserved(report);
  std::uint64_t per_source_drops = 0;
  for (const SourceReplayStats& s : report.sources) {
    per_source_drops += s.late_drops;
  }
  EXPECT_EQ(per_source_drops, report.conservation.dropped_late);
}

// ---- Streaming preconditions -----------------------------------------------

TEST(Replay, AdvanceRejectsBackwardsClock) {
  const ReplayFixture& f = fixture();
  StreamingRca stream(f.rca_net, bgp::build_graph(),
                      f.replay_options().stream);
  stream.advance(10'000);
  stream.advance(10'000);  // equal timestamps are fine (idempotent tick)
  EXPECT_THROW(stream.advance(9'999), StateError);
  stream.advance(10'300);  // the stream stays usable after the bad call
}

TEST(Replay, DrainIsIdempotentAndLateDropsAfterwards) {
  const ReplayFixture& f = fixture();
  StreamingRca stream(f.rca_net, bgp::build_graph(),
                      f.replay_options().stream);
  for (const telemetry::RawRecord& r : f.study.records) stream.ingest(r);
  std::vector<core::Diagnosis> first = stream.drain();
  EXPECT_FALSE(first.empty());
  // A second drain with no ingest in between yields nothing new.
  EXPECT_TRUE(stream.drain().empty());
  // Ingest after drain: everything is frozen, so the record is a late drop
  // — counted, not silently lost, and conservation still balances.
  std::size_t drops_before = stream.dropped_late();
  stream.ingest(f.study.records.front());
  EXPECT_EQ(stream.dropped_late(), drops_before + 1);
  EXPECT_EQ(stream.stored() + stream.rejected() + stream.dropped_late(),
            f.study.records.size() + 1);
  EXPECT_TRUE(stream.drain().empty());
}

// ---- Detection latency -----------------------------------------------------

TEST(Replay, DrainedDiagnosesCountInDetectionLatency) {
  const ReplayFixture& f = fixture();
  ReplayOptions options = f.replay_options();
  // A tick longer than the fixture's span: the feed ends before the first
  // tick, so every diagnosis comes from drain().
  options.tick = 30 * util::kDay;
  FeedReplayer replayer(f.rca_net, options);
  ReplayReport report = replayer.replay(f.study.records, bgp::build_graph());
  EXPECT_EQ(report.ticks, 0u);
  ASSERT_GT(report.diagnoses_count, 0u);
  // Drained diagnoses are detected at the end of the feed, so they count
  // toward the mean and the max alike.
  EXPECT_GT(report.detection_mean_s, 0.0);
  EXPECT_LE(report.detection_mean_s,
            static_cast<double>(report.detection_max_s));
}

// ---- Corpus archive round-trip ---------------------------------------------

TEST(Replay, CorpusRoundTripsThroughArchive) {
  const ReplayFixture& f = fixture();
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "grca_replay_corpus_test";
  std::filesystem::remove_all(dir);
  sim::write_corpus(dir, f.sim_net, f.study.records, f.study.truth);
  sim::ReplayCorpus corpus = sim::read_corpus(dir);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(corpus.network.routers().size(), f.sim_net.routers().size());
  ASSERT_EQ(corpus.records.size(), f.study.records.size());
  ASSERT_EQ(corpus.truth.size(), f.study.truth.size());

  // A replay over the re-read corpus (config-rebuilt network twin) produces
  // the same diagnosis set as one over the in-memory originals.
  ReplayOptions options = f.replay_options();
  FeedReplayer original(f.rca_net, options);
  FeedReplayer reread(corpus.network, options);
  std::string fp_original =
      fingerprint(original.replay(f.study.records, bgp::build_graph()).diagnoses);
  std::string fp_reread =
      fingerprint(reread.replay(corpus.records, bgp::build_graph()).diagnoses);
  EXPECT_FALSE(fp_original.empty());
  EXPECT_EQ(fp_reread, fp_original);
}

TEST(Replay, MissingCorpusPiecesAreReported) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "grca_replay_missing_test";
  std::filesystem::remove_all(dir);
  EXPECT_THROW(sim::read_corpus(dir), ConfigError);
  std::filesystem::create_directories(dir / "configs");
  EXPECT_THROW(sim::read_corpus(dir), ConfigError);  // no inventory.txt
  std::filesystem::remove_all(dir);
}

TEST(ReplayCorpus, MalformedRecordNamesFileAndLine) {
  const ReplayFixture& f = fixture();
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "grca_replay_malformed_test";
  std::filesystem::remove_all(dir);
  telemetry::RecordStream records(f.study.records.begin(),
                                  f.study.records.begin() + 3);
  sim::write_corpus(dir, f.sim_net, records, {});
  // Line 1 is the header; break the timestamp of the third record (line 4).
  std::string text;
  {
    std::ifstream in(dir / "records.tsv");
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  std::size_t line4 = 0;
  for (int i = 0; i < 3; ++i) line4 = text.find('\n', line4) + 1;
  text.insert(text.find('\t', line4) + 1, "x");
  std::ofstream(dir / "records.tsv") << text;
  try {
    sim::read_corpus(dir);
    ADD_FAILURE() << "expected ParseError";
  } catch (const ParseError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("records.tsv: line 4: "), std::string::npos) << what;
    EXPECT_NE(what.find("timestamp"), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

/// Writes a small corpus of the fixture's network to a fresh `name` dir.
std::filesystem::path small_corpus(const char* name) {
  const ReplayFixture& f = fixture();
  std::filesystem::path dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  telemetry::RecordStream records(f.study.records.begin(),
                                  f.study.records.begin() + 3);
  sim::write_corpus(dir, f.sim_net, records, f.study.truth);
  return dir;
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// read_corpus must throw a ParseError whose text has every one of `parts`.
void expect_parse_error(const std::filesystem::path& dir,
                        std::initializer_list<std::string> parts) {
  try {
    sim::read_corpus(dir);
    ADD_FAILURE() << "expected ParseError";
  } catch (const ParseError& e) {
    std::string what = e.what();
    for (const std::string& part : parts) {
      EXPECT_NE(what.find(part), std::string::npos) << what;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ReplayCorpus, MalformedConfigNumberNamesFileAndLine) {
  std::filesystem::path dir = small_corpus("grca_replay_bad_config_test");
  std::filesystem::path cfg;
  for (const auto& e : std::filesystem::directory_iterator(dir / "configs")) {
    if (cfg.empty() || e.path() < cfg) cfg = e.path();
  }
  std::string text = read_text(cfg);
  std::size_t card = text.find(" card ");
  ASSERT_NE(card, std::string::npos);
  const auto line = 1 + std::count(text.begin(),
                                   text.begin() + static_cast<long>(card),
                                   '\n');
  text.replace(card, text.find('\n', card) - card, " card x");
  std::ofstream(cfg) << text;
  expect_parse_error(dir, {cfg.string() + ":" + std::to_string(line) + ": ",
                           "bad card slot 'x'"});
}

TEST(ReplayCorpus, MalformedInventoryNumberNamesFileAndLine) {
  std::filesystem::path dir = small_corpus("grca_replay_bad_inventory_test");
  std::string text = read_text(dir / "inventory.txt");
  const auto lines = std::count(text.begin(), text.end(), '\n');
  text += "cdn-node n1 nyc servers 4x ingress r1\n";
  std::ofstream(dir / "inventory.txt") << text;
  expect_parse_error(dir, {(dir / "inventory.txt").string() + ":" +
                               std::to_string(lines + 1) + ": ",
                           "bad server count '4x'"});
}

TEST(ReplayCorpus, MalformedTruthTimeNamesFileAndLine) {
  std::filesystem::path dir = small_corpus("grca_replay_bad_truth_test");
  std::string text = read_text(dir / "truth.tsv");
  // Line 1 is the header; break the time of the second entry (line 3).
  std::size_t line3 = text.find('\n', text.find('\n') + 1) + 1;
  std::size_t time = line3;
  for (int tab = 0; tab < 3; ++tab) time = text.find('\t', time) + 1;
  text.insert(time, "t");
  std::ofstream(dir / "truth.tsv") << text;
  expect_parse_error(dir, {(dir / "truth.tsv").string() + ":3: ", "bad time"});
}

TEST(ReplayCorpus, ReadSpansCoverIngestHead) {
  const ReplayFixture& f = fixture();
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "grca_replay_spans_test";
  std::filesystem::remove_all(dir);
  sim::write_corpus(dir, f.sim_net, f.study.records, f.study.truth);
  std::filesystem::path log = dir / "spans.jsonl";
  ASSERT_TRUE(obs::set_span_log(log.string()));
  sim::read_corpus(dir);
  obs::set_span_log("");
  std::ifstream in(log);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string spans = ss.str();
  std::filesystem::remove_all(dir);
  for (const char* name :
       {"read-configs", "build-network", "read-records", "read-truth"}) {
    EXPECT_NE(spans.find("\"span\":\"" + std::string(name) + "\""),
              std::string::npos)
        << name << " missing from:\n"
        << spans;
  }
}

}  // namespace
}  // namespace grca::apps
