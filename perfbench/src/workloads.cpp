// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "workloads.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "apps/bgp_flap_app.h"
#include "apps/innet_app.h"
#include "apps/pipeline.h"
#include "apps/scoring.h"
#include "apps/streaming.h"
#include "obs/metrics.h"
#include "simulation/archive.h"
#include "simulation/workloads.h"
#include "storage/event_log.h"
#include "storage/persistent_store.h"
#include "telemetry/records_io.h"
#include "topology/config.h"
#include "topology/topo_gen.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace grca;

namespace {

constexpr unsigned kDiagnosisThreads = 4;
constexpr int kSetupReps = 7;
// The host's speed shifts between regimes for seconds at a time, so set-up
// is also re-measured between timed jobs or passes, for at most this share
// of the timed loop: setup_s is then a median over the whole run.
constexpr double kSetupShare = 0.1;
// Reference timings before each bgp-stream pass (one before each batch job),
// so that their median is steady next to a 4-6 s pass.
constexpr int kRefsPerPass = 4;
// bgp-stream: open-loop rate, tick, and the injected arrival skew (both
// well below StreamingOptions::max_skew, so no record may arrive late).
constexpr double kStreamRate = 300000.0;
constexpr util::TimeSec kTick = 300;
constexpr util::TimeSec kSourceLag = 600;
constexpr util::TimeSec kRecordJitter = 60;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Study {
  core::DiagnosisGraph (*graph)();
  void (*browser)(core::ResultBrowser&);
  std::string (*canonical)(const std::string&);
  /// verdict_f1 gate, just under the lowest F1 this code reaches over
  /// seeds 1-10 (bgp: 1.0, innet: 0.965).
  double f1_floor;
};

Study study_for(const std::string& workload) {
  if (workload == "innet-store") {
    return {apps::innet::build_graph, apps::innet::configure_browser,
            apps::innet::canonical_cause, 0.95};
  }
  return {apps::bgp::build_graph, apps::bgp::configure_browser,
          apps::bgp::canonical_cause, 0.99};
}

// ---- Inputs -----------------------------------------------------------------

std::string slurp(const fs::path& file) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot read " + file.string());
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct ConfigText {
  std::vector<std::string> configs;
  std::string inventory;
};

/// The config half of sim::read_corpus: every configs/*.cfg in path order,
/// plus the layer-1 inventory.
ConfigText read_configs(const fs::path& data) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(data / "configs")) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  ConfigText text;
  for (const fs::path& p : paths) text.configs.push_back(slurp(p));
  text.inventory = slurp(data / "inventory.txt");
  return text;
}

telemetry::RecordStream read_records(const fs::path& data) {
  std::ifstream in(data / "records.tsv");
  if (!in) throw std::runtime_error("cannot read records.tsv");
  return telemetry::read_stream(in);
}

std::uintmax_t dir_bytes(const fs::path& dir, std::size_t* files = nullptr,
                         const std::string& ext = "") {
  std::uintmax_t bytes = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    bytes += e.file_size();
    if (files && e.path().extension() == ext) ++*files;
  }
  return bytes;
}

/// One comparable line per diagnosis: symptom location, start, verdict.
std::string verdict_key(const core::Diagnosis& d) {
  return d.symptom.where.key() + "@" + std::to_string(d.symptom.when.start);
}

std::vector<std::string> verdicts(const std::vector<core::Diagnosis>& ds) {
  std::vector<std::string> out;
  out.reserve(ds.size());
  for (const core::Diagnosis& d : ds) {
    out.push_back(verdict_key(d) + "=" + d.primary());
  }
  return out;
}

/// Truth symptoms with no diagnosis of the same symptom and location within
/// the scorer's default 30 s tolerance, as "symptom@router@detail at T
/// (cause)". Only called when the score found such a symptom.
std::vector<std::string> without_verdict(
    const std::vector<core::Diagnosis>& ds,
    const std::vector<sim::TruthEntry>& truth) {
  std::multimap<std::string, util::TimeSec> starts;
  for (const core::Diagnosis& d : ds) {
    const core::Location& where = d.symptom.where;
    std::string detail = where.b;
    if (!where.c.empty()) detail += "|" + where.c;
    starts.emplace(d.symptom.name + "@" + where.a + "@" + detail,
                   d.symptom.when.start);
  }
  std::vector<std::string> out;
  for (const sim::TruthEntry& t : truth) {
    const std::string key = t.symptom + "@" + t.router + "@" + t.detail;
    auto [lo, hi] = starts.equal_range(key);
    if (std::none_of(lo, hi, [&](const auto& s) {
          return std::abs(s.second - t.time) <= 30;
        })) {
      out.push_back(key + " at " + std::to_string(t.time) + " (" + t.cause +
                    ")");
    }
  }
  return out;
}

util::TimeSec watermark_of(const core::EventStore& store) {
  util::TimeSec watermark = 0;
  for (const std::string& name : store.event_names()) {
    for (const core::EventInstance& e : store.all(name)) {
      watermark = std::max(watermark, e.when.start + 1);
    }
  }
  return watermark;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Traced pipeline --------------------------------------------------------

/// apps::Pipeline rebuilt from its public parts, in its constructor's order,
/// with a span around each call. The byte-identity gate on the rendered
/// breakdown keeps this decomposition from drifting from the real class.
struct TracedPipeline {
  std::optional<obs::FeedHealthMonitor> feed_health;
  std::optional<collector::RecordIndex> index;
  std::optional<collector::RebuiltRouting> routing;
  std::optional<core::LocationMapper> mapper;
  core::EventStore store;
  std::shared_ptr<const core::EventStoreView> external;
  std::size_t rejected = 0;

  TracedPipeline(SpanRecorder& rec, const topology::Network& net,
                 const telemetry::RecordStream& raw,
                 const fs::path* store_dir) {
    std::vector<collector::NormalizedRecord> normalized;
    {
      Scope s(&rec, "collector.normalize");
      feed_health.emplace();
      collector::Normalizer normalizer(net, &*feed_health);
      normalized = normalizer.normalize_stream(raw);
      rejected = normalizer.dropped();
    }
    {
      Scope s(&rec, "collector.index");
      index.emplace(std::move(normalized));
    }
    {
      Scope s(&rec, "collector.routing_replay");
      routing.emplace(net);
      mapper.emplace(net, routing->ospf(), routing->bgp());
      routing->replay(index->all());
    }
    if (store_dir) {
      Scope s(&rec, "storage.open");
      external = std::make_shared<storage::PersistentEventStore>(
          storage::PersistentEventStore::open(*store_dir));
    } else {
      Scope s(&rec, "collector.extract");
      store.enable_metrics(obs::registry_ptr());
      collector::EventExtractor(net).extract(index->all(), store);
    }
    if (!index->all().empty()) {
      feed_health->observe_clock(index->all().back().utc);
    }
    {
      Scope s(&rec, "core.warm");
      events().warm();
    }
  }

  // mapper refers into routing: the object must not move.
  TracedPipeline(const TracedPipeline&) = delete;
  TracedPipeline& operator=(const TracedPipeline&) = delete;

  const core::EventStoreView& events() const {
    return external ? *external : store;
  }
};

// ---- Result accumulation ----------------------------------------------------

/// Per-layer values gathered over a run's traced jobs or passes.
struct LayerLog {
  std::map<std::string, std::vector<double>> busy;  // self seconds per run
  std::map<std::string, double> counts;             // last traced run's
  std::vector<double> traced_wall;                  // root span seconds
  std::vector<double> untraced_wall;

  void add_run(const SpanRecorder& rec, int run) {
    for (const auto& [name, s] : self_seconds_by_name(rec.spans(), run)) {
      busy[name].push_back(s);
    }
  }
  double busy_s(const std::string& name) const {
    auto it = busy.find(name);
    return it == busy.end() ? 0.0 : median(it->second);
  }
  double count(const std::string& name) const {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  }
};

void put(RunResult& r, const std::string& name, double value,
         const std::string& unit) {
  r.metrics[name] = Metric{value, unit};
}

double rate(double n, double seconds) {
  return seconds > 0.0 ? n / seconds : 0.0;
}

void gate(RunResult& r, bool ok, const std::string& what) {
  if (!ok) r.gate_failures.push_back(what);
}

/// The timed phase's end-to-end timings, medians over its jobs or passes.
/// Only wall_ref is reported: the raw wall time and rate move with the
/// host's speed and go to the details (and to traced runs' per-layer set).
void put_timings(RunResult& r, double setup_s, const std::vector<double>& walls,
                 const std::vector<double>& refs, std::size_t records) {
  const double wall = median(walls);
  put(r, "setup_s", setup_s, "s");
  put(r, "wall_ref", rate(wall, median(refs)), "ref");
  r.details["wall_s"] = wall;
  r.details["stream_records_per_s"] = rate(static_cast<double>(records), wall);
  r.details["ref_s"] = median(refs);
}

/// Every per-layer metric, 0 where the workload does not use the layer.
void put_layers(RunResult& r, const LayerLog& log, const SpanRecorder& rec) {
  auto busy = [&](const std::string& layer) {
    put(r, layer + ".busy_s", log.busy_s(layer), "s");
  };
  for (const char* layer :
       {"topology.build_network", "telemetry.read_stream",
        "collector.normalize", "collector.index", "collector.routing_replay",
        "collector.extract", "storage.write_sealed", "storage.open",
        "core.warm", "core.diagnose", "core.render", "apps.stream.ingest",
        "apps.stream.advance"}) {
    busy(layer);
  }
  // Counts and percentiles recorded under their metric names.
  for (const auto& [name, unit] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"collector.normalize.rejected", "count"},
           {"collector.routing_replay.records", "count"},
           {"collector.extract.events", "count"},
           {"storage.sealed_bytes", "bytes"},
           {"storage.stream_bytes", "bytes"},
           {"storage.stream_segments", "count"},
           {"core.diagnose.speedup_4t", "ratio"},
           {"core.diagnose.rule_evals", "count"},
           {"core.diagnose.evidence_matches", "count"},
           {"apps.stream.ingest.ingest_us_p50", "us"},
           {"apps.stream.ingest.ingest_us_p99", "us"},
           {"apps.stream.advance.advance_ms_p50", "ms"},
           {"apps.stream.advance.advance_ms_p99", "ms"},
           {"apps.stream.advance.ticks", "count"},
           {"apps.stream.verdict_latency_ms_p50", "ms"},
           {"apps.stream.verdict_latency_ms_p99", "ms"},
           {"apps.stream.verdict_samples", "count"},
           {"apps.stream.generator_lag_ms_p99", "ms"},
           {"apps.stream.generator_lag_ms_max", "ms"},
           {"apps.stream.rejected", "count"},
           {"apps.stream.late_drops", "count"}}) {
    put(r, name, log.count(name), unit);
  }
  // Rates over the layer's busy time, and the join-cache ratio with its base.
  const double records = log.count("records");
  const double read_s = log.busy_s("telemetry.read_stream");
  put(r, "telemetry.read_stream.records_per_s", rate(records, read_s), "1/s");
  put(r, "telemetry.read_stream.mb_per_s",
      rate(log.count("records_tsv_bytes") / 1e6, read_s), "MB/s");
  put(r, "collector.normalize.records_per_s",
      rate(records, log.busy_s("collector.normalize")), "1/s");
  put(r, "core.diagnose.symptoms_per_s",
      rate(log.count("diagnoses"), log.busy_s("core.diagnose")), "1/s");
  const double hits = log.count("join_hits"), misses = log.count("join_misses");
  put(r, "core.join_cache.hit_ratio", rate(hits, hits + misses), "ratio");
  put(r, "core.join_cache.lookups", hits + misses, "count");

  const double unaccounted = unaccounted_fraction(rec.spans());
  put(r, "trace.unaccounted_fraction", unaccounted, "ratio");
  gate(r, unaccounted <= 0.05,
       "spans leave " + std::to_string(unaccounted) +
           " of traced wall uncovered");
  // Every span's median self time, for the layer table (layer_table.py).
  for (const auto& [name, runs] : log.busy) {
    r.details["busy." + name] = median(runs);
  }
  double untraced = median(log.untraced_wall);
  put(r, "wall_s", untraced, "s");
  put(r, "stream_records_per_s", rate(log.count("records"), untraced), "1/s");
  r.details["traced_wall_s"] = median(log.traced_wall);
  put(r, "trace.overhead_fraction",
      untraced > 0.0 ? median(log.traced_wall) / untraced - 1.0 : 0.0,
      "ratio");
}

void registry_counts(const obs::MetricsRegistry& registry, LayerLog& log) {
  obs::MetricsRegistry::Snapshot snap = registry.snapshot();
  auto counter = [&](const std::string& name) -> double {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  log.counts["core.diagnose.rule_evals"] =
      counter("grca_engine_rule_evals_total");
  log.counts["core.diagnose.evidence_matches"] =
      counter("grca_engine_evidence_matches_total");
  log.counts["join_hits"] = counter("grca_join_cache_hits");
  log.counts["join_misses"] = counter("grca_join_cache_misses");
}

// ---- Set-up -----------------------------------------------------------------

/// Builds what the timed phase starts from: the config-derived network, plus
/// (innet-store) a sealed v2 event store extracted from the corpus, plus
/// (bgp-stream) a persisting StreamingRca. Traced when `rec` is non-null.
double setup_once(const RunOptions& o, const Study& study,
                  const fs::path& store_dir, SpanRecorder* rec,
                  LayerLog* log) {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(&registry);
  const auto t0 = Clock::now();
  std::optional<Scope> root;
  if (rec) root.emplace(rec, "setup");
  ConfigText text;
  {
    Scope s(rec, "topology.read_configs");
    text = read_configs(o.data);
  }
  std::optional<topology::Network> net;
  {
    Scope s(rec, "topology.build_network");
    net.emplace(topology::build_network_from_configs(text.configs,
                                                     text.inventory));
  }
  if (o.workload == "innet-store") {
    telemetry::RecordStream raw;
    {
      Scope s(rec, "telemetry.read_stream");
      raw = read_records(o.data);
    }
    if (rec) {
      TracedPipeline p(*rec, *net, raw, nullptr);
      Scope s(rec, "storage.write_sealed");
      storage::write_sealed_store(store_dir, p.store, watermark_of(p.store));
      if (log) {
        log->counts["collector.extract.events"] =
            static_cast<double>(p.store.total_instances());
      }
    } else {
      apps::Pipeline p(*net, raw);
      storage::write_sealed_store(store_dir, p.store(),
                                  watermark_of(p.store()));
    }
  } else if (o.workload == "bgp-stream") {
    Scope s(rec, "apps.stream.construct");
    apps::StreamingOptions opt;
    opt.persist_dir = store_dir;
    apps::StreamingRca stream(*net, study.graph(), opt);
  }
  double seconds = since(t0);
  root.reset();
  if (log && o.workload == "innet-store") {
    log->counts["storage.sealed_bytes"] =
        static_cast<double>(dir_bytes(store_dir));
  }
  return seconds;
}

/// More untraced set-up samples, taken until the set-up time spent in the
/// timed loop started at `t0` reaches kSetupShare of it.
void remeasure_setup(const RunOptions& o, const Study& study,
                     Clock::time_point t0, std::vector<double>& setups,
                     double& spent) {
  const fs::path dir = o.work / "setup-again";
  while (spent < kSetupShare * since(t0)) {
    setups.push_back(setup_once(o, study, dir, nullptr, nullptr));
    spent += setups.back();
    fs::remove_all(dir);
  }
}

// ---- Batch workloads --------------------------------------------------------

struct BatchOutput {
  double wall_s = 0.0;  // corpus on disk -> rendered, scored breakdown
  std::size_t records = 0;
  std::string breakdown;
  std::vector<std::string> verdicts;
  apps::Score score;
  std::vector<std::string> no_verdict;  // see without_verdict()
};

/// apps::Pipeline over the corpus: extracting in memory, or over the sealed
/// store at `store_dir` when given.
std::unique_ptr<apps::Pipeline> make_pipeline(const sim::ReplayCorpus& corpus,
                                              const fs::path* store_dir) {
  if (!store_dir) {
    return std::make_unique<apps::Pipeline>(corpus.network, corpus.records);
  }
  return std::make_unique<apps::Pipeline>(
      corpus.network, corpus.records,
      std::make_shared<storage::PersistentEventStore>(
          storage::PersistentEventStore::open(*store_dir)));
}

/// One batch job through apps::Pipeline, untraced.
BatchOutput batch_job(const Study& study, const fs::path& data,
                      const fs::path* store_dir) {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(&registry);
  BatchOutput out;
  const auto t0 = Clock::now();
  auto corpus = std::make_unique<sim::ReplayCorpus>(sim::read_corpus(data));
  auto pipeline = make_pipeline(*corpus, store_dir);
  std::vector<core::Diagnosis> diags =
      pipeline->diagnose_all(study.graph(), kDiagnosisThreads);
  core::ResultBrowser browser(std::move(diags));
  study.browser(browser);
  out.breakdown = browser.breakdown().render("root cause breakdown");
  out.score = apps::score_diagnoses(browser.diagnoses(), corpus->truth,
                                    study.canonical);
  out.wall_s = since(t0);
  out.records = corpus->records.size();
  out.verdicts = verdicts(browser.diagnoses());
  if (out.score.matched < out.score.truth_total) {
    out.no_verdict = without_verdict(browser.diagnoses(), corpus->truth);
  }
  return out;
}

/// The same job decomposed into spans around each public call. Also times
/// a serial diagnose_all(1) over the same store, after the run span.
BatchOutput traced_batch_job(const Study& study, const fs::path& data,
                             const fs::path* store_dir, SpanRecorder& rec,
                             LayerLog& log, RunResult& r) {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(&registry);
  BatchOutput out;
  const auto t0 = Clock::now();
  std::optional<Scope> root(std::in_place, &rec, "run");
  ConfigText text;
  {
    Scope s(&rec, "topology.read_configs");
    text = read_configs(data);
  }
  std::optional<topology::Network> net;
  {
    Scope s(&rec, "topology.build_network");
    net.emplace(topology::build_network_from_configs(text.configs,
                                                     text.inventory));
  }
  telemetry::RecordStream raw;
  {
    Scope s(&rec, "telemetry.read_stream");
    raw = read_records(data);
  }
  std::vector<sim::TruthEntry> truth;
  {
    Scope s(&rec, "sim.read_truth");
    truth = sim::read_truth(data);
  }
  TracedPipeline p(rec, *net, raw, store_dir);
  std::vector<core::Diagnosis> diags;
  {
    Scope s(&rec, "core.diagnose");
    core::RcaEngine engine(study.graph(), p.events(), *p.mapper);
    diags = engine.diagnose_all(kDiagnosisThreads);
  }
  std::optional<core::ResultBrowser> browser;
  {
    Scope s(&rec, "core.render");
    browser.emplace(std::move(diags));
    study.browser(*browser);
    out.breakdown = browser->breakdown().render("root cause breakdown");
    out.score =
        apps::score_diagnoses(browser->diagnoses(), truth, study.canonical);
  }
  out.wall_s = since(t0);
  root.reset();
  out.records = raw.size();
  out.verdicts = verdicts(browser->diagnoses());

  registry_counts(registry, log);
  log.counts["records"] = static_cast<double>(raw.size());
  log.counts["records_tsv_bytes"] =
      static_cast<double>(fs::file_size(data / "records.tsv"));
  log.counts["collector.normalize.rejected"] = static_cast<double>(p.rejected);
  log.counts["collector.routing_replay.records"] =
      static_cast<double>(p.index->size());
  if (!store_dir) {
    log.counts["collector.extract.events"] =
        static_cast<double>(p.store.total_instances());
  }
  log.counts["diagnoses"] = static_cast<double>(out.verdicts.size());

  // Serial reference over the same store and mapper: identical verdicts,
  // and the speed-up of diagnose_all(4) over diagnose_all(1), both timed on
  // the store the traced run has already warmed (lazy decode included once).
  auto timed_diagnose = [&](unsigned threads, std::vector<std::string>& v) {
    const auto d0 = Clock::now();
    core::RcaEngine engine(study.graph(), p.events(), *p.mapper);
    v = verdicts(engine.diagnose_all(threads));
    return since(d0);
  };
  std::vector<std::string> one, four;
  double serial_s = timed_diagnose(1, one);
  double four_s = timed_diagnose(kDiagnosisThreads, four);
  gate(r, one == out.verdicts && four == out.verdicts,
       "diagnose_all(1) verdicts differ from diagnose_all(4)");
  log.counts["core.diagnose.speedup_4t"] = rate(serial_s, four_s);
  return out;
}

/// Serial verdicts for the thread-count identity gate of untraced runs.
std::vector<std::string> serial_verdicts(const Study& study,
                                         const fs::path& data,
                                         const fs::path* store_dir) {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(&registry);
  sim::ReplayCorpus corpus = sim::read_corpus(data);
  return verdicts(make_pipeline(corpus, store_dir)
                      ->diagnose_all(study.graph(), 1));
}

void score_job(RunResult& r, const Study& study, const BatchOutput& out) {
  r.attempted += out.score.truth_total;
  r.failed += out.score.truth_total - out.score.matched;
  r.no_verdict.insert(out.no_verdict.begin(), out.no_verdict.end());
  gate(r, out.score.f1() >= study.f1_floor,
       "verdict_f1 " + std::to_string(out.score.f1()) + " below floor " +
           std::to_string(study.f1_floor));
}

RunResult run_batch(const RunOptions& o) {
  RunResult r;
  const Study study = study_for(o.workload);
  const bool with_store = o.workload == "innet-store";

  std::vector<double> setups;
  fs::path store_dir;
  for (int i = 0; i < kSetupReps; ++i) {
    if (!store_dir.empty()) fs::remove_all(store_dir);
    store_dir = o.work / ("store-" + std::to_string(i));
    setups.push_back(setup_once(o, study, store_dir, nullptr, nullptr));
  }
  const fs::path* store = with_store ? &store_dir : nullptr;

  if (!o.trace) {
    std::vector<double> walls, refs;
    double setup_spent = 0.0;
    std::size_t records = 0;
    std::optional<BatchOutput> last;
    bool warm = false;  // the first job warms the page cache and allocator
    auto t0 = Clock::now();
    while (walls.size() < 3 || since(t0) < o.seconds) {
      try {
        const double ref = reference_seconds();
        BatchOutput out = batch_job(study, o.data, store);
        if (!warm) {
          warm = true;
          t0 = Clock::now();
          continue;
        }
        refs.push_back(ref);
        walls.push_back(out.wall_s);
        records = out.records;
        score_job(r, study, out);
        if (last) {
          gate(r, out.breakdown == last->breakdown,
               "breakdown differs between repeated runs");
        }
        last = std::move(out);
        remeasure_setup(o, study, t0, setups, setup_spent);
      } catch (const std::exception& e) {
        gate(r, false, std::string("batch job threw: ") + e.what());
        r.attempted += 1;
        r.failed += 1;
        break;
      }
    }
    double rss = peak_rss_mb();
    if (last) {
      gate(r, serial_verdicts(study, o.data, store) == last->verdicts,
           "diagnose_all(1) verdicts differ from diagnose_all(4)");
      put(r, "verdict_f1", last->score.f1(), "ratio");
    }
    put_timings(r, median(setups), walls, refs, records);
    r.details["setup_samples"] = static_cast<double>(setups.size());
    put(r, "peak_rss_mb", rss, "MB");
    r.details["jobs"] = static_cast<double>(walls.size());
    return r;
  }

  // Traced: one traced set-up (run 0), then alternating untraced and traced
  // jobs (runs 1, 2, ...); the traced breakdown must match byte for byte.
  LayerLog log;
  SpanRecorder& rec = r.spans;
  rec.set_run(0);
  fs::path traced_store = o.work / "store-traced";
  setup_once(o, study, traced_store, &rec, &log);
  log.add_run(rec, 0);
  fs::remove_all(traced_store);
  batch_job(study, o.data, store);  // warm-up, as in the untraced runs
  const auto t0 = Clock::now();
  int run = 0;
  while (run < 1 || since(t0) < o.seconds) {
    BatchOutput plain = batch_job(study, o.data, store);
    log.untraced_wall.push_back(plain.wall_s);
    rec.set_run(++run);
    BatchOutput traced = traced_batch_job(study, o.data, store, rec, log, r);
    log.traced_wall.push_back(traced.wall_s);
    log.add_run(rec, run);
    gate(r, traced.breakdown == plain.breakdown,
         "traced breakdown differs from the untraced run");
    gate(r, traced.verdicts == plain.verdicts,
         "traced verdicts differ from the untraced run");
    score_job(r, study, traced);
  }
  put_layers(r, log, rec);
  r.details["traced_runs"] = run;
  return r;
}

// ---- Streaming workload -----------------------------------------------------

/// splitmix64: the benchmark's own generator, so the arrival schedule does
/// not change when the program's RNG does.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::int64_t range(std::int64_t lo, std::int64_t hi) {  // inclusive
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

/// Arrival order: a seeded per-source lag plus a per-record jitter over
/// each record's true emission time, ties broken by emission order.
struct Arrivals {
  std::vector<std::size_t> order;  // record index, in send order
  std::vector<std::int64_t> at;    // arrival sim time, in send order
};

Arrivals arrivals_for(const telemetry::RecordStream& raw, std::uint64_t seed) {
  SplitMix rng{seed * 0x2545F4914F6CDD1Dull + 1};
  std::map<int, std::int64_t> source_lag;
  std::vector<std::pair<std::int64_t, std::size_t>> items;
  items.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    int src = static_cast<int>(raw[i].source);
    auto it = source_lag.find(src);
    if (it == source_lag.end()) {
      it = source_lag.emplace(src, rng.range(0, kSourceLag)).first;
    }
    items.emplace_back(raw[i].true_utc + it->second +
                           rng.range(0, kRecordJitter),
                       i);
  }
  std::sort(items.begin(), items.end());
  Arrivals a;
  for (const auto& [at, i] : items) {
    a.at.push_back(at);
    a.order.push_back(i);
  }
  return a;
}

struct StreamPass {
  LoopStats loop;
  std::vector<std::string> verdicts;
  apps::Score score;
  std::size_t stored = 0, rejected = 0, late = 0;
  std::uintmax_t persist_bytes = 0;
  std::size_t persist_segments = 0;
  std::vector<double> ingest_us, advance_ms;  // traced passes only
  std::vector<std::string> no_verdict;        // see without_verdict()
};

/// One pass of every record through a fresh, persisting StreamingRca.
/// rate 0 = closed loop (flat out); otherwise open loop at `rate`.
StreamPass stream_pass(const topology::Network& net, const Study& study,
                       const telemetry::RecordStream& raw,
                       const Arrivals& arrivals,
                       const std::vector<sim::TruthEntry>& truth, double rate,
                       const fs::path& persist_dir, SpanRecorder* rec) {
  fs::remove_all(persist_dir);
  // Write back pending file data (the generated corpus, the previous pass's
  // log) now, so its writeback does not compete with this pass's WAL I/O.
  if (int fd = ::open(persist_dir.parent_path().c_str(), O_RDONLY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(&registry);
  apps::StreamingOptions opt;
  opt.persist_dir = persist_dir;
  apps::StreamingRca stream(net, study.graph(), opt);

  StreamPass pass;
  std::vector<core::Diagnosis> diags;
  diags.reserve(truth.size() + 64);
  int batch = -1;  // open ingest-batch span (traced passes)
  auto close_batch = [&] {
    if (batch >= 0) rec->end(batch);
    batch = -1;
  };
  auto ingest = [&](std::size_t i) {
    const telemetry::RawRecord& record = raw[arrivals.order[i]];
    if (!rec) {
      stream.ingest(record);
      return;
    }
    if (batch < 0) batch = rec->begin("apps.stream.ingest");
    const auto t = Clock::now();
    stream.ingest(record);
    pass.ingest_us.push_back(since(t) * 1e6);
  };
  auto take = [&](std::vector<core::Diagnosis> out) {
    for (core::Diagnosis& d : out) diags.push_back(std::move(d));
    return out.size();
  };
  auto advance = [&](std::int64_t now) {
    if (!rec) return take(stream.advance(now));
    close_batch();
    Scope s(rec, "apps.stream.advance");
    const auto t = Clock::now();
    std::size_t n = take(stream.advance(now));
    pass.advance_ms.push_back(since(t) * 1e3);
    return n;
  };
  auto drain = [&]() {
    if (!rec) return take(stream.drain());
    close_batch();
    Scope s(rec, "apps.stream.advance");
    const auto t = Clock::now();
    std::size_t n = take(stream.drain());
    pass.advance_ms.push_back(since(t) * 1e3);
    return n;
  };

  Schedule schedule{arrivals.at.empty() ? 0 : arrivals.at.front(), rate};
  {
    std::optional<Scope> root;
    if (rec) root.emplace(rec, "stream");
    SteadyLoopClock clock;
    pass.loop = drive_loop(arrivals.at, kTick, schedule, clock, ingest,
                           advance, drain);
  }
  pass.stored = stream.stored();
  pass.rejected = stream.rejected();
  pass.late = stream.dropped_late();
  pass.score = apps::score_diagnoses(diags, truth, study.canonical);
  if (pass.score.matched < pass.score.truth_total) {
    pass.no_verdict = without_verdict(diags, truth);
  }
  pass.verdicts = verdicts(diags);
  pass.persist_bytes = dir_bytes(persist_dir, &pass.persist_segments, ".grseg");
  return pass;
}

/// The symptom part of a verdict line (everything before the last '=').
std::string symptom_of(const std::string& verdict) {
  return verdict.substr(0, verdict.rfind('='));
}

/// Correctness gates of one pass; failed truth symptoms count in `r`.
/// `batch` is the batch Pipeline's verdicts, sorted. The stream's verdicts
/// must equal them as a multiset, so a symptom diagnosed twice cannot hide
/// one never diagnosed.
void check_pass(RunResult& r, const Study& study, const StreamPass& p,
                const std::vector<std::string>& batch, std::size_t emitted) {
  gate(r, emitted == p.stored + p.rejected + p.late,
       "record conservation: emitted " + std::to_string(emitted) +
           " != stored + rejected + dropped_late");
  gate(r, p.late == 0, std::to_string(p.late) + " late drops");
  std::vector<std::string> stream = p.verdicts;
  std::sort(stream.begin(), stream.end());
  std::vector<std::string> unmatched;  // verdicts on one side only
  std::set_symmetric_difference(stream.begin(), stream.end(), batch.begin(),
                                batch.end(), std::back_inserter(unmatched));
  std::set<std::string> differ;  // symptoms whose verdicts differ
  for (const std::string& v : unmatched) differ.insert(symptom_of(v));
  std::string example;
  for (std::size_t i = 0; i < unmatched.size() && i < 4; ++i) {
    example += (i ? ", " : ": ") + unmatched[i];
  }
  gate(r, differ.empty(),
       std::to_string(differ.size()) + " stream verdicts differ from batch" +
           example);
  gate(r, p.score.f1() >= study.f1_floor,
       "verdict_f1 " + std::to_string(p.score.f1()) + " below floor");
  const std::size_t no_verdict = p.score.truth_total - p.score.matched;
  r.no_verdict.insert(p.no_verdict.begin(), p.no_verdict.end());
  r.attempted += p.score.truth_total;
  r.failed += std::min(no_verdict + differ.size(), p.score.truth_total);
}

RunResult run_stream(const RunOptions& o) {
  RunResult r;
  const Study study = study_for(o.workload);
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    fs::path dir = o.work / ("setup-" + std::to_string(i));
    setups.push_back(setup_once(o, study, dir, nullptr, nullptr));
    fs::remove_all(dir);
  }

  // Inputs parsed before timing: network, records, truth, arrival order.
  sim::ReplayCorpus corpus = sim::read_corpus(o.data);
  const Arrivals arrivals = arrivals_for(corpus.records, o.seed);
  const std::size_t emitted = corpus.records.size();
  const fs::path persist = o.work / "persist";
  std::vector<StreamPass> passes;  // checked once the timed phase is over
  auto pass = [&](double rate, SpanRecorder* rec) -> const StreamPass& {
    passes.push_back(stream_pass(corpus.network, study, corpus.records,
                                 arrivals, corpus.truth, rate, persist, rec));
    return passes.back();
  };
  // The batch Pipeline's verdicts over the same records, for the
  // stream-vs-batch identity gate.
  auto check_passes = [&] {
    obs::MetricsRegistry registry;
    obs::ScopedRegistry scoped(&registry);
    apps::Pipeline pipeline(corpus.network, corpus.records);
    std::vector<std::string> batch =
        verdicts(pipeline.diagnose_all(study.graph(), kDiagnosisThreads));
    std::sort(batch.begin(), batch.end());
    for (const StreamPass& p : passes) {
      check_pass(r, study, p, batch, emitted);
    }
  };

  if (!o.trace) {
    std::vector<double> walls, refs;
    double setup_spent = 0.0;
    double f1 = 0.0;
    const auto t0 = Clock::now();
    while (walls.size() < 2 || since(t0) < o.seconds) {
      for (int i = 0; i < kRefsPerPass; ++i) {
        refs.push_back(reference_seconds());
      }
      const StreamPass& p = pass(0.0, nullptr);
      walls.push_back(p.loop.wall_s);
      f1 = p.score.f1();
      remeasure_setup(o, study, t0, setups, setup_spent);
    }
    double rss = peak_rss_mb();
    check_passes();
    put_timings(r, median(setups), walls, refs, emitted);
    r.details["setup_samples"] = static_cast<double>(setups.size());
    put(r, "verdict_f1", f1, "ratio");
    put(r, "peak_rss_mb", rss, "MB");
    r.details["closed_loop_passes"] = static_cast<double>(walls.size());
    return r;
  }

  // Traced: set-up (run 0), then untraced and traced closed-loop passes
  // (runs 1, 2, ...), then one untraced open-loop pass at kStreamRate for
  // verdict latency and the generator's lag.
  LayerLog log;
  SpanRecorder& rec = r.spans;
  rec.set_run(0);
  setup_once(o, study, o.work / "setup-traced", &rec, &log);
  log.add_run(rec, 0);
  fs::remove_all(o.work / "setup-traced");
  const auto t0 = Clock::now();
  int run = 0;
  StreamPass traced;
  while (run < 1 || since(t0) < o.seconds) {
    std::vector<std::string> plain = pass(0.0, nullptr).verdicts;
    log.untraced_wall.push_back(passes.back().loop.wall_s);
    rec.set_run(++run);
    traced = pass(0.0, &rec);
    log.traced_wall.push_back(traced.loop.wall_s);
    log.add_run(rec, run);
    gate(r, traced.verdicts == plain,
         "traced stream verdicts differ from the untraced pass");
  }
  StreamPass open = pass(kStreamRate, nullptr);
  check_passes();
  log.counts["apps.stream.ingest.ingest_us_p50"] =
      percentile(traced.ingest_us, 50);
  log.counts["apps.stream.ingest.ingest_us_p99"] =
      percentile(traced.ingest_us, 99);
  log.counts["apps.stream.advance.advance_ms_p50"] =
      percentile(traced.advance_ms, 50);
  log.counts["apps.stream.advance.advance_ms_p99"] =
      percentile(traced.advance_ms, 99);
  log.counts["apps.stream.generator_lag_ms_p99"] =
      percentile(open.loop.generator_lag_ms, 99);
  log.counts["apps.stream.generator_lag_ms_max"] =
      percentile(open.loop.generator_lag_ms, 100);
  log.counts["records"] = static_cast<double>(emitted);
  log.counts["apps.stream.advance.ticks"] =
      static_cast<double>(traced.loop.ticks);
  log.counts["apps.stream.rejected"] = static_cast<double>(traced.rejected);
  log.counts["apps.stream.late_drops"] = static_cast<double>(traced.late);
  log.counts["storage.stream_bytes"] =
      static_cast<double>(traced.persist_bytes);
  log.counts["storage.stream_segments"] =
      static_cast<double>(traced.persist_segments);
  const std::vector<double>& latency = open.loop.verdict_latency_ms;
  log.counts["apps.stream.verdict_latency_ms_p50"] = percentile(latency, 50);
  log.counts["apps.stream.verdict_latency_ms_p99"] = percentile(latency, 99);
  log.counts["apps.stream.verdict_samples"] =
      static_cast<double>(latency.size());
  r.details["open_loop_rate"] = kStreamRate;
  gate(r, highest_reportable_percentile(latency.size()) >= 99.0,
       "too few verdict latency samples for a p99 with 10 beyond it");
  put_layers(r, log, rec);
  r.details["traced_runs"] = run;
  return r;
}

}  // namespace

void generate(const std::string& workload, std::uint64_t seed,
              const fs::path& out) {
  topology::TopoParams tp = topology::paper_scale_params();
  tp.seed = seed;
  topology::Network net = topology::generate_isp(tp);
  sim::StudyOutput study;
  if (workload == "innet-store") {
    sim::InnetStudyParams p;
    p.days = 30;
    p.target_symptoms = 2400;
    p.seed = seed + 1;
    study = sim::run_innet_study(net, p);
  } else {
    sim::BgpStudyParams p;
    p.days = 30;
    p.target_symptoms = 2000;
    p.seed = seed + 1;
    study = sim::run_bgp_study(net, p);
  }
  sim::write_corpus(out, net, study.records, study.truth);
}

RunResult run(const RunOptions& options) {
  fs::create_directories(options.work);
  return options.workload == "bgp-stream" ? run_stream(options)
                                          : run_batch(options);
}

}  // namespace perfbench
