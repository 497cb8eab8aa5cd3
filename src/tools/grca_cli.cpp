// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// `grca` — the operator-facing command-line tool.
//
//   grca dump-library
//       Print the Knowledge Library (Table I events, Table II rules).
//
//   grca simulate --study bgp|cdn|pim|innet --out DIR
//                 [--days N] [--symptoms N] [--seed S] [--paper-scale]
//                 [--store-out DIR]
//       Generate a synthetic ISP + study workload; write the router config
//       snapshots, the layer-1 inventory, the raw telemetry archive and the
//       ground-truth labels under DIR. --store-out additionally runs the
//       collector once and persists the extracted event store as a sealed
//       segmented event log (see docs/STORAGE.md), which `diagnose --store`
//       can reopen without re-extracting.
//
//   grca diagnose --study bgp|cdn|pim|innet --data DIR
//                 [--dsl FILE]... [--threads N] [--trend] [--score]
//                 [--drill CAUSE] [--metrics-out FILE] [--store DIR]
//                 [--span-log FILE]
//       Rebuild the network from DIR's configs, replay the telemetry
//       archive, run the study's RCA application (plus any extra DSL
//       files), and print the root-cause breakdown. --threads fans
//       per-symptom diagnosis out over N workers (default: hardware
//       concurrency; 1 = serial — same output either way). --score
//       compares against DIR/truth.tsv; --drill prints one drill-down for
//       the given diagnosed cause ("unknown" works). --metrics-out dumps
//       the metrics registry after the run (FILE ending in .json selects
//       JSON, anything else Prometheus text). --store serves events from a
//       persisted event log (decoded at open) instead of re-extracting
//       them — verdicts are byte-identical either way. --span-log records
//       stage spans as JSONL (convert with `grca spans`).
//
//   grca metrics --study bgp|cdn|pim|innet --data DIR [--threads N]
//                [--format prometheus|json]
//       Run the same pipeline + diagnosis as `diagnose`, but print the
//       metrics registry instead of the breakdown: per-source feed
//       counts/lag/gaps, per-stage latency histograms, engine counters.
//
//   grca calibrate --study bgp|cdn|pim|innet --data DIR [--store DIR]
//                  --symptom EVENT --diagnostic EVENT --join LEVEL
//       Learn temporal margins for a rule from the archived data (§VI),
//       over the same pipeline `diagnose` builds for the study (the CDN
//       study's BGP egress changes included). --store reads events from a
//       persisted event log instead of re-extracting, matching `diagnose
//       --store`.
//
//   grca learn (--study bgp|cdn|pim|innet --data DIR [--store DIR]
//              | --topology FILE --scenario CLASS [--days N] [--symptoms N]
//                [--noise X] [--pers N] [--customers N])
//              [--seed S] [--ablate SYM->DIAG]... [--dsl FILE]...
//              [--max-iterations N] [--budget N] [--min-score X] [--alpha X]
//              [--permutations N] [--threads N] [--deterministic]
//              [--out FILE] [--gate-out FILE] [--rules-out FILE]
//              [--metrics-out FILE] [--span-log FILE]
//       Close the §II-E rule-learning loop: diagnose the corpus against the
//       current rule library, mine the unknown residue with the NICE
//       correlation tester, propose candidate rules (join-level search +
//       temporal calibration), re-score against ground truth and accept
//       only candidates that improve held-out F1 — until an iteration
//       accepts nothing or the candidate budget runs out. Input is either a
//       recorded corpus (--study/--data, optionally --store) or a
//       regenerated benchmark cell (--topology/--scenario, same seeds as
//       `grca benchmark`). --ablate drops rules from the starting library
//       first (the rule-ablation benchmark: verify the loop re-learns
//       them). --out writes the per-iteration accuracy-curve report JSON,
//       --gate-out the flat metric map for tools/bench_diff.py, --rules-out
//       the accepted rules as reviewable DSL. --deterministic drops
//       wall-clock timing so every rendering is byte-stable.
//
//   grca replay [--study bgp|cdn|pim|innet] [--data DIR]
//               [--rate N[x]|max] [--tick SEC] [--source-lag SEC]
//               [--jitter SEC] [--seed S] [--days N] [--symptoms N]
//               [--report-out FILE] [--metrics-out FILE]
//               [--min-rate RECORDS_PER_MIN] [--no-truth]
//       Replay a recorded corpus (--data) or a freshly generated default
//       scenario through the streaming RCA engine at a scaled (or maximum)
//       rate with seeded per-source arrival skew, and print the replay
//       report: throughput, ingest latency percentiles, per-source feed
//       health, the record conservation check, and (unless --no-truth)
//       ground-truth coverage plus a streaming-vs-batch verdict diff.
//       Exits nonzero when a check fails or the sustained rate is below
//       --min-rate.
//
//   grca serve --study bgp|cdn|pim|innet [--data DIR] [--port N]
//              [--port-file FILE] [--http-threads N] [--api-dump DIR]
//              [--once] [--public] [--follow] [--rate N[x]|max] [--tick SEC]
//              [--idle-ticks N] [--alert-rules FILE]
//              [--persist DIR] [--persist-seal-every SEC]
//              [--days N] [--symptoms N] [--seed S]
//       Run a diagnosis and serve it over HTTP: GET /metrics (Prometheus
//       scrape), /api/breakdown, /api/trending, /api/drilldown/{cause},
//       /api/health, /api/alerts, /healthz. Default (batch) mode runs the
//       study once and serves the finished result; --follow streams the
//       corpus through the real-time engine at --rate, publishing a fresh
//       snapshot every --tick sim-seconds while the feed-health alert
//       engine (default rules or --alert-rules FILE) injects missing-data
//       evidence into the live diagnosis. --idle-ticks keeps the stream
//       clock advancing after the corpus ends (feeds go silent and the
//       alarms fire — the smoke test's trigger). --api-dump writes every
//       /api/* response to DIR through the exact handler the server uses,
//       so a live curl and the dump are byte-identical; --once exits after
//       the dump instead of serving. SIGINT/SIGTERM shut down gracefully:
//       the stream drains, the persistence watermark seals, listeners
//       close.
//
//   grca store inspect|verify|compact --dir DIR
//       Operate on a persisted event log. `inspect` prints per-segment
//       summaries (sequence, events, names, watermark, bytes; for sealed
//       segments also dictionary and zone-map sizes plus per-name run
//       summaries: rows, blocks, start range, column-region bytes; a WAL
//       torn inside its header is reported as a torn tail).
//       `verify` runs the full integrity sweep — header/footer/WAL-frame
//       CRCs, column-region CRCs, full structural decode — and exits
//       nonzero on any corruption; `--deep` additionally recomputes footer
//       statistics (max durations, zone maps) from a full rescan. `compact`
//       folds every sealed segment plus the WAL's valid prefix into one
//       segment (query results unchanged).
//
//   grca spans --in FILE [--out FILE]
//       Convert a span JSONL log (from --span-log) into a Chrome trace
//       file: load the output into chrome://tracing or https://ui.perfetto.dev
//       for a flame-style view of the run's stages.
//
//   grca benchmark [--topology FILE]... [--topo-dir DIR] [--scenarios LIST]
//                  [--days N] [--symptoms N] [--seed S] [--threads N]
//                  [--noise X] [--pers N] [--customers N] [--out FILE]
//                  [--gate-out FILE] [--deterministic]
//       Run the RCAEval-style scorecard: import every --topology file (or
//       all *.graph files under --topo-dir, default bench/topologies) in
//       REPETITA flat-text format, generate each fault-scenario class on
//       each imported network (maintenance-storm, srlg-cut, route-leak,
//       gray-failure, cdn-flood — or the --scenarios comma list), diagnose
//       the corpus end-to-end, and print per-cell precision/recall/F1 plus
//       diagnosis throughput. --out writes the scorecard JSON; --gate-out
//       writes the flat metric map tools/bench_diff.py gates on.
//       --deterministic drops wall-clock throughput from all outputs so
//       they are byte-stable across machines (golden fixtures, CI gates).
//
//   grca version
//       Print the build version (also: grca --version).

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <set>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "apps/benchmark.h"
#include "apps/pipeline.h"
#include "apps/replay.h"
#include "apps/scoring.h"
#include "apps/study.h"
#include "core/calibration.h"
#include "core/knowledge_library.h"
#include "core/rule_dsl.h"
#include "core/trending.h"
#include "learn/driver.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "service/alerts.h"
#include "service/service_plane.h"
#include "service/shutdown.h"
#include "simulation/archive.h"
#include "storage/event_log.h"
#include "storage/persistent_store.h"
#include "topology/import.h"
#include "topology/topo_gen.h"
#include "util/strings.h"

namespace fs = std::filesystem;
using namespace grca;

// Injected by src/tools/CMakeLists.txt (project version + git describe).
#ifndef GRCA_VERSION
#define GRCA_VERSION "unknown"
#endif

namespace {

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      R"(usage:
  grca dump-library
  grca simulate --study bgp|cdn|pim|innet --out DIR [--days N] [--symptoms N]
                [--seed S] [--paper-scale] [--store-out DIR]
  grca diagnose --study bgp|cdn|pim|innet --data DIR [--dsl FILE]...
                [--threads N] [--trend] [--score] [--drill CAUSE]
                [--metrics-out FILE] [--store DIR] [--span-log FILE]
  grca metrics --study bgp|cdn|pim|innet --data DIR [--threads N]
               [--format prometheus|json] [--store DIR]
  grca calibrate --study bgp|cdn|pim|innet --data DIR [--store DIR]
                 --symptom EVENT --diagnostic EVENT --join LEVEL
  grca learn (--study bgp|cdn|pim|innet --data DIR [--store DIR]
             | --topology FILE --scenario CLASS [--days N] [--symptoms N]
               [--noise X] [--pers N] [--customers N])
             [--seed S] [--ablate SYM->DIAG]... [--dsl FILE]...
             [--max-iterations N] [--budget N] [--min-score X] [--alpha X]
             [--permutations N] [--threads N] [--deterministic] [--out FILE]
             [--gate-out FILE] [--rules-out FILE] [--metrics-out FILE]
             [--span-log FILE]
  grca replay [--study bgp|cdn|pim|innet] [--data DIR] [--rate N[x]|max]
              [--tick SEC] [--source-lag SEC] [--jitter SEC] [--seed S]
              [--days N] [--symptoms N] [--report-out FILE]
              [--metrics-out FILE] [--min-rate RECORDS_PER_MIN] [--no-truth]
              [--persist DIR] [--persist-seal-every SEC]
  grca serve --study bgp|cdn|pim|innet [--data DIR] [--port N]
             [--port-file FILE] [--http-threads N] [--api-dump DIR] [--once]
             [--public] [--follow] [--rate N[x]|max] [--tick SEC]
             [--idle-ticks N] [--alert-rules FILE]
             [--persist DIR] [--persist-seal-every SEC]
             [--days N] [--symptoms N] [--seed S]
  grca store inspect --dir DIR
  grca store verify --dir DIR [--deep]
  grca store compact --dir DIR
  grca spans --in FILE [--out FILE]
  grca benchmark [--topology FILE]... [--topo-dir DIR] [--scenarios LIST]
                 [--days N] [--symptoms N] [--seed S] [--threads N]
                 [--noise X] [--pers N] [--customers N] [--out FILE]
                 [--gate-out FILE] [--deterministic]
  grca version
)";
  std::exit(2);
}

/// Minimal flag parser: --key value pairs plus bare flags. Each command
/// names the value keys and bare flags it accepts; any other --key is a
/// usage error, so a mistyped option never runs silently on a default.
struct Args {
  std::map<std::string, std::vector<std::string>> values;
  std::set<std::string> flags;

  static Args parse(int argc, char** argv, int from,
                    const std::set<std::string>& keys,
                    const std::set<std::string>& bare = {}) {
    Args args;
    for (int i = from; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) usage("unexpected argument " + arg);
      std::string key = arg.substr(2);
      if (bare.count(key)) {
        args.flags.insert(key);
      } else if (keys.count(key)) {
        if (i + 1 >= argc) usage("missing value for --" + key);
        args.values[key].push_back(argv[++i]);
      } else {
        usage("unknown option --" + key);
      }
    }
    return args;
  }

  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = values.find(key);
    if (it == values.end()) {
      if (fallback.empty()) usage("missing --" + key);
      return fallback;
    }
    return it->second.back();
  }
  long get_long(const std::string& key, long fallback) const {
    return number(key, fallback);
  }
  double get_double(const std::string& key, double fallback) const {
    return number(key, fallback);
  }

 private:
  /// The value of --key read wholly as a T; anything else is a usage error.
  template <typename T>
  T number(const std::string& key, T fallback) const {
    auto it = values.find(key);
    if (it == values.end()) return fallback;
    try {
      return util::to_number<T>(it->second.back(), "--" + key + " value");
    } catch (const ParseError& e) {
      usage(e.what());
    }
  }
};

const apps::Study& study_arg(const Args& args,
                             const std::string& fallback = "") {
  try {
    return apps::find_study(args.get("study", fallback));
  } catch (const ConfigError& e) {
    usage(e.what());
  }
}

unsigned threads_arg(const Args& args) {
  long threads = args.get_long("threads", 0);  // 0 = hardware concurrency
  if (threads < 0) usage("--threads must be >= 0");
  return static_cast<unsigned>(threads);
}

/// --rate N[x]|max: a positive speed-up factor, or 0 for "max" (as fast as
/// possible).
double rate_arg(const Args& args) {
  std::string rate = args.get("rate", "max");
  if (rate == "max") return 0.0;
  if (!rate.empty() && rate.back() == 'x') rate.pop_back();
  std::optional<double> factor = util::parse_number<double>(rate);
  if (!factor || *factor <= 0) {
    usage("--rate must be a positive factor or 'max'");
  }
  return *factor;
}

void open_span_log(const Args& args) {
  if (auto it = args.values.find("span-log"); it != args.values.end()) {
    if (!obs::set_span_log(it->second.back())) {
      usage("cannot write span log " + it->second.back());
    }
  }
}

int cmd_dump_library() {
  core::DiagnosisGraph graph;
  core::load_knowledge_library(graph);
  std::cout << core::render_dsl(graph);
  return 0;
}

/// Synthetic workload scale: days of telemetry, ground-truth symptoms.
struct Scale {
  int days;
  int symptoms;
};

/// The corpus a command runs on: --data DIR when given; otherwise a freshly
/// generated ISP + study workload at `generate` (--days/--symptoms/--seed/
/// --paper-scale override it). Without `generate`, --data is required.
std::unique_ptr<sim::ReplayCorpus> load_corpus(const Args& args,
                                               const apps::Study& study,
                                               std::optional<Scale> generate) {
  if (!generate || args.values.count("data")) {
    return std::make_unique<sim::ReplayCorpus>(
        sim::read_corpus(fs::path(args.get("data"))));
  }
  topology::TopoParams tp;
  if (args.flags.count("paper-scale")) {
    tp = topology::paper_scale_params();
  } else {
    tp.pops = 10;
    tp.pers_per_pop = 6;
    tp.customers_per_per = 8;
    tp.mvpn_count = 4;
    tp.mvpn_sites_per_vpn = 10;
  }
  tp.seed = static_cast<std::uint64_t>(args.get_long("seed", 42));
  int days = static_cast<int>(args.get_long("days", generate->days));
  int symptoms =
      static_cast<int>(args.get_long("symptoms", generate->symptoms));
  topology::Network net = topology::generate_isp(tp);
  sim::StudyOutput result = study.generate(net, days, symptoms, tp.seed + 1);
  return std::make_unique<sim::ReplayCorpus>(sim::ReplayCorpus{
      std::move(net), std::move(result.records), std::move(result.truth)});
}

/// The pipeline over `corpus`: events from the persisted log at --store DIR
/// when given, else extracted with the study's egress observers.
std::unique_ptr<apps::Pipeline> open_pipeline(const Args& args,
                                              const apps::Study& study,
                                              const sim::ReplayCorpus& corpus) {
  const topology::Network& net = corpus.network;
  if (auto it = args.values.find("store"); it != args.values.end()) {
    return std::make_unique<apps::Pipeline>(
        net, corpus.records,
        std::make_shared<storage::PersistentEventStore>(
            storage::PersistentEventStore::open(fs::path(it->second.back()))));
  }
  return std::make_unique<apps::Pipeline>(net, corpus.records,
                                          collector::ExtractOptions{},
                                          study.egress_observers(net));
}

/// The study's graph plus every --dsl file.
core::DiagnosisGraph load_graph(const Args& args, const apps::Study& study) {
  core::DiagnosisGraph graph = study.build_graph();
  if (auto it = args.values.find("dsl"); it != args.values.end()) {
    for (const std::string& file : it->second) {
      std::ifstream in(file);
      if (!in) usage("cannot open DSL file " + file);
      std::stringstream ss;
      ss << in.rdbuf();
      core::load_dsl(ss.str(), graph, file);
    }
    graph.validate();
  }
  return graph;
}

int cmd_simulate(const Args& args) {
  const apps::Study& study = study_arg(args);
  fs::path out(args.get("out"));
  std::unique_ptr<sim::ReplayCorpus> corpus = load_corpus(
      args, study, Scale{study.default_days, study.default_symptoms});
  sim::write_corpus(out, corpus->network, corpus->records, corpus->truth);
  std::cout << "wrote " << corpus->network.routers().size() << " configs, "
            << corpus->records.size() << " records, " << corpus->truth.size()
            << " truth labels under " << out.string() << "\n";
  if (auto it = args.values.find("store-out"); it != args.values.end()) {
    fs::path store_dir(it->second.back());
    std::unique_ptr<apps::Pipeline> pipeline =
        open_pipeline(args, study, *corpus);
    const core::EventStore& store = pipeline->store();
    // Batch extraction is complete, so the watermark is one past the last
    // event start: everything on disk is final.
    util::TimeSec watermark = 0;
    for (const std::string& name : store.event_names()) {
      for (const core::EventInstance& e : store.all(name)) {
        watermark = std::max(watermark, e.when.start + 1);
      }
    }
    storage::write_sealed_store(store_dir, store, watermark);
    std::cout << "persisted " << store.total_instances() << " events ("
              << store.event_names().size() << " names) to "
              << store_dir.string() << "\n";
  }
  return 0;
}

/// `diagnose` and `metrics`: the study's corpus from --data, its pipeline,
/// and a full diagnose_all over its graph. The corpus is owned here because
/// the pipeline keeps a reference to its network.
struct StudyRun {
  const apps::Study* study = nullptr;
  std::unique_ptr<sim::ReplayCorpus> corpus;
  std::unique_ptr<apps::Pipeline> pipeline;
  std::vector<core::Diagnosis> diagnoses;
};

StudyRun run_study(const Args& args) {
  open_span_log(args);
  StudyRun run;
  run.study = &study_arg(args);
  // Graph and options first: a bad --dsl file fails before ingest.
  core::DiagnosisGraph graph = load_graph(args, *run.study);
  unsigned threads = threads_arg(args);
  run.corpus = load_corpus(args, *run.study, std::nullopt);
  run.pipeline = open_pipeline(args, *run.study, *run.corpus);
  run.diagnoses = run.pipeline->diagnose_all(std::move(graph), threads);
  return run;
}

/// Dumps the installed registry to FILE; `.json` selects JSON, anything
/// else Prometheus text.
void write_metrics_file(const fs::path& file) {
  obs::MetricsRegistry* reg = obs::registry_ptr();
  if (!reg) throw ConfigError("--metrics-out: no metrics registry installed");
  std::ofstream out(file);
  if (!out) usage("cannot write " + file.string());
  out << (file.extension() == ".json" ? obs::render_json(*reg)
                                      : obs::render_prometheus(*reg));
}

int cmd_diagnose(const Args& args) {
  StudyRun run = run_study(args);
  apps::Pipeline& pipeline = *run.pipeline;
  core::ResultBrowser browser(std::move(run.diagnoses));
  run.study->configure_browser(browser);
  std::cout << browser.breakdown().render("root cause breakdown");
  std::cout << "\nmean diagnosis time: " << browser.mean_diagnosis_ms()
            << " ms/symptom over " << browser.diagnoses().size()
            << " symptoms\n";

  if (args.flags.count("trend")) {
    std::cout << "\n" << browser.trend().render("daily trend");
    core::TrendSeries series = core::daily_counts(browser.diagnoses());
    if (auto alert = core::detect_level_shift(series)) {
      std::cout << "TREND ALERT: daily symptom rate shifted "
                << alert->before_mean << " -> " << alert->after_mean
                << "/day on " << util::format_utc(alert->day_utc)
                << " (score " << alert->score << ")\n";
    }
  }
  if (args.flags.count("score")) {
    const std::vector<sim::TruthEntry>& truth = run.corpus->truth;
    if (truth.empty()) {
      std::cout << "\nno truth.tsv found; skipping scoring\n";
    } else {
      apps::Score score = apps::score_diagnoses(browser.diagnoses(), truth,
                                                run.study->canonical_cause);
      std::cout << "\naccuracy vs ground truth: " << 100.0 * score.accuracy()
                << "% (" << score.correct << "/" << score.matched
                << " matched diagnoses)\n";
    }
  }
  if (auto it = args.values.find("drill"); it != args.values.end()) {
    auto cases = browser.with_cause(it->second.back());
    if (cases.empty()) {
      std::cout << "\nno diagnoses with cause " << it->second.back() << "\n";
    } else {
      std::cout << "\n"
                << browser.drill_down(*cases.front(),
                                      pipeline.context_lookup());
    }
  }
  if (auto it = args.values.find("metrics-out"); it != args.values.end()) {
    write_metrics_file(fs::path(it->second.back()));
  }
  return 0;
}

int cmd_metrics(const Args& args) {
  std::string format = args.get("format", "prometheus");
  if (format != "prometheus" && format != "json") {
    usage("--format must be prometheus or json");
  }
  StudyRun run = run_study(args);  // fills the registry as a side effect
  obs::MetricsRegistry* reg = obs::registry_ptr();
  if (!reg) {
    std::cerr << "error: no metrics registry installed\n";
    return 1;
  }
  std::cout << (format == "json" ? obs::render_json(*reg)
                                 : obs::render_prometheus(*reg));
  return 0;
}

int cmd_calibrate(const Args& args) {
  const apps::Study& study = study_arg(args);
  std::unique_ptr<sim::ReplayCorpus> corpus =
      load_corpus(args, study, std::nullopt);
  std::unique_ptr<apps::Pipeline> pipeline =
      open_pipeline(args, study, *corpus);
  auto result = core::calibrate_temporal(
      pipeline->store(), pipeline->mapper(), args.get("symptom"),
      args.get("diagnostic"), core::parse_location_type(args.get("join")));
  if (!result) {
    std::cout << "not enough co-occurrences to calibrate\n";
    return 1;
  }
  std::cout << "samples: " << result->samples
            << "  median lag: " << result->median_lag
            << " s  coverage: " << 100.0 * result->coverage << "%\n";
  std::cout << "calibrated rule:\n"
            << "  symptom " << core::to_string(result->rule.symptom.option)
            << " " << result->rule.symptom.left << " "
            << result->rule.symptom.right << "\n"
            << "  diagnostic "
            << core::to_string(result->rule.diagnostic.option) << " "
            << result->rule.diagnostic.left << " "
            << result->rule.diagnostic.right << "\n";
  return 0;
}

int cmd_replay(const Args& args) {
  const apps::Study& study = study_arg(args, "bgp");
  // Source data: a recorded corpus, or a freshly generated default scenario
  // (a two-week study at paper-like symptom density).
  std::unique_ptr<sim::ReplayCorpus> corpus =
      load_corpus(args, study, Scale{14, 1000});

  apps::ReplayOptions opt;
  opt.rate = rate_arg(args);
  opt.tick = args.get_long("tick", 300);
  opt.source_lag = args.get_long("source-lag", 120);
  opt.record_jitter = args.get_long("jitter", 60);
  opt.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  if (auto it = args.values.find("persist"); it != args.values.end()) {
    opt.stream.persist_dir = fs::path(it->second.back());
    opt.stream.persist_seal_every =
        args.get_long("persist-seal-every", util::kHour);
  }

  apps::FeedReplayer replayer(corpus->network, opt);
  bool with_truth = !args.flags.count("no-truth");
  apps::ReplayReport report = replayer.replay(
      corpus->records, load_graph(args, study),
      with_truth ? &corpus->truth : nullptr, study.canonical_cause);

  std::cout << apps::render_text(report);
  if (auto it = args.values.find("report-out"); it != args.values.end()) {
    std::ofstream out(it->second.back());
    if (!out) usage("cannot write " + it->second.back());
    out << apps::render_json(report);
  }
  if (auto it = args.values.find("metrics-out"); it != args.values.end()) {
    write_metrics_file(fs::path(it->second.back()));
  }

  long min_rate = args.get_long("min-rate", 0);
  if (min_rate > 0 && report.records_per_min() < static_cast<double>(min_rate)) {
    std::cerr << "replay gate: sustained " << report.records_per_min()
              << " records/min < required " << min_rate << "\n";
    return 1;
  }
  return report.passed() ? 0 : 1;
}

/// Writes every /api/* response to `dir` through ServicePlane::handle —
/// the exact code path the live server runs, so a curl of the running
/// server and these files are byte-identical (the CI smoke job diffs them).
void api_dump(const service::ServicePlane& plane, const fs::path& dir) {
  fs::create_directories(dir);
  static constexpr std::pair<const char*, const char*> kEndpoints[] = {
      {"/api/breakdown", "breakdown.json"},
      {"/api/trending", "trending.json"},
      {"/api/health", "health.json"},
      {"/api/alerts", "alerts.json"},
      {"/api/drilldown/unknown", "drilldown-unknown.json"},
  };
  for (const auto& [target, file] : kEndpoints) {
    std::ofstream out(dir / file);
    if (!out) usage("cannot write " + (dir / file).string());
    out << plane.get(target);
  }
  std::cout << "wrote " << std::size(kEndpoints) << " API dumps under "
            << dir.string() << "\n";
}

std::vector<service::AlertRule> load_alert_rules(const Args& args) {
  auto it = args.values.find("alert-rules");
  if (it == args.values.end()) return service::default_alert_rules();
  std::ifstream in(it->second.back());
  if (!in) usage("cannot open alert rules file " + it->second.back());
  std::stringstream ss;
  ss << in.rdbuf();
  return service::parse_alert_rules(ss.str());
}

/// Starts the HTTP listeners and reports where they landed (--port 0 binds
/// an ephemeral port; --port-file is how scripts learn which).
void start_serving(service::ServicePlane& plane, const Args& args) {
  plane.start();
  if (auto it = args.values.find("port-file"); it != args.values.end()) {
    std::ofstream out(it->second.back());
    if (!out) usage("cannot write " + it->second.back());
    out << plane.port() << "\n";
  }
  std::cout << "serving on http://127.0.0.1:" << plane.port()
            << " (/metrics, /api/*)" << std::endl;
}

/// Blocks until SIGINT/SIGTERM, then announces the graceful shutdown.
void wait_for_shutdown(service::ServicePlane& plane) {
  while (!service::ShutdownSignal::requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "signal " << service::ShutdownSignal::signal_number()
            << ": closing listeners" << std::endl;
  plane.stop();
}

int cmd_serve(const Args& args) {
  const apps::Study& study = study_arg(args);
  bool follow = args.flags.count("follow") > 0;
  bool once = args.flags.count("once") > 0;

  std::unique_ptr<sim::ReplayCorpus> corpus =
      load_corpus(args, study, Scale{14, 1000});
  if (corpus->records.empty()) usage("corpus has no records");

  service::ServicePlaneOptions popt;
  popt.port = static_cast<std::uint16_t>(args.get_long("port", 0));
  popt.http_threads = static_cast<unsigned>(args.get_long("http-threads", 1));
  popt.loopback_only = args.flags.count("public") == 0;
  service::ServicePlane plane(popt);
  {
    // Same labels and row order as the study's offline report tables.
    core::ResultBrowser browser{std::vector<core::Diagnosis>{}};
    study.configure_browser(browser);
    plane.set_display(service::DisplayConfig::from_browser(browser));
  }

  service::ShutdownSignal::install();

  if (!follow) {
    // Batch mode: run the study once, publish the finished result, serve.
    std::unique_ptr<apps::Pipeline> pipeline =
        open_pipeline(args, study, *corpus);
    std::vector<core::Diagnosis> diagnoses =
        pipeline->diagnose_all(load_graph(args, study), threads_arg(args));
    // The stream clock echoed by /api/health: end of the diagnosed data
    // (deterministic, so batch dumps are reproducible run to run).
    util::TimeSec now = 0;
    for (const core::Diagnosis& d : diagnoses) {
      now = std::max(now, d.symptom.when.end);
    }
    plane.add_diagnoses(diagnoses);
    plane.set_health(pipeline->feed_health().status());
    plane.set_alerts(load_alert_rules(args), {}, 0);
    plane.publish(now);
    std::cout << "published " << diagnoses.size() << " diagnoses (batch "
              << study.name << " study)" << std::endl;
    if (auto it = args.values.find("api-dump"); it != args.values.end()) {
      api_dump(plane, fs::path(it->second.back()));
    }
    if (once) return 0;
    start_serving(plane, args);
    wait_for_shutdown(plane);
    return 0;
  }

  // Follow mode: stream the corpus through the real-time engine, publish a
  // fresh snapshot every tick, and let the alert engine inject missing-data
  // evidence into the live diagnosis.
  core::DiagnosisGraph graph = load_graph(args, study);
  service::add_missing_data_support(graph);
  apps::StreamingOptions sopt;
  if (auto it = args.values.find("persist"); it != args.values.end()) {
    sopt.persist_dir = fs::path(it->second.back());
    sopt.persist_seal_every =
        args.get_long("persist-seal-every", util::kHour);
  }
  apps::StreamingRca stream(corpus->network, std::move(graph), sopt);

  std::vector<core::Location> scope;
  for (const topology::Pop& p : corpus->network.pops()) {
    scope.push_back(core::Location::pop(p.name));
  }
  service::AlertEngine alerts(load_alert_rules(args), std::move(scope));

  double rate = rate_arg(args);  // 0: as fast as possible
  util::TimeSec tick = args.get_long("tick", 300);
  if (tick <= 0) usage("--tick must be positive");
  long idle_ticks = args.get_long("idle-ticks", 0);

  if (!once) start_serving(plane, args);

  const telemetry::RecordStream& records = corpus->records;
  util::TimeSec start_sim = records.front().true_utc;
  auto wall_start = std::chrono::steady_clock::now();
  auto pace = [&](util::TimeSec sim) {
    if (rate <= 0) return;
    auto target = wall_start + std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(sim - start_sim) /
                                       rate));
    while (!service::ShutdownSignal::requested() &&
           std::chrono::steady_clock::now() < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  };

  std::size_t diag_total = 0;
  auto step = [&](util::TimeSec t) {
    std::vector<core::Diagnosis> batch = stream.advance(t);
    diag_total += batch.size();
    // Copy the batch before inject(): injected events grow the store, which
    // may invalidate the batch's instance pointers.
    plane.add_diagnoses(batch);
    for (core::EventInstance& e : alerts.evaluate(t)) {
      stream.inject(std::move(e));
    }
    plane.set_health(stream.feed_health().status());
    plane.set_alerts(alerts.rules(), alerts.alarms(),
                     alerts.events_synthesized());
    plane.publish(t);
  };

  util::TimeSec now = start_sim;
  std::size_t idx = 0;
  while (idx < records.size() && !service::ShutdownSignal::requested()) {
    util::TimeSec next = now + tick;
    while (idx < records.size() && records[idx].true_utc < next) {
      stream.ingest(records[idx]);
      ++idx;
    }
    now = next;
    pace(now);
    step(now);
  }
  for (long i = 0;
       i < idle_ticks && !service::ShutdownSignal::requested(); ++i) {
    // The corpus has ended but the clock keeps running: feeds go silent,
    // the silence alarms fire, missing-data evidence enters the graph.
    now += tick;
    pace(now);
    step(now);
  }

  // End of stream (or a shutdown signal): drain the engine — remaining
  // symptoms diagnose, the persistence watermark seals — and publish the
  // final snapshot before the listeners close.
  std::vector<core::Diagnosis> tail = stream.drain();
  diag_total += tail.size();
  plane.add_diagnoses(tail);
  plane.set_health(stream.feed_health().status());
  plane.set_alerts(alerts.rules(), alerts.alarms(),
                   alerts.events_synthesized());
  plane.publish(now);
  std::cout << "stream complete: " << diag_total << " diagnoses, "
            << stream.injected() << " injected alert events, "
            << alerts.alarms().size() << " alarms" << std::endl;
  if (auto it = args.values.find("api-dump"); it != args.values.end()) {
    api_dump(plane, fs::path(it->second.back()));
  }
  if (once) return 0;
  if (service::ShutdownSignal::requested()) {
    std::cout << "signal " << service::ShutdownSignal::signal_number()
              << ": drained and sealed, closing listeners" << std::endl;
    plane.stop();
    return 0;
  }
  wait_for_shutdown(plane);
  return 0;
}

int cmd_store(const std::string& action, const Args& args) {
  fs::path dir(args.get("dir"));
  if (action == "verify") {
    bool deep = args.flags.count("deep") > 0;
    storage::VerifyReport report = storage::verify_store(dir, deep);
    std::cout << "verified " << report.segments << " segment file(s), "
              << report.frames << " row(s), " << report.bytes << " byte(s)"
              << (deep ? ", deep stats rescan" : "") << "\n";
    if (report.torn_wal_bytes > 0) {
      std::cout << "torn WAL tail: " << report.torn_wal_bytes
                << " byte(s) (recoverable — not an error)\n";
    }
    for (const std::string& error : report.errors) {
      std::cerr << "corruption: " << error << "\n";
    }
    if (!report.ok()) {
      std::cerr << report.errors.size() << " integrity error(s)\n";
      return 1;
    }
    std::cout << "integrity OK\n";
    return 0;
  }
  if (action == "compact") {
    std::optional<std::uint64_t> seq = storage::compact_store(dir);
    if (!seq) {
      std::cout << "nothing to compact in " << dir.string() << "\n";
      return 0;
    }
    std::cout << "compacted " << dir.string() << " into segment " << *seq
              << "\n";
    return 0;
  }
  if (action == "inspect") {
    std::vector<fs::path> segments = storage::list_segments(dir);
    storage::WalRead wal = storage::read_wal(dir / storage::kWalName);
    if (segments.empty() && !wal.present()) {
      std::cerr << "no event log at " << dir.string() << "\n";
      return 1;
    }
    std::uint64_t total_events = 0;
    auto print_frames = [&total_events](const storage::WalRead& live) {
      total_events += live.events.size();
      std::cout << "live WAL: " << live.events.size() << " valid frames";
      if (live.torn_bytes > 0) {
        std::cout << ", torn tail " << live.torn_bytes << " bytes";
      }
      std::cout << "\n";
    };
    for (const fs::path& path : segments) {
      storage::SegmentReader seg = storage::SegmentReader::open(path);
      std::cout << path.filename().string() << ": seq " << seg.seq() << ", "
                << seg.size() << " bytes, ";
      if (seg.sealed()) {
        const storage::V2Footer& footer = seg.v2_footer();
        total_events += footer.event_count;
        std::size_t zone_maps = 0;
        for (const storage::V2Run& run : footer.runs) {
          zone_maps += run.blocks.size();
        }
        std::cout << "sealed v2 (columnar): " << footer.event_count
                  << " events across " << footer.runs.size() << " names, "
                  << zone_maps << " zone maps, dictionaries: "
                  << footer.locations.size() << " locations, "
                  << footer.strings.size() << " attr strings, watermark "
                  << footer.watermark << "\n";
        // Per-name run summaries: rows, zone-map block count + time range,
        // column-region bytes.
        for (const storage::V2Run& run : footer.runs) {
          std::cout << "  " << footer.names[run.name_id] << ": " << run.count
                    << " rows, " << run.blocks.size() << " blocks ("
                    << run.block_rows << " rows/block)";
          if (!run.blocks.empty()) {
            std::cout << ", starts [" << run.blocks.front().min_start << ".."
                      << run.blocks.back().max_start << "]";
          }
          std::cout << ", max duration " << run.max_duration << ", "
                    << run.region_len() << " bytes (starts " << run.starts_len
                    << ", durations " << run.durs_len << ", locations "
                    << run.locs_len << ", attrs " << run.attrs_len << ")\n";
        }
      } else {
        print_frames(storage::read_wal(path));
      }
    }
    // The WAL comes last, after every sealed segment is listed. A header
    // torn by a crash inside a seal's reset is a recoverable torn tail, as
    // verify reports it; a damaged one of full length fails the command.
    if (wal.header == storage::WalRead::Header::kDamaged) {
      std::cerr << "error: " << wal.damage << "\n";
      return 1;
    }
    if (wal.header == storage::WalRead::Header::kTorn) {
      std::cout << storage::kWalName << ": " << wal.size
                << " bytes, live WAL: 0 valid frames, torn tail " << wal.size
                << " bytes (inside the header)\n";
    } else if (wal.present()) {
      std::cout << storage::kWalName << ": seq " << wal.seq << ", "
                << wal.size << " bytes, ";
      print_frames(wal);
    }
    std::cout << "total: " << total_events << " events in "
              << segments.size() + (wal.present() ? 1 : 0) << " file(s)\n";
    return 0;
  }
  usage("unknown store action '" + action + "'");
}

/// Extracts the integer after `"key":` in a span JSONL line (the format is
/// fixed — written by obs/span.cpp — so a targeted scan beats a JSON
/// parser dependency).
bool span_field(const std::string& line, const std::string& key,
                long long& out) {
  std::size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return false;
  try {
    out = std::stoll(line.substr(at + key.size() + 3));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

int cmd_spans(const Args& args) {
  fs::path in_path(args.get("in"));
  fs::path out_path(args.get("out", in_path.string() + ".trace.json"));
  std::ifstream in(in_path);
  if (!in) usage("cannot open span log " + in_path.string());
  std::ofstream out(out_path);
  if (!out) usage("cannot write " + out_path.string());
  // Chrome trace format: complete ("X") events on one process/thread
  // timeline, timestamps in microseconds since the log's epoch.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    std::size_t name_at = line.find("\"span\":\"");
    if (name_at == std::string::npos) continue;
    name_at += 8;
    std::size_t name_end = line.find('"', name_at);
    long long start_us = 0;
    long long dur_us = 0;
    if (name_end == std::string::npos ||
        !span_field(line, "start_us", start_us) ||
        !span_field(line, "dur_us", dur_us)) {
      continue;
    }
    if (count > 0) out << ",";
    out << "\n{\"name\":\"" << line.substr(name_at, name_end - name_at)
        << "\",\"ph\":\"X\",\"ts\":" << start_us << ",\"dur\":" << dur_us
        << ",\"pid\":1,\"tid\":1}";
    ++count;
  }
  out << "\n]}\n";
  std::cout << "converted " << count << " span(s) to " << out_path.string()
            << "\n";
  return 0;
}

/// The cell corpus scale `benchmark` and `learn --topology` share.
apps::BenchmarkOptions cell_options(const Args& args) {
  apps::BenchmarkOptions options;
  options.days = static_cast<int>(args.get_long("days", 3));
  options.target_symptoms = static_cast<int>(args.get_long("symptoms", 120));
  options.seed = static_cast<std::uint64_t>(args.get_long("seed", 29));
  options.noise = args.get_double("noise", 1.0);
  return options;
}

/// How an imported REPETITA topology is populated with PERs and customers.
topology::ImportOptions import_options(const Args& args) {
  topology::ImportOptions options;
  options.pers_per_pop = static_cast<int>(args.get_long("pers", 2));
  options.customers_per_per = static_cast<int>(args.get_long("customers", 4));
  return options;
}

int cmd_benchmark(const Args& args) {
  // Topology set: explicit --topology files, else every *.graph under the
  // topology directory in name order (stable matrix row order).
  std::vector<fs::path> files;
  if (auto it = args.values.find("topology"); it != args.values.end()) {
    for (const std::string& f : it->second) files.emplace_back(f);
  } else {
    fs::path dir(args.get("topo-dir", "bench/topologies"));
    if (!fs::is_directory(dir)) {
      usage("topology directory " + dir.string() +
            " not found (pass --topology FILE or --topo-dir DIR)");
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".graph") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
  }
  if (files.empty()) usage("no topology files to benchmark");

  apps::BenchmarkOptions options = cell_options(args);
  options.threads = threads_arg(args);
  options.timing = !args.flags.count("deterministic");
  if (auto it = args.values.find("scenarios"); it != args.values.end()) {
    for (std::string_view part : util::split(it->second.back(), ',')) {
      options.scenarios.push_back(
          sim::parse_scenario_class(std::string(util::trim(part))));
    }
  }

  std::deque<topology::Network> networks;  // stable addresses
  std::vector<apps::BenchmarkTopology> topologies;
  for (const fs::path& file : files) {
    topology::ImportStats stats;
    networks.push_back(
        topology::import_repetita_file(file.string(), import_options(args),
                                       &stats));
    topologies.push_back({file.stem().string(), &networks.back()});
    std::cout << "imported " << file.stem().string() << ": "
              << stats.graph_nodes << " nodes, " << stats.graph_edges
              << " edges -> " << stats.backbone_links << " backbone links ("
              << stats.parallel_groups << " SRLG group(s))\n";
  }

  apps::BenchmarkResult result = apps::run_benchmark(topologies, options);
  std::cout << "\n"
            << apps::render_scorecard_table(result).render(
                   "G-RCA benchmark scorecard");

  const apps::MicroAverage all = apps::overall(result);
  std::cout << "\noverall: precision "
            << util::format_double(all.precision(), 4) << ", recall "
            << util::format_double(all.recall(), 4) << ", f1 "
            << util::format_double(all.f1(), 4) << " over "
            << result.cells.size() << " cell(s)\n";

  if (auto it = args.values.find("out"); it != args.values.end()) {
    std::ofstream out(it->second.back());
    if (!out) usage("cannot write " + it->second.back());
    out << apps::render_scorecard_json(result);
    std::cout << "scorecard written to " << it->second.back() << "\n";
  }
  if (auto it = args.values.find("gate-out"); it != args.values.end()) {
    std::ofstream out(it->second.back());
    if (!out) usage("cannot write " + it->second.back());
    out << apps::render_gate_json(result);
    std::cout << "gate metrics written to " << it->second.back() << "\n";
  }
  return 0;
}

int cmd_learn(const Args& args) {
  open_span_log(args);

  learn::LearnDriverOptions options;
  options.deterministic = args.flags.count("deterministic") > 0;
  long max_iterations = args.get_long("max-iterations", 8);
  if (max_iterations < 0) usage("--max-iterations must be >= 0");
  options.loop.max_iterations = static_cast<std::size_t>(max_iterations);
  long budget = args.get_long("budget", 24);
  if (budget < 1) usage("--budget must be >= 1");
  options.loop.candidate_budget = static_cast<std::size_t>(budget);
  options.loop.threads = threads_arg(args);
  options.loop.mine.nice.min_score = args.get_double("min-score", 0.15);
  options.loop.mine.nice.alpha = args.get_double("alpha", 0.01);
  long permutations = args.get_long("permutations", 200);
  if (permutations < 1) usage("--permutations must be >= 1");
  options.loop.mine.nice.permutations =
      static_cast<std::size_t>(permutations);
  if (auto it = args.values.find("ablate"); it != args.values.end()) {
    for (const std::string& spec : it->second) {
      std::size_t arrow = spec.find("->");
      std::string symptom(util::trim(spec.substr(0, arrow)));
      std::string diagnostic(
          arrow == std::string::npos ? "" : util::trim(spec.substr(arrow + 2)));
      if (arrow == std::string::npos || symptom.empty() || diagnostic.empty()) {
        usage("--ablate expects 'SYMPTOM->DIAGNOSTIC', got '" + spec + "'");
      }
      options.ablate.emplace_back(std::move(symptom), std::move(diagnostic));
    }
  }

  // Input: a recorded corpus (--study/--data) or a regenerated benchmark
  // cell (--topology/--scenario) with benchmark-identical cell seeding.
  const apps::Study* study = nullptr;
  std::unique_ptr<sim::ReplayCorpus> corpus;
  if (auto it = args.values.find("topology"); it != args.values.end()) {
    fs::path file(it->second.back());
    std::string topology = file.stem().string();
    sim::ScenarioClass cls = sim::parse_scenario_class(args.get("scenario"));
    study = &apps::find_study(sim::scenario_app(cls));
    topology::ImportStats stats;
    topology::Network net = topology::import_repetita_file(
        file.string(), import_options(args), &stats);
    std::cout << "imported " << topology << ": " << stats.graph_nodes
              << " nodes, " << stats.graph_edges << " edges -> "
              << stats.backbone_links << " backbone links\n";
    apps::BenchmarkOptions cell = cell_options(args);
    sim::StudyOutput output = apps::cell_corpus(net, topology, cls, cell);
    options.label = topology + "." + sim::to_string(cls);
    options.seed = apps::cell_seed(cell.seed, topology, sim::to_string(cls));
    corpus = std::make_unique<sim::ReplayCorpus>(sim::ReplayCorpus{
        std::move(net), std::move(output.records), std::move(output.truth)});
  } else {
    study = &study_arg(args);
    corpus = load_corpus(args, *study, std::nullopt);
    options.label = "study:" + std::string(study->name);
    options.seed = static_cast<std::uint64_t>(args.get_long("seed", 0));
  }
  if (corpus->truth.empty()) {
    usage("learning needs ground-truth labels; the corpus has none");
  }
  std::unique_ptr<apps::Pipeline> pipeline =
      open_pipeline(args, *study, *corpus);

  learn::LearnDriver driver(options);
  learn::LearnRun run =
      driver.run(*pipeline, load_graph(args, *study), corpus->truth,
                 study->canonical_cause);
  std::cout << learn::render_learn_text(run);

  if (auto it = args.values.find("out"); it != args.values.end()) {
    std::ofstream out(it->second.back());
    if (!out) usage("cannot write " + it->second.back());
    out << learn::render_learn_json(run);
    std::cout << "report written to " << it->second.back() << "\n";
  }
  if (auto it = args.values.find("gate-out"); it != args.values.end()) {
    std::ofstream out(it->second.back());
    if (!out) usage("cannot write " + it->second.back());
    out << learn::render_learn_gate_json(run);
    std::cout << "gate metrics written to " << it->second.back() << "\n";
  }
  if (auto it = args.values.find("rules-out"); it != args.values.end()) {
    std::ofstream out(it->second.back());
    if (!out) usage("cannot write " + it->second.back());
    out << learn::render_learned_rules_dsl(run);
    std::cout << "learned rules written to " << it->second.back() << "\n";
  }
  if (auto it = args.values.find("metrics-out"); it != args.values.end()) {
    write_metrics_file(fs::path(it->second.back()));
  }

  bool ok = run.options.ablate.empty() ||
            run.ablated_relearned == run.options.ablate.size();
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  std::string command = argv[1];
  try {
    if (command == "version" || command == "--version") {
      std::cout << "grca " << GRCA_VERSION << "\n";
      return 0;
    }
    if (command == "dump-library") {
      Args::parse(argc, argv, 2, {});
      return cmd_dump_library();
    }
    if (command == "simulate") {
      return cmd_simulate(Args::parse(
          argc, argv, 2,
          {"study", "out", "days", "symptoms", "seed", "store-out"},
          {"paper-scale"}));
    }
    if (command == "diagnose") {
      return cmd_diagnose(Args::parse(
          argc, argv, 2,
          {"study", "data", "dsl", "threads", "drill", "metrics-out", "store",
           "span-log"},
          {"trend", "score"}));
    }
    if (command == "metrics") {
      return cmd_metrics(Args::parse(
          argc, argv, 2,
          {"study", "data", "dsl", "threads", "format", "store", "span-log"}));
    }
    if (command == "calibrate") {
      return cmd_calibrate(Args::parse(
          argc, argv, 2,
          {"study", "data", "store", "symptom", "diagnostic", "join"}));
    }
    if (command == "replay") {
      return cmd_replay(Args::parse(
          argc, argv, 2,
          {"study", "data", "rate", "tick", "source-lag", "jitter", "seed",
           "days", "symptoms", "report-out", "metrics-out", "min-rate",
           "persist", "persist-seal-every"},
          {"no-truth", "paper-scale"}));
    }
    if (command == "serve") {
      return cmd_serve(Args::parse(
          argc, argv, 2,
          {"study", "data", "port", "port-file", "http-threads", "threads",
           "api-dump", "rate", "tick", "idle-ticks", "alert-rules", "persist",
           "persist-seal-every", "days", "symptoms", "seed"},
          {"follow", "once", "public", "paper-scale"}));
    }
    if (command == "store") {
      if (argc < 3) usage("store needs an action: inspect|verify|compact");
      return cmd_store(argv[2],
                       Args::parse(argc, argv, 3, {"dir"}, {"deep"}));
    }
    if (command == "spans") {
      return cmd_spans(Args::parse(argc, argv, 2, {"in", "out"}));
    }
    if (command == "benchmark") {
      return cmd_benchmark(Args::parse(
          argc, argv, 2,
          {"topology", "topo-dir", "scenarios", "days", "symptoms", "seed",
           "threads", "noise", "pers", "customers", "out", "gate-out"},
          {"deterministic"}));
    }
    if (command == "learn") {
      return cmd_learn(Args::parse(
          argc, argv, 2,
          {"study", "data", "store", "topology", "scenario", "days",
           "symptoms", "noise", "pers", "customers", "seed", "ablate", "dsl",
           "max-iterations", "budget", "min-score", "alpha", "permutations",
           "threads", "out", "gate-out", "rules-out", "metrics-out",
           "span-log"},
          {"deterministic"}));
    }
    usage("unknown command '" + command + "'");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
