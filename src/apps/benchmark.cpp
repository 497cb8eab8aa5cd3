// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "apps/benchmark.h"

#include <chrono>
#include <map>
#include <sstream>

#include "apps/bgp_flap_app.h"
#include "apps/cdn_app.h"
#include "apps/innet_app.h"
#include "apps/pipeline.h"
#include "apps/scoring.h"
#include "obs/export.h"
#include "util/error.h"
#include "util/strings.h"

namespace grca::apps {

namespace {

struct AppHooks {
  core::DiagnosisGraph (*build_graph)();
  std::string (*canonical)(const std::string&);
};

AppHooks hooks_for_app(const std::string& app) {
  if (app == "bgp") return {bgp::build_graph, bgp::canonical_cause};
  if (app == "cdn") return {cdn::build_graph, cdn::canonical_cause};
  if (app == "innet") return {innet::build_graph, innet::canonical_cause};
  throw ConfigError("benchmark: unknown application: " + app);
}

std::string ratio(double v) { return util::format_double(v, 4); }

void append_metrics(std::ostringstream& os, const BenchmarkCell& c,
                    bool timing) {
  os << "\"records\": " << c.records << ", \"truth\": " << c.truth_total
     << ", \"diagnosed\": " << c.diagnosed << ", \"matched\": " << c.matched
     << ", \"correct\": " << c.correct
     << ", \"precision\": " << ratio(c.precision)
     << ", \"recall\": " << ratio(c.recall) << ", \"f1\": " << ratio(c.f1);
  if (timing) {
    os << ", \"records_per_min\": " << util::format_double(c.records_per_min, 1);
  }
}

/// Micro-averaged aggregate over a set of cells.
struct Aggregate {
  std::size_t truth = 0, diagnosed = 0, correct = 0;

  void add(const BenchmarkCell& c) {
    truth += c.truth_total;
    diagnosed += c.diagnosed;
    correct += c.correct;
  }
  double precision() const {
    return diagnosed == 0 ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(diagnosed);
  }
  double recall() const {
    return truth == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(truth);
  }
  double f1() const {
    double p = precision(), r = recall();
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }
};

}  // namespace

std::uint64_t cell_seed(std::uint64_t base, std::string_view topology,
                        std::string_view scenario) {
  return base ^ util::stable_hash(topology) ^
         (util::stable_hash(scenario) << 1);
}

BenchmarkResult run_benchmark(const std::vector<BenchmarkTopology>& topologies,
                              const BenchmarkOptions& options) {
  if (topologies.empty()) {
    throw ConfigError("benchmark: no topologies given");
  }
  BenchmarkResult result;
  result.options = options;
  std::vector<sim::ScenarioClass> classes =
      options.scenarios.empty() ? sim::all_scenario_classes()
                                : options.scenarios;
  for (const BenchmarkTopology& topo : topologies) {
    result.topologies.push_back(topo.name);
  }
  for (sim::ScenarioClass c : classes) {
    result.scenarios.push_back(sim::to_string(c));
  }

  for (const BenchmarkTopology& topo : topologies) {
    for (sim::ScenarioClass c : classes) {
      const topology::Network& net = *topo.net;
      BenchmarkCell cell;
      cell.topology = topo.name;
      cell.scenario = sim::to_string(c);
      cell.app = sim::scenario_app(c);

      sim::ScenarioParams params;
      params.days = options.days;
      params.target_symptoms = options.target_symptoms;
      params.noise = options.noise;
      // Cell seeds depend only on (base seed, topology name, scenario
      // name): matrix composition never shifts an existing cell's corpus.
      params.seed = cell_seed(options.seed, topo.name, cell.scenario);
      sim::StudyOutput study = sim::run_scenario(c, net, params);
      cell.records = study.records.size();
      cell.truth_total = study.truth.size();

      AppHooks hooks = hooks_for_app(cell.app);
      std::vector<topology::RouterId> observers;
      if (cell.app == "cdn" && !net.cdn_nodes().empty()) {
        observers = net.cdn_nodes().front().ingress_routers;
      }

      auto t0 = std::chrono::steady_clock::now();
      Pipeline pipeline(net, study.records, {}, observers);
      std::vector<core::Diagnosis> diagnoses =
          pipeline.diagnose_all(hooks.build_graph(), options.threads);
      auto t1 = std::chrono::steady_clock::now();

      Score score = score_diagnoses(diagnoses, study.truth, hooks.canonical);
      cell.diagnosed = score.diagnosed_total;
      cell.matched = score.matched;
      cell.correct = score.correct;
      cell.precision = score.precision();
      cell.recall = score.recall();
      cell.f1 = score.f1();
      if (options.timing) {
        double secs = std::chrono::duration<double>(t1 - t0).count();
        cell.records_per_min =
            secs > 0.0 ? static_cast<double>(cell.records) * 60.0 / secs : 0.0;
      }
      result.cells.push_back(std::move(cell));
    }
  }
  return result;
}

std::string render_scorecard_json(const BenchmarkResult& result) {
  const bool timing = result.options.timing;
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"grca-benchmark-v1\",\n";
  os << "  \"seed\": " << result.options.seed << ",\n";
  os << "  \"days\": " << result.options.days << ",\n";
  os << "  \"target_symptoms\": " << result.options.target_symptoms << ",\n";
  os << "  \"topologies\": [";
  for (std::size_t i = 0; i < result.topologies.size(); ++i) {
    os << (i ? ", " : "") << '"' << obs::json_escape(result.topologies[i])
       << '"';
  }
  os << "],\n  \"scenarios\": [";
  for (std::size_t i = 0; i < result.scenarios.size(); ++i) {
    os << (i ? ", " : "") << '"' << obs::json_escape(result.scenarios[i])
       << '"';
  }
  os << "],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const BenchmarkCell& c = result.cells[i];
    os << "    {\"topology\": \"" << obs::json_escape(c.topology)
       << "\", \"scenario\": \"" << obs::json_escape(c.scenario)
       << "\", \"app\": \"" << c.app << "\", ";
    append_metrics(os, c, timing);
    os << '}' << (i + 1 < result.cells.size() ? "," : "") << '\n';
  }
  os << "  ],\n";

  std::map<std::string, Aggregate> by_scenario;
  Aggregate overall;
  for (const BenchmarkCell& c : result.cells) {
    by_scenario[c.scenario].add(c);
    overall.add(c);
  }
  os << "  \"scenario_summary\": {\n";
  // Canonical scenario order, not map order.
  for (std::size_t i = 0; i < result.scenarios.size(); ++i) {
    const Aggregate& a = by_scenario[result.scenarios[i]];
    os << "    \"" << obs::json_escape(result.scenarios[i])
       << "\": {\"precision\": " << ratio(a.precision())
       << ", \"recall\": " << ratio(a.recall())
       << ", \"f1\": " << ratio(a.f1()) << '}'
       << (i + 1 < result.scenarios.size() ? "," : "") << '\n';
  }
  os << "  },\n";
  os << "  \"overall\": {\"precision\": " << ratio(overall.precision())
     << ", \"recall\": " << ratio(overall.recall())
     << ", \"f1\": " << ratio(overall.f1()) << "}\n";
  os << "}\n";
  return os.str();
}

std::string render_gate_json(const BenchmarkResult& result) {
  std::ostringstream os;
  os << "{\n";
  bool first = true;
  auto emit = [&](const std::string& key, const std::string& value) {
    os << (first ? "" : ",\n") << "  \"" << obs::json_escape(key)
       << "\": " << value;
    first = false;
  };
  Aggregate overall;
  for (const BenchmarkCell& c : result.cells) {
    std::string base = c.topology + "." + c.scenario;
    emit(base + ".precision", ratio(c.precision));
    emit(base + ".recall", ratio(c.recall));
    emit(base + ".f1", ratio(c.f1));
    if (result.options.timing) {
      emit(base + ".records_per_min",
           util::format_double(c.records_per_min, 1));
    }
    overall.add(c);
  }
  emit("overall.precision", ratio(overall.precision()));
  emit("overall.recall", ratio(overall.recall()));
  emit("overall.f1", ratio(overall.f1()));
  os << "\n}\n";
  return os.str();
}

util::TextTable render_scorecard_table(const BenchmarkResult& result) {
  std::vector<std::string> header = {"Topology", "Scenario",  "App",
                                     "Truth",    "Diagnosed", "Correct",
                                     "Precision", "Recall",   "F1"};
  if (result.options.timing) header.push_back("Records/min");
  util::TextTable table(header);
  for (const BenchmarkCell& c : result.cells) {
    std::vector<std::string> row = {
        c.topology,
        c.scenario,
        c.app,
        std::to_string(c.truth_total),
        std::to_string(c.diagnosed),
        std::to_string(c.correct),
        ratio(c.precision),
        ratio(c.recall),
        ratio(c.f1)};
    if (result.options.timing) {
      row.push_back(util::format_double(c.records_per_min, 0));
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace grca::apps
