// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "simulation/archive.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/span.h"
#include "telemetry/records_io.h"
#include "topology/config.h"
#include "util/strings.h"

namespace grca::sim {

namespace fs = std::filesystem;

void write_corpus(const fs::path& dir, const topology::Network& net,
                  const telemetry::RecordStream& records,
                  const std::vector<TruthEntry>& truth) {
  fs::create_directories(dir / "configs");
  for (const topology::Router& r : net.routers()) {
    std::ofstream cfg(dir / "configs" / (r.name + ".cfg"));
    cfg << topology::render_config(net, r.id);
  }
  {
    std::ofstream inv(dir / "inventory.txt");
    inv << topology::render_layer1_inventory(net);
  }
  {
    std::ofstream rec(dir / "records.tsv");
    telemetry::write_stream(rec, records);
  }
  if (!truth.empty()) {
    std::ofstream out(dir / "truth.tsv");
    out << "# symptom\trouter\tdetail\ttime\tcause\n";
    for (const TruthEntry& e : truth) {
      out << e.symptom << '\t' << e.router << '\t' << e.detail << '\t'
          << e.time << '\t' << e.cause << '\n';
    }
  }
}

std::vector<TruthEntry> read_truth(const fs::path& dir) {
  std::vector<TruthEntry> truth;
  const fs::path path = dir / "truth.tsv";
  std::ifstream in(path);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    auto fail = [&](const std::string& why) {
      return ParseError(path.string() + ":" + std::to_string(line_no) + ": " +
                        why);
    };
    auto f = util::split(line, '\t');
    if (f.size() != 5) {
      throw fail("expected 5 tab-separated fields, got " +
                 std::to_string(f.size()));
    }
    auto time = util::parse_number<util::TimeSec>(f[3]);
    if (!time) throw fail("bad time '" + f[3] + "'");
    truth.push_back(TruthEntry{f[0], f[1], f[2], *time, f[4]});
  }
  return truth;
}

ReplayCorpus read_corpus(const fs::path& dir) {
  if (!fs::is_directory(dir / "configs")) {
    throw ConfigError("replay corpus " + dir.string() + ": missing configs/");
  }
  std::vector<std::string> configs, config_names;
  std::stringstream inventory;
  {
    obs::ScopedSpan span("read-configs");
    // Directory iteration order is filesystem-dependent; sort the paths so
    // a corpus loads identically everywhere.
    std::vector<fs::path> config_paths;
    for (const auto& entry : fs::directory_iterator(dir / "configs")) {
      config_paths.push_back(entry.path());
    }
    std::sort(config_paths.begin(), config_paths.end());
    configs.reserve(config_paths.size());
    config_names.reserve(config_paths.size());
    for (const fs::path& path : config_paths) {
      std::ifstream in(path);
      std::stringstream ss;
      ss << in.rdbuf();
      configs.push_back(ss.str());
      config_names.push_back(path.string());
    }
    std::ifstream inv(dir / "inventory.txt");
    if (!inv) {
      throw ConfigError("replay corpus " + dir.string() +
                        ": missing inventory.txt");
    }
    inventory << inv.rdbuf();
  }

  std::ifstream rec(dir / "records.tsv");
  if (!rec) {
    throw ConfigError("replay corpus " + dir.string() +
                      ": missing records.tsv");
  }

  ReplayCorpus corpus;
  {
    obs::ScopedSpan span("build-network");
    corpus.network = topology::build_network_from_configs(
        configs, inventory.str(), config_names,
        (dir / "inventory.txt").string());
  }
  {
    obs::ScopedSpan span("read-records");
    try {
      corpus.records = telemetry::read_stream(rec);
    } catch (const ParseError& e) {
      throw ParseError((dir / "records.tsv").string() + ": " + e.what());
    }
  }
  {
    obs::ScopedSpan span("read-truth");
    corpus.truth = read_truth(dir);
  }
  return corpus;
}

}  // namespace grca::sim
