// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Shared helpers for the experiment-reproduction binaries: the common
// world-building boilerplate (simulator network + config-derived RCA twin)
// and paper-vs-measured comparison tables.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/pipeline.h"
#include "apps/scoring.h"
#include "core/result_browser.h"
#include "obs/export.h"
#include "topology/config.h"
#include "topology/topo_gen.h"
#include "util/fork_join.h"
#include "util/strings.h"

namespace grca::bench {

/// Simulator network plus the RCA-side twin rebuilt from configs.
struct World {
  topology::Network sim_net;
  topology::Network rca_net;

  explicit World(const topology::TopoParams& params)
      : sim_net(topology::generate_isp(params)),
        rca_net(topology::build_network_from_configs(
            topology::render_all_configs(sim_net),
            topology::render_layer1_inventory(sim_net))) {}
};

/// Default experiment scale: large enough for stable percentages, small
/// enough to run all benches in seconds. Pass --paper-scale to any table
/// bench for the full 600+-PER configuration.
inline topology::TopoParams bench_params(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--paper-scale") {
      return topology::paper_scale_params();
    }
  }
  topology::TopoParams p;
  p.pops = 10;
  p.core_per_pop = 2;
  p.access_per_pop = 2;
  p.pers_per_pop = 6;   // 60 PERs
  p.customers_per_per = 8;
  p.mvpn_count = 4;
  p.mvpn_sites_per_vpn = 10;
  p.cdn_nodes = 2;
  return p;
}

/// Dumps the metrics registry to `file` — `.json` selects JSON, anything
/// else Prometheus text. No-op when observability is disabled.
inline void write_metrics_file(const std::string& file) {
  obs::MetricsRegistry* reg = obs::registry_ptr();
  if (!reg) return;
  std::ofstream out(file);
  bool json =
      file.size() >= 5 && file.compare(file.size() - 5, 5, ".json") == 0;
  out << (json ? obs::render_json(*reg) : obs::render_prometheus(*reg));
  std::printf("metrics written to %s\n", file.c_str());
}

/// Scans argv for `--metrics-out FILE` (or `--metrics-out=FILE`) and, when
/// present, dumps the metrics registry there. Call at the end of a bench
/// run so the CI smoke job can archive the counters alongside the timings.
inline void write_metrics_if_requested(int argc, char** argv) {
  std::string file;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--metrics-out" && i + 1 < argc) file = argv[i + 1];
    if (arg.rfind("--metrics-out=", 0) == 0) file = arg.substr(14);
  }
  if (!file.empty()) write_metrics_file(file);
}

/// One row of a paper-vs-measured comparison.
struct PaperRow {
  std::string label;
  double paper_pct;
  std::string cause_event;  // canonical cause key in the measured breakdown
};

/// Prints the side-by-side comparison and returns the measured shares.
inline void print_comparison(const std::string& title,
                             const std::vector<PaperRow>& rows,
                             const std::map<std::string, double>& measured) {
  util::TextTable table({"Root Cause", "Paper (%)", "Measured (%)"});
  double covered = 0;
  for (const PaperRow& row : rows) {
    auto it = measured.find(row.cause_event);
    double pct = it == measured.end() ? 0.0 : it->second;
    covered += pct;
    table.add_row({row.label, util::format_double(row.paper_pct, 2),
                   util::format_double(pct, 2)});
  }
  // Anything diagnosed outside the paper's rows.
  double other = 0;
  for (const auto& [event, pct] : measured) {
    bool listed = false;
    for (const PaperRow& row : rows) listed |= row.cause_event == event;
    if (!listed) other += pct;
  }
  if (other > 0.005) {
    table.add_row({"(other)", "-", util::format_double(other, 2)});
  }
  std::fputs(table.render(title).c_str(), stdout);
}

/// Prints accuracy scoring against ground truth, plus the top confusions.
inline void print_score(const apps::Score& score) {
  std::printf(
      "\nground truth: %zu symptom labels; matched %zu diagnoses; "
      "%zu correct (accuracy %.1f%%)\n",
      score.truth_total, score.matched, score.correct,
      100.0 * score.accuracy());
  std::vector<std::tuple<std::size_t, std::string, std::string>> confusions;
  for (const auto& [truth_cause, diagnosed] : score.confusion) {
    for (const auto& [diag, count] : diagnosed) {
      if (diag != truth_cause) confusions.emplace_back(count, truth_cause, diag);
    }
  }
  std::sort(confusions.rbegin(), confusions.rend());
  for (std::size_t i = 0; i < confusions.size() && i < 5; ++i) {
    std::printf("  confusion: %s diagnosed as %s (x%zu)\n",
                std::get<1>(confusions[i]).c_str(),
                std::get<2>(confusions[i]).c_str(),
                std::get<0>(confusions[i]));
  }
}

/// Folds app-level primaries into canonical causes and returns per-cause
/// percentage shares of all diagnoses.
inline std::map<std::string, double> canonical_percentages(
    const std::vector<core::Diagnosis>& diagnoses,
    const std::function<std::string(const std::string&)>& canonical) {
  std::map<std::string, double> out;
  if (diagnoses.empty()) return out;
  for (const core::Diagnosis& d : diagnoses) {
    out[canonical(d.primary())] += 100.0 / diagnoses.size();
  }
  return out;
}

}  // namespace grca::bench
