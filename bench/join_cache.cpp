// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Join-cache speedup gate: runs a path-heavy diagnosis scenario (PoP-pair
// probe-loss symptoms joined against link-down diagnostics across OSPF
// reroutes) with the spatial-join memo disabled and enabled, and fails if
// the cached run is not strictly faster or its verdicts are not
// byte-identical to the uncached reference. Reports cold/warm cached wall
// time, the 4-thread cached run, and the cache hit rate as JSON (default
// BENCH_join_cache.json) for the CI artifact trail.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "core/rule_dsl.h"
#include "routing/bgp.h"
#include "routing/ospf.h"
#include "topology/topo_gen.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace grca;
using util::TimeSec;

core::DiagnosisGraph probe_graph() {
  core::DiagnosisGraph graph;
  core::load_dsl(R"(
event probe-loss {
  location pop-pair
}
event link-down {
  location logical-link
}
rule probe-loss -> link-down {
  priority 100
  symptom start-start 120 120
  diagnostic start-end 30 30
  join logical-link
}
graph {
  root probe-loss
}
)",
                 graph);
  return graph;
}

/// Path-heavy world: many PoP-pair symptoms whose spatial projection walks
/// OSPF shortest paths, with weight churn splitting the window into epochs.
struct Scenario {
  topology::Network net;
  routing::OspfSim ospf;
  routing::BgpSim bgp;
  core::LocationMapper mapper;
  core::EventStore store;

  Scenario()
      : net(topology::generate_isp(topology::TopoParams{})),
        ospf(net),
        bgp(ospf),
        mapper(net, ospf, bgp) {
    routing::seed_customer_routes(bgp, net, 0);
    util::Rng rng(31);
    constexpr TimeSec kSpan = 120000;
    for (int i = 0; i < 8; ++i) {
      const topology::LogicalLink& l =
          net.links()[rng.below(net.links().size())];
      ospf.set_weight(l.id, 2000 + (kSpan / 10) * i,
                      1 + static_cast<int>(rng.below(20)));
    }
    for (int i = 0; i < 8000; ++i) {
      const topology::Pop& src = net.pops()[rng.below(net.pops().size())];
      const topology::Pop& dst = net.pops()[rng.below(net.pops().size())];
      if (src.id == dst.id) continue;
      TimeSec t = rng.range(100, kSpan);
      store.add(core::EventInstance{"probe-loss",
                                    {t, t + 10},
                                    core::Location::pop_pair(src.name, dst.name),
                                    {}});
    }
    for (int i = 0; i < 16000; ++i) {
      const topology::LogicalLink& l =
          net.links()[rng.below(net.links().size())];
      TimeSec t = rng.range(100, kSpan);
      store.add(core::EventInstance{
          "link-down", {t, t + 5}, core::Location::logical_link(l.name), {}});
    }
    store.warm();  // interning/sorting is ingest cost, not query cost
  }
};

/// Stable text form of a diagnosis batch, for the byte-identity gate.
std::string render_diagnoses(const std::vector<core::Diagnosis>& batch) {
  std::ostringstream out;
  for (const core::Diagnosis& d : batch) {
    out << d.symptom.where.key() << '@' << d.symptom.when.start << " -> "
        << d.primary() << " causes=" << d.causes.size() << " evidence=[";
    for (const core::EvidenceNode& n : d.evidence) {
      out << n.event << ':' << n.instances.size() << ',';
      for (const core::EventInstance* e : n.instances) {
        out << e->where.key() << '@' << e->when.start << ';';
      }
    }
    out << "]\n";
  }
  return out.str();
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_file = "BENCH_join_cache.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) out_file = argv[i + 1];
    if (arg.rfind("--out=", 0) == 0) out_file = arg.substr(6);
  }

  Scenario s;
  constexpr int kReps = 3;

  // Uncached reference: the original mapper-per-candidate join path.
  std::string reference;
  double uncached_s = 1e300;
  {
    core::RcaEngine engine(probe_graph(), s.store, s.mapper);
    engine.set_join_cache_enabled(false);
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      auto batch = engine.diagnose_all(1);
      uncached_s = std::min(uncached_s, seconds_since(t0));
      if (reference.empty()) reference = render_diagnoses(batch);
    }
  }
  std::printf("uncached reference: %zu symptoms diagnosed\n",
              static_cast<std::size_t>(
                  std::count(reference.begin(), reference.end(), '\n')));

  // Cached, cold: a fresh engine per rep so every rep pays the misses.
  bool identical = true;
  double cold_s = 1e300;
  core::JoinMemo::Stats cold_stats{};
  for (int rep = 0; rep < kReps; ++rep) {
    core::RcaEngine engine(probe_graph(), s.store, s.mapper);
    auto t0 = std::chrono::steady_clock::now();
    auto batch = engine.diagnose_all(1);
    cold_s = std::min(cold_s, seconds_since(t0));
    identical &= render_diagnoses(batch) == reference;
    cold_stats = engine.join_stats();
  }

  // Cached, warm + 4-thread: one engine reused, so its worker memos stay
  // populated across calls.
  double warm_s = 1e300;
  double mt_s = 1e300;
  core::JoinMemo::Stats final_stats{};
  {
    core::RcaEngine engine(probe_graph(), s.store, s.mapper);
    identical &= render_diagnoses(engine.diagnose_all(1)) == reference;
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      auto batch = engine.diagnose_all(1);
      warm_s = std::min(warm_s, seconds_since(t0));
      identical &= render_diagnoses(batch) == reference;
    }
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      auto batch = engine.diagnose_all(4);
      mt_s = std::min(mt_s, seconds_since(t0));
      identical &= render_diagnoses(batch) == reference;
    }
    final_stats = engine.join_stats();
  }

  double speedup_cold = uncached_s / cold_s;
  double speedup_warm = uncached_s / warm_s;
  double hit_rate =
      final_stats.hits + final_stats.misses == 0
          ? 0.0
          : static_cast<double>(final_stats.hits) /
                static_cast<double>(final_stats.hits + final_stats.misses);

  util::TextTable table({"Configuration", "Wall (s)", "Speedup"});
  table.add_row({"uncached serial", util::format_double(uncached_s, 4), "1.00"});
  table.add_row({"cached serial (cold)", util::format_double(cold_s, 4),
                 util::format_double(speedup_cold, 2)});
  table.add_row({"cached serial (warm)", util::format_double(warm_s, 4),
                 util::format_double(speedup_warm, 2)});
  table.add_row({"cached 4-thread", util::format_double(mt_s, 4),
                 util::format_double(uncached_s / mt_s, 2)});
  std::fputs(table.render("spatial-join cache speedup").c_str(), stdout);
  std::printf("verdicts vs uncached reference: %s\n",
              identical ? "byte-identical" : "DIVERGED");
  std::printf("cache: %llu hits / %llu misses (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(final_stats.hits),
              static_cast<unsigned long long>(final_stats.misses),
              100.0 * hit_rate);

  const bool faster = cold_s < uncached_s;
  {
    std::ofstream out(out_file);
    out << "{\n"
        << "  \"hardware_threads\": " << util::hardware_threads() << ",\n"
        << "  \"uncached_seconds\": " << uncached_s << ",\n"
        << "  \"cached_cold_seconds\": " << cold_s << ",\n"
        << "  \"cached_warm_seconds\": " << warm_s << ",\n"
        << "  \"cached_mt4_seconds\": " << mt_s << ",\n"
        << "  \"speedup_cold\": " << speedup_cold << ",\n"
        << "  \"speedup_warm\": " << speedup_warm << ",\n"
        << "  \"hits\": " << final_stats.hits << ",\n"
        << "  \"misses\": " << final_stats.misses << ",\n"
        << "  \"hit_rate\": " << hit_rate << ",\n"
        << "  \"cold_run_hits\": " << cold_stats.hits << ",\n"
        << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
        << "  \"cached_faster\": " << (faster ? "true" : "false") << "\n"
        << "}\n";
    std::printf("report written to %s\n", out_file.c_str());
  }
  bench::write_metrics_if_requested(argc, argv);
  if (!identical) std::fprintf(stderr, "FAIL: cached verdicts diverged\n");
  if (!faster) std::fprintf(stderr, "FAIL: cached run was not faster\n");
  return (identical && faster) ? 0 : 1;
}
