// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Scaling microbenches for the platform's hot paths: event-store window
// queries, temporal-spatial joins, and full diagnoses as the stored event
// volume grows (the paper's deployment ingests hundreds of millions of
// records per day; windowed queries must stay sublinear in store size).
//
// `--threads N` (default 1) sets the worker count for the parallel
// diagnose_all benchmark; run with --threads 1 and --threads 8 to measure
// the engine's multicore scaling. The parallel run is checked to be
// byte-identical to the serial one before timing starts.

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "core/rule_dsl.h"
#include "routing/bgp.h"
#include "routing/ospf.h"
#include "topology/topo_gen.h"
#include "util/rng.h"

namespace {

using namespace grca;

/// A store with n interface-flap events spread over a month on the given
/// network, plus matching ebgp-flap symptoms for 1% of them.
struct ScaledStore {
  core::EventStore store;
  std::vector<core::EventInstance> symptoms;

  ScaledStore(const topology::Network& net, std::size_t n) {
    util::Rng rng(99);
    util::TimeSec start = util::make_utc(2010, 1, 1);
    util::TimeSec span = 30 * util::kDay;
    for (std::size_t i = 0; i < n; ++i) {
      const topology::CustomerSite& c =
          net.customers()[rng.below(net.customers().size())];
      const topology::Interface& port = net.interface(c.attachment);
      util::TimeSec t = start + rng.range(0, span);
      core::EventInstance flap{
          "interface-flap",
          {t, t + rng.range(2, 12)},
          core::Location::interface(net.router(port.router).name, port.name),
          {}};
      store.add(flap);
      if (i % 100 == 0) {
        core::EventInstance symptom{
            "ebgp-flap",
            {t + 2, t + rng.range(20, 60)},
            core::Location::router_neighbor(net.router(port.router).name,
                                            c.neighbor_ip.to_string()),
            {}};
        store.add(symptom);
        symptoms.push_back(std::move(symptom));
      }
    }
  }
};

const topology::Network& bench_net() {
  static topology::Network net = topology::generate_isp(topology::TopoParams{});
  return net;
}

void BM_EventStoreWindowQuery(benchmark::State& state) {
  ScaledStore scaled(bench_net(), static_cast<std::size_t>(state.range(0)));
  util::Rng rng(7);
  util::TimeSec start = util::make_utc(2010, 1, 1);
  // Warm: the first query pays the store's lazy sort; that is ingest cost,
  // not query cost.
  benchmark::DoNotOptimize(scaled.store.query("interface-flap", start, start));
  for (auto _ : state) {
    util::TimeSec at = start + rng.range(0, 30 * util::kDay);
    benchmark::DoNotOptimize(
        scaled.store.query("interface-flap", at, at + 600));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EventStoreWindowQuery)
    ->RangeMultiplier(10)
    ->Range(1000, 1000000)
    ->Complexity(benchmark::oLogN)
    ->Unit(benchmark::kNanosecond);

void BM_DiagnoseVsStoreSize(benchmark::State& state) {
  const topology::Network& net = bench_net();
  ScaledStore scaled(net, static_cast<std::size_t>(state.range(0)));
  routing::OspfSim ospf(net);
  routing::BgpSim bgp(ospf);
  core::LocationMapper mapper(net, ospf, bgp);
  core::DiagnosisGraph graph;
  core::load_dsl(R"(
event ebgp-flap {
  location router-neighbor
}
event interface-flap {
  location interface
}
rule ebgp-flap -> interface-flap {
  priority 180
  symptom start-start 185 5
  diagnostic start-end 5 15
  join interface
}
graph {
  root ebgp-flap
}
)",
                 graph);
  core::RcaEngine engine(std::move(graph), scaled.store, mapper);
  benchmark::DoNotOptimize(
      scaled.store.query("interface-flap", 0, 0));  // pay the lazy sort once
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.diagnose(scaled.symptoms[i % scaled.symptoms.size()]));
    ++i;
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DiagnoseVsStoreSize)
    ->RangeMultiplier(10)
    ->Range(1000, 1000000)
    ->Complexity(benchmark::oLogN)
    ->Unit(benchmark::kMicrosecond);

unsigned g_threads = 1;  // set from --threads in main()

core::DiagnosisGraph scaling_graph() {
  core::DiagnosisGraph graph;
  core::load_dsl(R"(
event ebgp-flap {
  location router-neighbor
}
event interface-flap {
  location interface
}
rule ebgp-flap -> interface-flap {
  priority 180
  symptom start-start 185 5
  diagnostic start-end 5 15
  join interface
}
graph {
  root ebgp-flap
}
)",
                 graph);
  return graph;
}

/// Stable text form of a diagnosis batch, for the byte-identity check.
std::string render_diagnoses(const std::vector<core::Diagnosis>& batch) {
  std::ostringstream out;
  for (const core::Diagnosis& d : batch) {
    out << d.symptom.where.key() << '@' << d.symptom.when.start << " -> "
        << d.primary() << " causes=" << d.causes.size() << " evidence=[";
    for (const core::EvidenceNode& n : d.evidence) {
      out << n.event << ':' << n.instances.size() << ',';
    }
    out << "]\n";
  }
  return out.str();
}

/// Full diagnose_all over the standard scenario with --threads workers.
/// Throughput (items/s) is symptoms diagnosed per wall-clock second: the
/// work runs on pool threads, so the main thread's CPU time would overstate
/// it.
/// Shared across the diagnose_all benches so setup is paid once.
ScaledStore& scaling_store() {
  static ScaledStore scaled(bench_net(), 200000);  // ~2000 symptoms
  return scaled;
}

void BM_DiagnoseAllThreads(benchmark::State& state) {
  const topology::Network& net = bench_net();
  ScaledStore& scaled = scaling_store();
  routing::OspfSim ospf(net);
  routing::BgpSim bgp(ospf);
  core::LocationMapper mapper(net, ospf, bgp);
  core::RcaEngine engine(scaling_graph(), scaled.store, mapper);
  // Correctness gates before we bother timing: the parallel batch must
  // match the serial batch byte-for-byte, and the (default-on) join cache
  // must reproduce the uncached mapper verdicts exactly.
  core::RcaEngine uncached(scaling_graph(), scaled.store, mapper);
  uncached.set_join_cache_enabled(false);
  if (render_diagnoses(engine.diagnose_all(1)) !=
      render_diagnoses(uncached.diagnose_all(1))) {
    state.SkipWithError("cached diagnose_all differs from uncached");
    return;
  }
  if (g_threads > 1 &&
      render_diagnoses(engine.diagnose_all(g_threads)) !=
          render_diagnoses(engine.diagnose_all(1))) {
    state.SkipWithError("parallel diagnose_all differs from serial");
    return;
  }
  std::size_t diagnosed = 0;
  for (auto _ : state) {
    auto batch = engine.diagnose_all(g_threads);
    diagnosed += batch.size();
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(diagnosed));
  state.counters["threads"] = g_threads;
}
BENCHMARK(BM_DiagnoseAllThreads)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Same scenario with the join cache disabled: the baseline the memoized
/// path is measured against (compare items/s with BM_DiagnoseAllThreads).
void BM_DiagnoseAllUncached(benchmark::State& state) {
  const topology::Network& net = bench_net();
  ScaledStore& scaled = scaling_store();
  routing::OspfSim ospf(net);
  routing::BgpSim bgp(ospf);
  core::LocationMapper mapper(net, ospf, bgp);
  core::RcaEngine engine(scaling_graph(), scaled.store, mapper);
  engine.set_join_cache_enabled(false);
  std::size_t diagnosed = 0;
  for (auto _ : state) {
    auto batch = engine.diagnose_all(g_threads);
    diagnosed += batch.size();
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(diagnosed));
  state.counters["threads"] = g_threads;
}
BENCHMARK(BM_DiagnoseAllUncached)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SpatialProjection(benchmark::State& state) {
  const topology::Network& net = bench_net();
  routing::OspfSim ospf(net);
  routing::BgpSim bgp(ospf);
  routing::seed_customer_routes(bgp, net, 0);
  core::LocationMapper mapper(net, ospf, bgp);
  const topology::CustomerSite& c = net.customers().back();
  core::Location loc = core::Location::ingress_destination(
      net.routers()[0].name,
      util::Ipv4Addr(c.announced.address().value() + 1).to_string());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mapper.project(loc, core::LocationType::kLogicalLink, 1000));
  }
}
BENCHMARK(BM_SpatialProjection)->Unit(benchmark::kMicrosecond);

}  // namespace

/// Custom main: extract our --threads / --metrics-out flags before
/// google-benchmark sees (and rejects) them.
int main(int argc, char** argv) {
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  std::string metrics_out;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      g_threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      g_threads = static_cast<unsigned>(std::stoul(argv[i] + 10));
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_out.empty()) grca::bench::write_metrics_file(metrics_out);
  return 0;
}
