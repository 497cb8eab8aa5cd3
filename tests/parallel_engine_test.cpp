// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the parallel diagnosis paths: RcaEngine::diagnose_all fan-out
// and the EventStore freeze-then-query contract. The determinism tests
// assert the parallel runs are *identical* to serial — same diagnoses, same
// instance pointers, same order. The TSan CI job runs this binary to prove
// the concurrent paths race-free.

#include <gtest/gtest.h>

#include <thread>

#include "core/engine.h"
#include "core/rule_dsl.h"
#include "routing/bgp.h"
#include "routing/ospf.h"
#include "topology/topo_gen.h"
#include "util/rng.h"

namespace grca {
namespace {

namespace t = topology;

/// A seeded store of interface flaps plus matching ebgp-flap symptoms,
/// mirroring the engine_scaling bench scenario.
struct SeededScenario {
  t::Network net;
  routing::OspfSim ospf;
  routing::BgpSim bgp;
  core::LocationMapper mapper;
  core::EventStore store;

  explicit SeededScenario(std::size_t flaps = 20000)
      : net(t::generate_isp(t::TopoParams{})),
        ospf(net),
        bgp(ospf),
        mapper(net, ospf, bgp) {
    util::Rng rng(99);
    util::TimeSec start = util::make_utc(2010, 1, 1);
    util::TimeSec span = 30 * util::kDay;
    for (std::size_t i = 0; i < flaps; ++i) {
      const t::CustomerSite& c =
          net.customers()[rng.below(net.customers().size())];
      const t::Interface& port = net.interface(c.attachment);
      util::TimeSec at = start + rng.range(0, span);
      store.add(core::EventInstance{
          "interface-flap",
          {at, at + rng.range(2, 12)},
          core::Location::interface(net.router(port.router).name, port.name),
          {}});
      if (i % 50 == 0) {
        store.add(core::EventInstance{
            "ebgp-flap",
            {at + 2, at + rng.range(20, 60)},
            core::Location::router_neighbor(net.router(port.router).name,
                                            c.neighbor_ip.to_string()),
            {}});
      }
    }
  }

  core::DiagnosisGraph graph() const {
    core::DiagnosisGraph g;
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
                   g);
    return g;
  }
};

void expect_identical(const std::vector<core::Diagnosis>& serial,
                      const std::vector<core::Diagnosis>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const core::Diagnosis& s = serial[i];
    const core::Diagnosis& p = parallel[i];
    EXPECT_EQ(s.symptom, p.symptom) << "symptom " << i;
    ASSERT_EQ(s.evidence.size(), p.evidence.size()) << "symptom " << i;
    for (std::size_t j = 0; j < s.evidence.size(); ++j) {
      EXPECT_EQ(s.evidence[j].event, p.evidence[j].event);
      EXPECT_EQ(s.evidence[j].instances, p.evidence[j].instances)
          << "same store => identical instance pointers, symptom " << i;
      EXPECT_EQ(s.evidence[j].priority, p.evidence[j].priority);
      EXPECT_EQ(s.evidence[j].depth, p.evidence[j].depth);
    }
    ASSERT_EQ(s.causes.size(), p.causes.size()) << "symptom " << i;
    for (std::size_t j = 0; j < s.causes.size(); ++j) {
      EXPECT_EQ(s.causes[j].event, p.causes[j].event);
      EXPECT_EQ(s.causes[j].priority, p.causes[j].priority);
      EXPECT_EQ(s.causes[j].instances, p.causes[j].instances);
    }
    EXPECT_EQ(s.primary(), p.primary());
  }
}

TEST(ParallelEngine, EightThreadsIdenticalToSerial) {
  SeededScenario scenario;
  core::RcaEngine engine(scenario.graph(), scenario.store, scenario.mapper);
  auto serial = engine.diagnose_all(1);
  auto parallel = engine.diagnose_all(8);
  ASSERT_GT(serial.size(), 100u);  // the scenario actually exercises fan-out
  expect_identical(serial, parallel);
}

TEST(ParallelEngine, ZeroMeansHardwareConcurrency) {
  SeededScenario scenario(2000);
  core::RcaEngine engine(scenario.graph(), scenario.store, scenario.mapper);
  expect_identical(engine.diagnose_all(1), engine.diagnose_all(0));
}

TEST(ParallelEngine, FewerSymptomsThanThreads) {
  // No symptom, one, and fewer than the workers asked for: the fan-out
  // starts at most one worker per symptom and still covers each once.
  for (std::size_t flaps : {0, 50, 150}) {
    SeededScenario scenario(flaps);
    core::RcaEngine engine(scenario.graph(), scenario.store, scenario.mapper);
    auto serial = engine.diagnose_all(1);
    EXPECT_EQ(serial.size(), (flaps + 49) / 50);
    expect_identical(serial, engine.diagnose_all(8));
  }
}

TEST(ParallelEngine, ConcurrentDiagnoseOnWarmStore) {
  SeededScenario scenario(2000);
  scenario.store.warm();
  auto symptoms = scenario.store.all("ebgp-flap");
  ASSERT_FALSE(symptoms.empty());
  symptoms = symptoms.subspan(0, std::min<std::size_t>(symptoms.size(), 50));
  // The serial reference resolves every join through LocationMapper::joins.
  core::RcaEngine reference(scenario.graph(), scenario.store, scenario.mapper);
  reference.set_join_cache_enabled(false);
  std::vector<core::Diagnosis> expected;
  for (const core::EventInstance& s : symptoms) {
    expected.push_back(reference.diagnose(s));
  }
  // One engine (so one join memo) per thread over the shared warmed store,
  // mapper and location table, diagnosing the same symptoms at once: the
  // store's read path, the table's interning and the SPF memo run
  // concurrently under TSan.
  std::vector<std::vector<core::Diagnosis>> results(4);
  std::vector<std::thread> threads;
  for (std::size_t th = 0; th < results.size(); ++th) {
    threads.emplace_back([&, th] {
      core::RcaEngine engine(scenario.graph(), scenario.store,
                             scenario.mapper);
      for (const core::EventInstance& s : symptoms) {
        results[th].push_back(engine.diagnose(s));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::vector<core::Diagnosis>& result : results) {
    expect_identical(expected, result);
  }
}

TEST(EventStoreFreeze, AddAfterFinalizeThrows) {
  core::EventStore store;
  store.add(core::EventInstance{
      "ebgp-flap", {10, 20}, core::Location::router("r1"), {}});
  EXPECT_FALSE(store.finalized());
  store.finalize();
  EXPECT_TRUE(store.finalized());
  EXPECT_THROW(store.add(core::EventInstance{
                   "ebgp-flap", {30, 40}, core::Location::router("r1"), {}}),
               ConfigError);
  // Queries still work on the frozen store.
  EXPECT_EQ(store.query("ebgp-flap", 0, 100).size(), 1u);
}

TEST(EventStoreFreeze, WarmMakesQueriesReadOnly) {
  core::EventStore store;
  for (int i = 100; i > 0; --i) {
    store.add(core::EventInstance{"flap",
                                  {i * 10, i * 10 + 5},
                                  core::Location::router("r1"),
                                  {}});
  }
  store.warm();
  // Concurrent queries after warm(): safe (TSan verifies) and consistent.
  std::vector<std::thread> threads;
  std::vector<std::size_t> counts(4);
  for (std::size_t th = 0; th < counts.size(); ++th) {
    threads.emplace_back(
        [&, th] { counts[th] = store.query("flap", 0, 2000).size(); });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t count : counts) EXPECT_EQ(count, 100u);
}

}  // namespace
}  // namespace grca
