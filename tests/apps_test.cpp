// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the application layer: the three app configurations, the Result
// Browser, and the scoring harness.

#include <gtest/gtest.h>

#include "apps/bgp_flap_app.h"
#include "apps/cdn_app.h"
#include "apps/pim_app.h"
#include "apps/scoring.h"
#include "apps/study.h"
#include "core/knowledge_library.h"
#include "core/result_browser.h"
#include "simulation/fault_scenarios.h"
#include "topology/topo_gen.h"
#include "util/strings.h"

namespace grca {
namespace {

using core::Diagnosis;
using core::EventInstance;
using core::Location;
using core::ResultBrowser;

// ---- application configurations ------------------------------------------

TEST(AppConfigs, AllGraphsValidate) {
  EXPECT_NO_THROW(apps::bgp::build_graph());
  EXPECT_NO_THROW(apps::cdn::build_graph());
  EXPECT_NO_THROW(apps::pim::build_graph());
}

TEST(StudyTable, FindsEveryStudyAndScenarioApp) {
  for (std::string_view name : {"bgp", "cdn", "pim", "innet"}) {
    const apps::Study& study = apps::find_study(name);
    EXPECT_EQ(study.name, name);
    EXPECT_NO_THROW(study.build_graph().validate());
  }
  for (sim::ScenarioClass c : sim::all_scenario_classes()) {
    EXPECT_NO_THROW(apps::find_study(sim::scenario_app(c)))
        << sim::to_string(c);
  }
  EXPECT_THROW(apps::find_study("bogus"), ConfigError);
}

TEST(StudyTable, OnlyCdnObservesEgress) {
  topology::TopoParams tp;
  tp.pops = 3;
  tp.pers_per_pop = 2;
  topology::Network net = topology::generate_isp(tp);
  ASSERT_FALSE(net.cdn_nodes().empty());
  EXPECT_EQ(apps::find_study("cdn").egress_observers(net),
            net.cdn_nodes().front().ingress_routers);
  EXPECT_FALSE(apps::find_study("cdn").egress_observers(net).empty());
  for (std::string_view name : {"bgp", "pim", "innet"}) {
    EXPECT_TRUE(apps::find_study(name).egress_observers(net).empty()) << name;
  }
}

TEST(AppConfigs, RootsAndLocations) {
  EXPECT_EQ(apps::bgp::build_graph().root(), "ebgp-flap");
  EXPECT_EQ(apps::cdn::build_graph().root(), "cdn-rtt-increase");
  EXPECT_EQ(apps::pim::build_graph().root(), "pim-adjacency-flap");
  EXPECT_EQ(apps::bgp::build_graph().event("ebgp-flap").location_type,
            core::LocationType::kRouterNeighbor);
  EXPECT_EQ(apps::cdn::build_graph().event("cdn-rtt-increase").location_type,
            core::LocationType::kCdnClient);
  EXPECT_EQ(apps::pim::build_graph().event("pim-adjacency-flap").location_type,
            core::LocationType::kVpnNeighbor);
}

TEST(AppConfigs, BgpAppAddsExactlyFourEvents) {
  // Paper Table III's three application-specific events, plus the
  // bgp-prefix-flood event backing the route-leak benchmark scenario.
  core::DiagnosisGraph library;
  core::load_knowledge_library(library);
  core::DiagnosisGraph combined = apps::bgp::build_graph();
  EXPECT_EQ(combined.events().size() - library.events().size(), 4u);
  EXPECT_EQ(combined.event("bgp-prefix-flood").location_type,
            core::LocationType::kRouterNeighbor);
}

TEST(AppConfigs, PimAppAddsThreeEventsSevenRules) {
  // Paper §III-C: three multicast-specific events, seven rules.
  core::DiagnosisGraph library;
  core::load_knowledge_library(library);
  core::DiagnosisGraph combined = apps::pim::build_graph();
  EXPECT_EQ(combined.events().size() - library.events().size(), 3u);
  EXPECT_EQ(combined.rules().size() - library.rules().size(), 7u);
}

TEST(AppConfigs, DeeperRulesHaveHigherPriority) {
  // §II-D.1: "the deeper root cause has a higher priority" along a branch.
  core::DiagnosisGraph graph = apps::bgp::build_graph();
  auto priority_of = [&](const std::string& from, const std::string& to) {
    for (const core::DiagnosisRule& rule : graph.rules_from(from)) {
      if (rule.diagnostic == to) return rule.priority;
    }
    return -1;
  };
  int flap = priority_of("ebgp-flap", "interface-flap");
  int sonet = priority_of("interface-flap", "sonet-restoration");
  EXPECT_GT(sonet, flap);
  int hte = priority_of("ebgp-flap", "ebgp-hte");
  int cpu = priority_of("ebgp-hte", "cpu-high-spike");
  EXPECT_GT(cpu, hte);
}

TEST(AppConfigs, CanonicalCauseFolding) {
  EXPECT_EQ(apps::cdn::canonical_cause("sonet-restoration"), "interface-flap");
  EXPECT_EQ(apps::cdn::canonical_cause("link-congestion"), "link-congestion");
  EXPECT_EQ(apps::pim::canonical_cause("cmd-cost-out"), "link-cost-outdown");
  EXPECT_EQ(apps::pim::canonical_cause("cmd-cost-in"), "link-cost-inup");
  EXPECT_EQ(apps::bgp::canonical_cause("anything"), "anything");
}

// ---- ResultBrowser ----------------------------------------------------------

Diagnosis diag(const std::string& cause, util::TimeSec start,
               double elapsed = 1.0) {
  Diagnosis d;
  d.symptom = EventInstance{"ebgp-flap", {start, start + 10},
                            Location::router_neighbor("r1", "1.2.3.4"), {}};
  d.evidence.push_back(core::EvidenceNode{"ebgp-flap", {}, 0, 0});
  if (!cause.empty()) {
    d.evidence.push_back(core::EvidenceNode{cause, {}, 100, 1});
    d.causes.push_back(core::RootCause{cause, 100, {}});
  }
  d.elapsed_ms = elapsed;
  return d;
}

TEST(Browser, CountsAndPercentages) {
  std::vector<Diagnosis> ds = {diag("a", 0), diag("a", 100), diag("b", 200),
                               diag("", 300)};
  ResultBrowser browser(std::move(ds));
  auto counts = browser.counts();
  EXPECT_EQ(counts["a"], 2u);
  EXPECT_EQ(counts["b"], 1u);
  EXPECT_EQ(counts["unknown"], 1u);
  auto pct = browser.percentages();
  EXPECT_DOUBLE_EQ(pct["a"], 50.0);
}

TEST(Browser, BreakdownRespectsDisplayOrder) {
  std::vector<Diagnosis> ds = {diag("a", 0), diag("b", 1), diag("b", 2)};
  ResultBrowser browser(std::move(ds));
  browser.set_display_name("a", "Alpha cause");
  browser.set_display_order({"a", "b"});
  std::string out = browser.breakdown().render();
  // 'a' listed before 'b' despite having fewer instances.
  EXPECT_LT(out.find("Alpha cause"), out.find("b"));
}

TEST(Browser, FilterByCause) {
  std::vector<Diagnosis> ds = {diag("a", 0), diag("", 1)};
  ResultBrowser browser(std::move(ds));
  EXPECT_EQ(browser.with_cause("a").size(), 1u);
  EXPECT_EQ(browser.unknowns().size(), 1u);
  EXPECT_TRUE(browser.with_cause("zzz").empty());
}

TEST(Browser, TrendBucketsByDay) {
  std::vector<Diagnosis> ds = {diag("a", 0), diag("a", util::kDay + 5),
                               diag("a", util::kDay + 6)};
  ResultBrowser browser(std::move(ds));
  auto table = browser.trend();
  EXPECT_EQ(table.row_count(), 2u);  // two distinct days
}

TEST(Browser, MeanDiagnosisTime) {
  std::vector<Diagnosis> ds = {diag("a", 0, 2.0), diag("a", 1, 4.0)};
  ResultBrowser browser(std::move(ds));
  EXPECT_DOUBLE_EQ(browser.mean_diagnosis_ms(), 3.0);
  EXPECT_DOUBLE_EQ(ResultBrowser({}).mean_diagnosis_ms(), 0.0);
}

TEST(Browser, CsvExport) {
  std::vector<Diagnosis> ds = {diag("interface-flap", 1000), diag("", 2000)};
  ResultBrowser browser(std::move(ds));
  std::string csv = browser.to_csv();
  auto lines = util::split(csv, '\n');
  ASSERT_GE(lines.size(), 3u);
  EXPECT_NE(lines[0].find("root_cause"), std::string::npos);
  EXPECT_NE(lines[1].find("\"interface-flap\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"unknown\""), std::string::npos);
  EXPECT_NE(lines[1].find("router-neighbor|r1|1.2.3.4"), std::string::npos);
}

TEST(Browser, DrillDownRendersEvidenceAndContext) {
  std::vector<Diagnosis> ds = {diag("interface-flap", 1000)};
  ResultBrowser browser(std::move(ds));
  std::string out = browser.drill_down(
      browser.diagnoses()[0],
      [](const Location&, util::TimeSec, util::TimeSec) {
        return std::vector<std::string>{"a raw syslog line"};
      });
  EXPECT_NE(out.find("interface-flap"), std::string::npos);
  EXPECT_NE(out.find("a raw syslog line"), std::string::npos);
}

// ---- scoring ----------------------------------------------------------------

sim::TruthEntry truth(const std::string& cause, util::TimeSec time) {
  return sim::TruthEntry{"ebgp-flap", "r1", "1.2.3.4", time, cause};
}

TEST(Scoring, MatchesWithinTolerance) {
  std::vector<Diagnosis> ds = {diag("a", 1000)};
  std::vector<sim::TruthEntry> ts = {truth("a", 1005)};
  auto score = apps::score_diagnoses(ds, ts, {}, 30);
  EXPECT_EQ(score.matched, 1u);
  EXPECT_EQ(score.correct, 1u);
  EXPECT_DOUBLE_EQ(score.accuracy(), 1.0);
}

TEST(Scoring, RejectsOutOfTolerance) {
  std::vector<Diagnosis> ds = {diag("a", 1000)};
  std::vector<sim::TruthEntry> ts = {truth("a", 1200)};
  auto score = apps::score_diagnoses(ds, ts, {}, 30);
  EXPECT_EQ(score.matched, 0u);
}

TEST(Scoring, CountsWrongCauseAsIncorrect) {
  std::vector<Diagnosis> ds = {diag("b", 1000)};
  std::vector<sim::TruthEntry> ts = {truth("a", 1000)};
  auto score = apps::score_diagnoses(ds, ts, {}, 30);
  EXPECT_EQ(score.matched, 1u);
  EXPECT_EQ(score.correct, 0u);
  EXPECT_EQ(score.confusion["a"]["b"], 1u);
}

TEST(Scoring, CanonicalMappingApplied) {
  std::vector<Diagnosis> ds = {diag("cmd-cost-out", 1000)};
  std::vector<sim::TruthEntry> ts = {truth("link-cost-outdown", 1000)};
  auto score = apps::score_diagnoses(ds, ts, apps::pim::canonical_cause, 30);
  EXPECT_EQ(score.correct, 1u);
}

TEST(Scoring, TruthEntriesMatchedAtMostOnce) {
  // Two diagnoses near one truth entry: only one may claim it.
  std::vector<Diagnosis> ds = {diag("a", 1000), diag("a", 1002)};
  std::vector<sim::TruthEntry> ts = {truth("a", 1001)};
  auto score = apps::score_diagnoses(ds, ts, {}, 30);
  EXPECT_EQ(score.matched, 1u);
}

TEST(Scoring, NearestEntryWins) {
  std::vector<Diagnosis> ds = {diag("a", 1000)};
  std::vector<sim::TruthEntry> ts = {truth("b", 980), truth("a", 1001)};
  auto score = apps::score_diagnoses(ds, ts, {}, 30);
  EXPECT_EQ(score.correct, 1u);  // matched the t=1001 entry, cause 'a'
}

TEST(Scoring, ConfusionTableSortedByCount) {
  std::vector<Diagnosis> ds = {diag("b", 0), diag("b", 100), diag("c", 200)};
  std::vector<sim::TruthEntry> ts = {truth("a", 0), truth("a", 100),
                                     truth("a", 200)};
  auto score = apps::score_diagnoses(ds, ts, {}, 30);
  auto table = score.confusion_table();
  std::string out = table.render();
  EXPECT_LT(out.find("b"), out.find("c"));  // larger confusion first
}

}  // namespace
}  // namespace grca
