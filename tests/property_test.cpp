// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Cross-module property tests: invariants that must hold across workloads,
// applications and configuration sweeps (parameterized with TEST_P).

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/bgp_flap_app.h"
#include "apps/cdn_app.h"
#include "apps/innet_app.h"
#include "apps/pim_app.h"
#include "apps/pipeline.h"
#include "apps/scoring.h"
#include "core/rule_dsl.h"
#include "simulation/workloads.h"
#include "topology/config.h"
#include "topology/topo_gen.h"

namespace grca {
namespace {

namespace t = topology;

t::TopoParams tiny_params() {
  t::TopoParams p;
  p.pops = 4;
  p.pers_per_pop = 2;
  p.customers_per_per = 4;
  p.mvpn_count = 2;
  p.mvpn_sites_per_vpn = 6;
  return p;
}

// ---- every application's graph round-trips through the DSL ----------------

struct AppCase {
  const char* name;
  core::DiagnosisGraph (*build)();
};

const AppCase kApps[] = {{"bgp", apps::bgp::build_graph},
                         {"cdn", apps::cdn::build_graph},
                         {"pim", apps::pim::build_graph},
                         {"innet", apps::innet::build_graph}};

// Parameterized by application name rather than by AppCase: gtest prints an
// AppCase as its raw bytes, pointers included, so test IDs built from it
// would change with every load address.
class AppGraphProperty : public ::testing::TestWithParam<const char*> {
 protected:
  core::DiagnosisGraph build() const {
    for (const AppCase& app : kApps) {
      if (std::string(app.name) == GetParam()) return app.build();
    }
    ADD_FAILURE() << "unknown application " << GetParam();
    return {};
  }
};

TEST_P(AppGraphProperty, DslRoundTripPreservesGraph) {
  core::DiagnosisGraph graph = build();
  std::string text = core::render_dsl(graph);
  core::DiagnosisGraph back;
  core::load_dsl(text, back);
  back.validate();
  EXPECT_EQ(back.root(), graph.root());
  EXPECT_EQ(back.events().size(), graph.events().size());
  ASSERT_EQ(back.rules().size(), graph.rules().size());
  for (std::size_t i = 0; i < graph.rules().size(); ++i) {
    EXPECT_EQ(back.rules()[i].symptom, graph.rules()[i].symptom);
    EXPECT_EQ(back.rules()[i].priority, graph.rules()[i].priority);
    EXPECT_EQ(back.rules()[i].temporal, graph.rules()[i].temporal);
  }
}

TEST_P(AppGraphProperty, EveryRuleEndpointHasMatchingLocationTypes) {
  // A rule's events must have resolvable location types; the join level must
  // be reachable from both (structural sanity over all app configs).
  core::DiagnosisGraph graph = build();
  for (const core::DiagnosisRule& rule : graph.rules()) {
    EXPECT_NO_THROW(graph.event(rule.symptom));
    EXPECT_NO_THROW(graph.event(rule.diagnostic));
    EXPECT_GE(rule.priority, 0);
  }
}

TEST_P(AppGraphProperty, RootIsNeverADiagnostic) {
  // The symptom event must not appear as a diagnostic of another rule
  // (would make the symptom explain something else — a config smell).
  core::DiagnosisGraph graph = build();
  for (const core::DiagnosisRule& rule : graph.rules()) {
    EXPECT_NE(rule.diagnostic, graph.root());
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, AppGraphProperty,
                         ::testing::Values("bgp", "cdn", "pim", "innet"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---- extraction is deterministic and idempotent -----------------------------

class StudyProperty : public ::testing::TestWithParam<const char*> {
 protected:
  sim::StudyOutput run_study(const t::Network& net) const {
    std::string study = GetParam();
    if (study == "bgp") {
      sim::BgpStudyParams p;
      p.days = 5;
      p.target_symptoms = 120;
      return sim::run_bgp_study(net, p);
    }
    if (study == "pim") {
      sim::PimStudyParams p;
      p.days = 5;
      p.target_symptoms = 120;
      return sim::run_pim_study(net, p);
    }
    sim::InnetStudyParams p;
    p.days = 5;
    p.target_symptoms = 120;
    return sim::run_innet_study(net, p);
  }
};

TEST_P(StudyProperty, ExtractionIsDeterministic) {
  t::Network net = t::generate_isp(tiny_params());
  sim::StudyOutput study = run_study(net);
  apps::Pipeline a(net, study.records);
  apps::Pipeline b(net, study.records);
  EXPECT_EQ(a.store().total_instances(), b.store().total_instances());
  for (const std::string& name : a.store().event_names()) {
    auto lhs = a.store().all(name);
    auto rhs = b.store().all(name);
    ASSERT_EQ(lhs.size(), rhs.size()) << name;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i], rhs[i]) << name;
    }
  }
}

TEST_P(StudyProperty, EveryTruthSymptomHasAnExtractedInstance) {
  t::Network net = t::generate_isp(tiny_params());
  sim::StudyOutput study = run_study(net);
  apps::Pipeline pipeline(net, study.records);
  std::size_t missing = 0;
  for (const sim::TruthEntry& e : study.truth) {
    auto candidates =
        pipeline.store().query(e.symptom, e.time - 30, e.time + 30);
    missing += std::none_of(candidates.begin(), candidates.end(),
                            [&](const core::EventInstance* inst) {
                              return inst->where.a == e.router;
                            });
  }
  // Symptom extraction may merge rapid repeats; tolerate a tiny residue.
  EXPECT_LE(missing, study.truth.size() / 20)
      << missing << " of " << study.truth.size();
}

TEST_P(StudyProperty, RecordStreamSurvivesShuffling) {
  // The collector sorts on ingest: feeding the same records in a scrambled
  // order must produce identical events.
  t::Network net = t::generate_isp(tiny_params());
  sim::StudyOutput study = run_study(net);
  telemetry::RecordStream shuffled = study.records;
  util::Rng rng(99);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  apps::Pipeline ordered(net, study.records);
  apps::Pipeline scrambled(net, shuffled);
  EXPECT_EQ(ordered.store().total_instances(),
            scrambled.store().total_instances());
}

INSTANTIATE_TEST_SUITE_P(Studies, StudyProperty,
                         ::testing::Values("bgp", "pim", "innet"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---- spatial join monotonicity ------------------------------------------------

TEST(SpatialProperty, InterfaceJoinImpliesRouterJoin) {
  t::Network net = t::generate_isp(tiny_params());
  routing::OspfSim ospf(net);
  routing::BgpSim bgp(ospf);
  core::LocationMapper mapper(net, ospf, bgp);
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const t::CustomerSite& c =
        net.customers()[rng.below(net.customers().size())];
    const t::Interface& port = net.interface(c.attachment);
    std::string router = net.router(port.router).name;
    core::Location session =
        core::Location::router_neighbor(router, c.neighbor_ip.to_string());
    const t::Interface& other =
        net.interfaces()[rng.below(net.interfaces().size())];
    core::Location diag = core::Location::interface(
        net.router(other.router).name, other.name);
    if (mapper.joins(session, diag, core::LocationType::kInterface, 0)) {
      EXPECT_TRUE(mapper.joins(session, diag, core::LocationType::kRouter, 0));
    }
  }
}

// ---- reasoning: higher-priority evidence can only improve its rank ------------

TEST(ReasoningProperty, AddingUnrelatedEvidenceNeverUnknowns) {
  // If a symptom has a diagnosis, adding events elsewhere must not remove it.
  t::Network net = t::generate_isp(tiny_params());
  sim::BgpStudyParams p;
  p.days = 3;
  p.target_symptoms = 60;
  sim::StudyOutput study = sim::run_bgp_study(net, p);
  apps::Pipeline pipeline(net, study.records);
  core::RcaEngine engine(apps::bgp::build_graph(), pipeline.store(),
                         pipeline.mapper());
  auto before = engine.diagnose_all();

  // Re-run with the store augmented by far-away noise events.
  core::EventStore augmented;
  for (const std::string& name : pipeline.store().event_names()) {
    for (const core::EventInstance& e : pipeline.store().all(name)) {
      augmented.add(e);
    }
  }
  for (int i = 0; i < 50; ++i) {
    augmented.add(core::EventInstance{
        "cpu-high-spike",
        {9000000000 + i, 9000000000 + i},  // decades away
        core::Location::router(net.routers()[i % net.routers().size()].name),
        {}});
  }
  core::RcaEngine engine2(apps::bgp::build_graph(), augmented,
                          pipeline.mapper());
  auto after = engine2.diagnose_all();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].primary(), before[i].primary());
  }
}

}  // namespace
}  // namespace grca
