// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// End-to-end integration tests: synthetic ISP -> fault scenarios -> raw
// telemetry -> Data Collector -> RCA engine -> score against ground truth.
// The RCA side reconstructs its network purely from rendered router configs
// + the layer-1 inventory (never touching the simulator's Network object),
// exactly as the paper's platform does.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>

#include "apps/bgp_flap_app.h"
#include "apps/cdn_app.h"
#include "apps/innet_app.h"
#include "apps/pim_app.h"
#include "apps/pipeline.h"
#include "apps/scoring.h"
#include "simulation/workloads.h"
#include "topology/config.h"
#include "topology/topo_gen.h"

namespace grca {
namespace {

using apps::Pipeline;
using apps::Score;
using apps::score_diagnoses;

/// Simulator-side network plus the config-derived RCA-side twin.
struct World {
  topology::Network sim_net;
  topology::Network rca_net;

  explicit World(const topology::TopoParams& params)
      : sim_net(topology::generate_isp(params)),
        rca_net(topology::build_network_from_configs(
            topology::render_all_configs(sim_net),
            topology::render_layer1_inventory(sim_net))) {}
};

topology::TopoParams small_params() {
  topology::TopoParams p;
  p.pops = 6;
  p.pers_per_pop = 3;
  p.customers_per_per = 6;
  p.mvpn_count = 2;
  p.mvpn_sites_per_vpn = 8;
  return p;
}

TEST(Integration, BgpStudyEndToEnd) {
  World world(small_params());
  sim::BgpStudyParams params;
  params.days = 7;
  params.target_symptoms = 300;
  params.noise = 0.5;
  sim::StudyOutput study = sim::run_bgp_study(world.sim_net, params);
  ASSERT_FALSE(study.records.empty());
  ASSERT_FALSE(study.truth.empty());

  Pipeline pipeline(world.rca_net, study.records);
  core::DiagnosisGraph graph = apps::bgp::build_graph();
  core::RcaEngine engine(graph, pipeline.store(), pipeline.mapper());
  std::vector<core::Diagnosis> diagnoses = engine.diagnose_all();
  ASSERT_FALSE(diagnoses.empty());

  Score score =
      score_diagnoses(diagnoses, study.truth, apps::bgp::canonical_cause);
  // Every ground-truth eBGP flap must surface as a diagnosed symptom.
  std::size_t truth_flaps = 0;
  for (const auto& t : study.truth) truth_flaps += t.symptom == "ebgp-flap";
  EXPECT_GE(score.matched, truth_flaps * 9 / 10)
      << "matched " << score.matched << " of " << truth_flaps;
  EXPECT_GE(score.accuracy(), 0.85) << score.confusion_table().render();
}

TEST(Integration, PimStudyEndToEnd) {
  World world(small_params());
  sim::PimStudyParams params;
  params.days = 7;
  params.target_symptoms = 300;
  params.noise = 0.5;
  sim::StudyOutput study = sim::run_pim_study(world.sim_net, params);
  ASSERT_FALSE(study.truth.empty());

  Pipeline pipeline(world.rca_net, study.records);
  core::DiagnosisGraph graph = apps::pim::build_graph();
  core::RcaEngine engine(graph, pipeline.store(), pipeline.mapper());
  std::vector<core::Diagnosis> diagnoses = engine.diagnose_all();
  ASSERT_FALSE(diagnoses.empty());

  Score score =
      score_diagnoses(diagnoses, study.truth, apps::pim::canonical_cause);
  std::size_t truth_pim = 0;
  for (const auto& t : study.truth) truth_pim += t.symptom == "pim-adjacency-flap";
  EXPECT_GE(score.matched, truth_pim * 8 / 10)
      << "matched " << score.matched << " of " << truth_pim;
  EXPECT_GE(score.accuracy(), 0.80) << score.confusion_table().render();
}

TEST(Integration, CdnStudyEndToEnd) {
  World world(small_params());
  sim::CdnStudyParams params;
  params.days = 7;
  params.target_symptoms = 250;
  params.client_prefixes = 30;
  params.noise = 0.5;
  sim::StudyOutput study = sim::run_cdn_study(world.sim_net, params);
  ASSERT_FALSE(study.truth.empty());

  // Egress changes are observed from the CDN node's ingress routers.
  std::vector<topology::RouterId> observers;
  for (topology::RouterId r :
       world.rca_net.cdn_nodes().front().ingress_routers) {
    observers.push_back(r);
  }
  Pipeline pipeline(world.rca_net, study.records, {}, observers);
  core::DiagnosisGraph graph = apps::cdn::build_graph();
  core::RcaEngine engine(graph, pipeline.store(), pipeline.mapper());
  std::vector<core::Diagnosis> diagnoses = engine.diagnose_all();
  ASSERT_FALSE(diagnoses.empty());

  Score score =
      score_diagnoses(diagnoses, study.truth, apps::cdn::canonical_cause);
  std::size_t truth_cdn = 0;
  for (const auto& t : study.truth) truth_cdn += t.symptom == "cdn-rtt-increase";
  EXPECT_GE(score.matched, truth_cdn * 8 / 10)
      << "matched " << score.matched << " of " << truth_cdn;
  EXPECT_GE(score.accuracy(), 0.75) << score.confusion_table().render();
}

TEST(Integration, InnetStudyEndToEnd) {
  World world(small_params());
  sim::InnetStudyParams params;
  params.days = 10;
  params.target_symptoms = 200;
  sim::StudyOutput study = sim::run_innet_study(world.sim_net, params);
  ASSERT_FALSE(study.truth.empty());

  Pipeline pipeline(world.rca_net, study.records);
  core::RcaEngine engine(apps::innet::build_graph(), pipeline.store(),
                         pipeline.mapper());
  std::vector<core::Diagnosis> diagnoses = engine.diagnose_all();
  ASSERT_FALSE(diagnoses.empty());
  Score score =
      score_diagnoses(diagnoses, study.truth, apps::innet::canonical_cause);
  EXPECT_GE(score.matched, study.truth.size() * 9 / 10);
  EXPECT_GE(score.accuracy(), 0.9) << score.confusion_table().render();
}

TEST(Integration, DiagnosisLatencyIsInteractive) {
  // The paper reports < 5 s per BGP symptom on production hardware; our
  // in-memory store should be far faster even in a debug-ish build.
  World world(small_params());
  sim::BgpStudyParams params;
  params.days = 3;
  params.target_symptoms = 100;
  sim::StudyOutput study = sim::run_bgp_study(world.sim_net, params);
  Pipeline pipeline(world.rca_net, study.records);
  core::RcaEngine engine(apps::bgp::build_graph(), pipeline.store(),
                         pipeline.mapper());
  auto diagnoses = engine.diagnose_all();
  ASSERT_FALSE(diagnoses.empty());
  double total = 0;
  for (const auto& d : diagnoses) total += d.elapsed_ms;
  EXPECT_LT(total / diagnoses.size(), 5000.0);
}

TEST(Integration, PipelineIgnoresArrivalOrder) {
  // The collector's output depends only on record content: a pipeline fed
  // a shuffled archive indexes the same records in the same order and
  // reaches the same diagnoses. (Feed-health lag is measured against
  // arrival order, so it legitimately differs and is not compared.)
  World world(small_params());
  sim::BgpStudyParams params;
  params.days = 3;
  params.target_symptoms = 100;
  params.noise = 0.5;
  sim::StudyOutput study = sim::run_bgp_study(world.sim_net, params);
  Pipeline original(world.rca_net, study.records);
  std::vector<core::Diagnosis> expected =
      original.diagnose_all(apps::bgp::build_graph(), 1);
  ASSERT_FALSE(expected.empty());

  auto fields = [](const collector::NormalizedRecord& r) {
    return std::tie(r.utc, r.source, r.router, r.device, r.interface, r.field,
                    r.body, r.value, r.attrs);
  };
  for (std::uint32_t seed : {1u, 2u}) {
    telemetry::RecordStream shuffled = study.records;
    std::mt19937 rng(seed);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    Pipeline pipeline(world.rca_net, shuffled);

    auto want = original.index().all();
    auto got = pipeline.index().all();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(fields(got[i]) == fields(want[i]))
          << "seed " << seed << " record " << i << ": "
          << collector::render(got[i]) << " vs "
          << collector::render(want[i]);
    }

    std::vector<core::Diagnosis> diagnoses =
        pipeline.diagnose_all(apps::bgp::build_graph(), 1);
    ASSERT_EQ(diagnoses.size(), expected.size());
    for (std::size_t i = 0; i < diagnoses.size(); ++i) {
      const core::Diagnosis& d = diagnoses[i];
      const core::Diagnosis& e = expected[i];
      EXPECT_EQ(d.symptom, e.symptom) << "seed " << seed << " diagnosis " << i;
      EXPECT_EQ(d.primary(), e.primary());
      ASSERT_EQ(d.evidence.size(), e.evidence.size());
      for (std::size_t n = 0; n < d.evidence.size(); ++n) {
        EXPECT_EQ(d.evidence[n].event, e.evidence[n].event);
        ASSERT_EQ(d.evidence[n].instances.size(),
                  e.evidence[n].instances.size());
        for (std::size_t k = 0; k < d.evidence[n].instances.size(); ++k) {
          EXPECT_EQ(*d.evidence[n].instances[k], *e.evidence[n].instances[k]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace grca
