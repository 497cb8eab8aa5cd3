// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "apps/study.h"

#include "apps/bgp_flap_app.h"
#include "apps/cdn_app.h"
#include "apps/innet_app.h"
#include "apps/pim_app.h"
#include "util/error.h"

namespace grca::apps {

namespace {

template <typename Params,
          sim::StudyOutput (*Run)(const topology::Network&, const Params&)>
sim::StudyOutput generate(const topology::Network& net, int days,
                          int symptoms, std::uint64_t seed) {
  Params p;
  p.days = days;
  p.target_symptoms = symptoms;
  p.seed = seed;
  return Run(net, p);
}

std::vector<topology::RouterId> no_observers(const topology::Network&) {
  return {};
}

std::vector<topology::RouterId> cdn_ingress(const topology::Network& net) {
  if (net.cdn_nodes().empty()) return {};
  return net.cdn_nodes().front().ingress_routers;
}

constexpr Study kStudies[] = {
    {"bgp", bgp::build_graph, bgp::configure_browser, bgp::canonical_cause,
     no_observers, 30, 2000,
     generate<sim::BgpStudyParams, sim::run_bgp_study>},
    {"cdn", cdn::build_graph, cdn::configure_browser, cdn::canonical_cause,
     cdn_ingress, 30, 1500,
     generate<sim::CdnStudyParams, sim::run_cdn_study>},
    {"pim", pim::build_graph, pim::configure_browser, pim::canonical_cause,
     no_observers, 14, 2000,
     generate<sim::PimStudyParams, sim::run_pim_study>},
    {"innet", innet::build_graph, innet::configure_browser,
     innet::canonical_cause, no_observers, 30, 600,
     generate<sim::InnetStudyParams, sim::run_innet_study>},
};

}  // namespace

const Study& find_study(std::string_view name) {
  for (const Study& s : kStudies) {
    if (s.name == name) return s;
  }
  throw ConfigError("unknown study '" + std::string(name) + "'");
}

}  // namespace grca::apps
