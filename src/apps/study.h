// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The study table: the one place that knows what each RCA application
// needs to run end to end. In the paper's design (Fig. 1) an application
// is just a diagnosis graph on the shared collector and engine; here each
// study also names its report labels, how its verdicts fold onto ground
// truth, where it evaluates BGP egress changes, and the synthetic workload
// that exercises it. Every command and driver looks a study up here by
// name instead of branching on the name itself.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/diagnosis_graph.h"
#include "core/result_browser.h"
#include "simulation/workloads.h"
#include "topology/network.h"

namespace grca::apps {

struct Study {
  std::string_view name;
  /// Knowledge Library + application config, rooted at the study's symptom.
  core::DiagnosisGraph (*build_graph)();
  /// The report table's row labels and order.
  void (*configure_browser)(core::ResultBrowser&);
  /// Maps a diagnosed primary onto its ground-truth cause label.
  std::string (*canonical_cause)(const std::string&);
  /// Routers at which BGP egress changes are evaluated (the CDN ingress
  /// routers); empty disables that extraction.
  std::vector<topology::RouterId> (*egress_observers)(const topology::Network&);
  /// Workload scale of the paper's case study: days of telemetry and
  /// ground-truth symptoms.
  int default_days;
  int default_symptoms;
  /// Generates the study's workload (records + truth) on `net`.
  sim::StudyOutput (*generate)(const topology::Network& net, int days,
                               int symptoms, std::uint64_t seed);
};

/// The study called `name` (bgp, cdn, pim or innet); throws ConfigError
/// "unknown study '<name>'" for any other.
const Study& find_study(std::string_view name);

}  // namespace grca::apps
