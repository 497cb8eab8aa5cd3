// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The Result Browser (paper Fig. 1, §II-E): root-cause breakdowns (the
// Tables IV/VI/VIII of the evaluation), trending over time, filtering by
// diagnosed cause (the prefilter that §IV-B shows is crucial before running
// the correlation tester), and drill-down from one symptom into the raw
// records around it.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "util/table.h"

namespace grca::core {

/// Breakdown row order, shared by every breakdown renderer (the text table
/// and the service plane's JSON): causes listed in `display_order` that
/// have a count come first, in that order; then the rest by descending
/// count, ties by name.
std::vector<std::string> breakdown_order(
    const std::map<std::string, std::size_t>& counts,
    const std::vector<std::string>& display_order);

/// A trending cell: the UTC day a symptom starts in (that day's first
/// second) and its primary cause. Cells order by day, then cause name.
using TrendCell = std::pair<util::TimeSec, std::string>;
TrendCell trend_cell(util::TimeSec symptom_start, std::string cause);

class ResultBrowser {
 public:
  explicit ResultBrowser(std::vector<Diagnosis> diagnoses)
      : diagnoses_(std::move(diagnoses)) {}

  /// Maps a root-cause event name to the label shown in reports (e.g.
  /// "interface-flap" -> "Interface flap"). Unmapped names print as-is.
  void set_display_name(std::string event, std::string label);

  /// Fixes the row order of breakdown tables (paper tables use a fixed
  /// order). Causes not listed are appended by descending count.
  void set_display_order(std::vector<std::string> events);

  /// Count and percentage per primary root cause.
  std::map<std::string, std::size_t> counts() const;
  std::map<std::string, double> percentages() const;

  /// "Root Cause | Count | Percentage (%)" table.
  util::TextTable breakdown() const;

  /// Daily counts per root cause across the diagnosis window ("classifying
  /// and trending the root causes of a large number of historical events").
  util::TextTable trend() const;

  /// Diagnoses whose primary cause is `event` ("unknown" selects symptoms
  /// with no evidence) — the §II-E filter used to focus investigation.
  std::vector<const Diagnosis*> with_cause(const std::string& event) const;
  std::vector<const Diagnosis*> unknowns() const {
    return with_cause("unknown");
  }

  /// Drill-down: renders a symptom, its evidence chain and — through the
  /// caller-supplied lookup — raw context lines near the event.
  using ContextLookup = std::function<std::vector<std::string>(
      const Location&, util::TimeSec from, util::TimeSec to)>;
  std::string drill_down(const Diagnosis& diagnosis,
                         const ContextLookup& lookup) const;

  const std::vector<Diagnosis>& diagnoses() const noexcept {
    return diagnoses_;
  }

  /// The installed display configuration, so other renderers (the service
  /// plane's JSON API) can label and order causes exactly like the tables.
  const std::map<std::string, std::string>& display_names() const noexcept {
    return display_names_;
  }
  const std::vector<std::string>& display_order() const noexcept {
    return display_order_;
  }
  double mean_diagnosis_ms() const;

  /// One CSV line per diagnosis (symptom, window, location, cause, evidence
  /// list) for downstream tooling; first line is the header.
  std::string to_csv() const;

 private:
  std::string label(const std::string& event) const;

  std::vector<Diagnosis> diagnoses_;
  std::map<std::string, std::string> display_names_;
  std::vector<std::string> display_order_;
};

}  // namespace grca::core
