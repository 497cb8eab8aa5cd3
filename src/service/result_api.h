// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The result-browser query API: value-type snapshots of diagnoses and the
// JSON renderers behind the service plane's /api/* endpoints.
//
// Two design rules anchor this module:
//
//  1. *Value types only.* A core::Diagnosis holds `const EventInstance*`
//     pointers into the event store's buckets, which reallocate as a
//     streaming store grows — unshareable with concurrent HTTP threads.
//     ApiItem deep-copies everything a query endpoint needs at publish time
//     (on the ingest thread, while the pointers are valid); after that the
//     snapshot is immutable plain data with no lifetime ties to the engine.
//
//  2. *One renderer per endpoint.* The live server, the offline
//     `grca serve --api-dump` files and the tests all call these exact
//     functions, so "the live API equals the offline report" is enforced
//     byte for byte by construction — the CI smoke job diffs the two.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/result_browser.h"
#include "obs/feed_health.h"
#include "util/time.h"

namespace grca::service {

/// One deep-copied evidence instance (event occurrence backing a verdict).
struct ApiInstance {
  util::TimeInterval when;
  std::string location;  // Location::key() form
};

/// One evidenced diagnosis-graph node of an item (depth 0 = the symptom
/// itself is omitted; only diagnostic evidence is kept).
struct ApiEvidence {
  std::string event;
  int priority = 0;
  int depth = 0;
  std::vector<ApiInstance> instances;
};

/// One diagnosis, flattened to values. The unit the query API serves.
struct ApiItem {
  std::string symptom;    // symptom event name
  util::TimeInterval when;
  std::string location;   // symptom Location::key()
  std::string primary;    // root-cause event name ("unknown" = no evidence)
  int priority = 0;       // priority of the winning cause (0 when unknown)
  double elapsed_ms = 0.0;
  std::vector<ApiEvidence> evidence;
};

/// Deep-copies one diagnosis into the value form (ingest thread only — the
/// diagnosis' instance pointers must still be valid).
ApiItem to_api_item(const core::Diagnosis& diagnosis);

/// Display configuration shared with the offline ResultBrowser reports:
/// human labels per cause and the fixed breakdown row order.
struct DisplayConfig {
  std::map<std::string, std::string> names;
  std::vector<std::string> order;

  const std::string& label(const std::string& event) const;

  /// Captures the configuration a study installed into a ResultBrowser, so
  /// the live API and the offline tables agree on labels and row order.
  static DisplayConfig from_browser(const core::ResultBrowser& browser);
};

/// Time-window and location filter parsed from query parameters:
///   from=SEC, to=SEC   — keep items whose symptom interval overlaps
///                        [from, to] (either bound may be absent);
///   location=SUBSTR    — keep items whose location key contains SUBSTR;
///   cause=NAME         — keep items whose primary cause equals NAME.
struct QueryFilter {
  std::optional<util::TimeSec> from;
  std::optional<util::TimeSec> to;
  std::string location;
  std::string cause;

  bool matches(const ApiItem& item) const;
  /// Selects the matching subset (pointers into `items`).
  std::vector<const ApiItem*> apply(const std::vector<ApiItem>& items) const;

  /// Parses the query-parameter map. A bound must be wholly an integer
  /// ("5x" is refused, not read as 5): anything else throws ParseError
  /// naming the parameter (the server answers 400).
  static QueryFilter parse(const std::map<std::string, std::string>& query);
};

/// GET /api/breakdown — count and percentage per root cause, rows in
/// core::breakdown_order, as ResultBrowser::breakdown prints them.
std::string render_breakdown(const std::vector<ApiItem>& items,
                             const QueryFilter& filter,
                             const DisplayConfig& display);

/// GET /api/trending — daily counts per root cause (core::trend_cell, as
/// ResultBrowser::trend buckets them), cells ordered by (day, cause).
std::string render_trending(const std::vector<ApiItem>& items,
                            const QueryFilter& filter,
                            const DisplayConfig& display);

/// GET /api/drilldown/{cause} — every matching diagnosis with its full
/// evidence chain ("unknown" selects evidence-free symptoms). `limit` caps
/// the rendered matches (the count reported is always the full total).
std::string render_drilldown(const std::vector<ApiItem>& items,
                             const QueryFilter& filter,
                             const DisplayConfig& display,
                             const std::string& cause, std::size_t limit);

/// GET /api/health — per-source feed health plus the active-alarm count.
std::string render_health(
    const std::vector<obs::FeedHealthMonitor::Status>& feeds,
    util::TimeSec stream_now, std::size_t alarms_active);

}  // namespace grca::service
