// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The retrieval processes (paper §II-A): turn normalized records into event
// instances. "A type of event can be extracted from raw input data through a
// parsing script, a database query, or some more sophisticated processing" —
// here: syslog message parsers, SNMP threshold queries, down/up flap
// pairing, OSPF cost-in/out inference, and BGP egress-change detection via
// decision-process emulation.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "collector/normalized.h"
#include "core/event_store.h"
#include "routing/bgp.h"
#include "topology/network.h"

namespace grca::collector {

/// Thresholds for the query-style retrieval processes. Applications may
/// redefine them ("the event 'link congestion alarm' ... can be easily
/// redefined as >= 90% link utilization when needed", §II-A).
struct ExtractOptions {
  double cpu_avg_threshold = 80.0;      // % (Table I: CPU high average)
  double util_threshold = 80.0;         // % (Table I: link congestion alarm)
  double corrupt_threshold = 100.0;     // packets (Table I: link loss alarm)
  double rtt_threshold = 100.0;         // ms (CDN RTT increase)
  double tput_threshold = 100.0;        // Mb/s (CDN throughput drop: below)
  double delay_threshold = 50.0;        // ms (in-network delay increase)
  double loss_threshold = 1.0;          // % (in-network loss increase)
  double innet_tput_threshold = 500.0;  // Mb/s (in-network throughput drop)
  double server_load_threshold = 0.9;   // CDN server issue
  util::TimeSec flap_pair_window = 3600;   // max down->up gap for flaps
  util::TimeSec router_cost_window = 30;   // grouping window, router cost in/out
  /// bgp-prefix-flood retrieval: an eBGP session announcing at least
  /// `prefix_flood_count` prefixes within `prefix_flood_window` seconds is a
  /// route-leak signature (normal reflector traffic never bursts that hard).
  int prefix_flood_count = 15;
  util::TimeSec prefix_flood_window = 120;
};

/// The retrieval processes as a fold over normalized records. Batch and
/// streaming extraction share it: a batch run observes a whole corpus and
/// emits once, the streaming engine observes each record as it arrives and
/// emits at every freeze cut.
///
/// Fold contract:
/// - observe(record) runs every retrieval on the record once. Per-record
///   retrievals (syslog notifications, SNMP/perf/CDN/server thresholds,
///   TACACS commands, workflow, layer-1) build their instances right away.
///   Stateful retrievals file the record into per-key sequences kept sorted,
///   so records may be observed in any order: down/up observations per flap
///   key, OSPF metric readings (cost transitions), BGP announce times per
///   session (prefix floods).
/// - emit(cut, out) appends every instance not emitted yet whose start lies
///   before `cut`, deciding the stateful ones from the observations made so
///   far. Each instance is built and emitted exactly once.
/// - extract(records, store) is a fresh fold: observe every record, then
///   emit everything.
///
/// Emit order: event names in sorted order; within a name, start time; and
/// equal starts in the order a single pass over normalize_stream-ordered
/// records derives them. That is record order (normalized_order, then the
/// instance's place within its record) for per-record retrievals, key order
/// for pairings and floods, and cost-event order for cost inference. Each
/// emit's output therefore appends to EventStore buckets in sorted order.
///
/// Exactness: every stateful decision is local, so emitting it once, at the
/// first cut past its start, from the observations made by then, gives what
/// one pass over all those records gives.
/// - Flaps: a down D pairs iff the next observation of its key, in (time,
///   down-before-up) order, is an up no later than D + flap_pair_window. The
///   flap starts at D, so it is decided when D's instance is.
/// - Prefix floods: within a chain of announces no more than
///   prefix_flood_window apart, the flood starts at the first announce
///   followed by prefix_flood_count - 1 more inside the window, and runs to
///   the chain's last announce observed when it is emitted.
/// - Cost inference: a reading is a cost-out (cost-in) transition iff the
///   link's previous reading was in (out); the previous metric per link is
///   carried across emits. Transitions are decided router_cost_window ahead
///   of the cut, so grouping a cost event into a router-wide change sees
///   its whole window; a router-wide change claims the link events it
///   groups, and an event no earlier event claimed is a link event.
/// So a sequence of emits equals one batch pass over the same records when
/// (a) every record observed after emit(cut) is later than `cut`, and (b)
/// each emit comes after every record within flap_pair_window,
/// router_cost_window and prefix_flood_window past its cut was observed. A
/// flood's end is its chain's last announce observed by its emit. The
/// streaming engine's late-drop rule gives (a); its freeze horizon, which
/// exceeds max_skew plus those windows by default, gives (b).
class EventExtractor {
 public:
  explicit EventExtractor(const topology::Network& net,
                          ExtractOptions options = {});
  ~EventExtractor();

  /// Runs every retrieval on one record; see the fold contract above.
  void observe(const NormalizedRecord& record);

  /// Appends to `out` every instance not emitted yet that starts before
  /// `cut`, in emit order, and publishes the records observed since the last
  /// emit to `grca_extract_records_total`.
  void emit(util::TimeSec cut, std::vector<core::EventInstance>& out);

  /// Runs every retrieval process over the records (any order) with a fresh
  /// fold, adding every instance to `store` in emit order.
  void extract(std::span<const NormalizedRecord> records,
               core::EventStore& store) const;

  /// Detects bgp-egress-change events: for each BGP update, emulates the
  /// decision process at every observer router and emits an event when the
  /// best egress for the touched prefix changes (§II-B utility 1).
  void extract_egress_changes(std::span<const NormalizedRecord> records,
                              const routing::BgpSim& bgp,
                              const std::vector<topology::RouterId>& observers,
                              core::EventStore& store) const;

  const ExtractOptions& options() const noexcept { return options_; }

 private:
  /// The fold's state across observe() and emit() calls (extract.cpp).
  struct Fold;

  const topology::Network& net_;
  ExtractOptions options_;
  std::unique_ptr<Fold> fold_;
};

}  // namespace grca::collector
