// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The end-to-end RCA-side pipeline (paper Fig. 1, right half): raw telemetry
// -> Data Collector (normalize + index) -> route-monitor replay -> retrieval
// processes -> event store, with the LocationMapper wired over the
// config-derived network and the rebuilt routing view. Every application
// runs on top of one Pipeline instance.
#pragma once

#include <memory>
#include <vector>

#include "collector/extract.h"
#include "collector/normalizer.h"
#include "collector/record_index.h"
#include "collector/routing_rebuild.h"
#include "core/engine.h"
#include "core/location.h"
#include "core/result_browser.h"
#include "obs/feed_health.h"

namespace grca::apps {

class Pipeline {
 public:
  /// Ingests a raw stream against the (config-derived) network.
  /// `egress_observers` are the routers at which BGP egress changes are
  /// evaluated (e.g. CDN ingress routers); empty disables that extraction.
  Pipeline(const topology::Network& net, const telemetry::RecordStream& raw,
           collector::ExtractOptions options = {},
           std::vector<topology::RouterId> egress_observers = {});

  /// External-store mode: events come from `events` (e.g. a
  /// storage::PersistentEventStore opened from disk) instead of being
  /// re-extracted from the raw stream. The raw stream is still replayed to
  /// rebuild the routing view the LocationMapper joins against — that is
  /// collector state, not event state — but the extraction stage (the
  /// expensive part of ingest) is skipped entirely. Diagnosis over the
  /// external view is byte-identical to a fresh-extraction run over the
  /// same corpus.
  Pipeline(const topology::Network& net, const telemetry::RecordStream& raw,
           std::shared_ptr<const core::EventStoreView> events);

  const topology::Network& network() const noexcept { return net_; }
  const collector::RecordIndex& index() const noexcept { return index_; }
  const collector::RebuiltRouting& routing() const noexcept { return routing_; }
  core::EventStore& store() noexcept { return store_; }
  const core::EventStore& store() const noexcept { return store_; }
  /// The event view diagnosis runs against: the external store when one
  /// was supplied, the pipeline's own in-memory store otherwise.
  const core::EventStoreView& events() const noexcept {
    return external_ ? *external_ : store_;
  }
  const core::LocationMapper& mapper() const noexcept { return mapper_; }

  /// Per-source ingest health, accumulated while the archive was replayed
  /// (counts, rejects, arrival-lag distribution, end-of-archive gaps).
  const obs::FeedHealthMonitor& feed_health() const noexcept {
    return feed_health_;
  }

  /// Drill-down context source for the Result Browser: raw records on the
  /// routers spanned by a location.
  core::ResultBrowser::ContextLookup context_lookup() const;

  /// Runs one application's full RCA over this pipeline's store, fanning
  /// per-symptom diagnosis out over `threads` workers (0 = hardware
  /// concurrency, 1 = serial). The result is identical — same diagnoses,
  /// same order — for every thread count.
  std::vector<core::Diagnosis> diagnose_all(core::DiagnosisGraph graph,
                                            unsigned threads = 0) const;

  /// Per-application fan-out: diagnoses several applications' graphs
  /// concurrently on one pool over the shared store. Results are returned
  /// in input order, each identical to a serial diagnose_all of that graph.
  std::vector<std::vector<core::Diagnosis>> diagnose_apps(
      std::vector<core::DiagnosisGraph> graphs, unsigned threads = 0) const;

 private:
  const topology::Network& net_;
  obs::FeedHealthMonitor feed_health_;  // must precede index_ (normalizer
                                        // reports into it during ingest)
  collector::RecordIndex index_;
  collector::RebuiltRouting routing_;
  core::EventStore store_;
  std::shared_ptr<const core::EventStoreView> external_;  // may be null
  core::LocationMapper mapper_;
};

}  // namespace grca::apps
