// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The end-to-end RCA-side pipeline (paper Fig. 1, right half): raw telemetry
// -> Data Collector (normalize + index) -> route-monitor replay -> retrieval
// processes -> event store, with the LocationMapper wired over the
// config-derived network and the rebuilt routing view. Every application
// runs on top of one Pipeline instance.
#pragma once

#include <functional>
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

  /// Store mode: diagnosis reads `events` (e.g. a
  /// storage::PersistentEventStore opened from disk) instead of re-extracting
  /// them. The raw stream is still normalized and replayed to rebuild the
  /// routing view the LocationMapper joins against — that is collector
  /// state, not event state — but extraction (the expensive part of ingest)
  /// is skipped. Diagnosis over a store persisted from the same corpus is
  /// byte-identical to the extracting constructor's.
  Pipeline(const topology::Network& net, const telemetry::RecordStream& raw,
           std::shared_ptr<const core::EventStoreView> events);

  const topology::Network& network() const noexcept { return net_; }
  const collector::RecordIndex& index() const noexcept { return index_; }
  const collector::RebuiltRouting& routing() const noexcept { return routing_; }
  /// The event store diagnosis runs against: the one extraction built, or
  /// the one handed to the store-mode constructor.
  const core::EventStoreView& store() const noexcept { return *store_; }
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

 private:
  /// Builds or opens the event store once normalize and routing replay
  /// have run.
  using StoreSource =
      std::function<std::shared_ptr<const core::EventStoreView>(
          const Pipeline&)>;

  /// The path both public constructors share: normalize -> routing replay
  /// -> `source` -> feed-health clock -> warm.
  Pipeline(const topology::Network& net, const telemetry::RecordStream& raw,
           const StoreSource& source);

  const topology::Network& net_;
  obs::FeedHealthMonitor feed_health_;  // must precede index_ (normalizer
                                        // reports into it during ingest)
  collector::RecordIndex index_;
  collector::RebuiltRouting routing_;
  std::shared_ptr<const core::EventStoreView> store_;
  core::LocationMapper mapper_;
};

}  // namespace grca::apps
