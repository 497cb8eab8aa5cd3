// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "apps/pipeline.h"

#include "obs/span.h"

namespace grca::apps {

namespace {

/// Normalize + index under a stage span (member-init needs an expression).
collector::RecordIndex build_index(const topology::Network& net,
                                   const telemetry::RecordStream& raw,
                                   obs::FeedHealthMonitor& feed_health) {
  obs::ScopedSpan span("normalize");
  return collector::RecordIndex(
      collector::Normalizer(net, &feed_health).normalize_stream(raw));
}

}  // namespace

Pipeline::Pipeline(const topology::Network& net,
                   const telemetry::RecordStream& raw,
                   collector::ExtractOptions options,
                   std::vector<topology::RouterId> egress_observers)
    : Pipeline(net, raw, [&](const Pipeline& p) {
        auto store = std::make_shared<core::EventStore>();
        store->enable_metrics(obs::registry_ptr());
        collector::EventExtractor extractor(net, options);
        {
          obs::ScopedSpan span("extract");
          extractor.extract(p.index_.all(), *store);
        }
        if (!egress_observers.empty()) {
          obs::ScopedSpan span("extract-egress");
          extractor.extract_egress_changes(p.index_.all(), p.routing_.bgp(),
                                           egress_observers, *store);
        }
        return store;
      }) {}

Pipeline::Pipeline(const topology::Network& net,
                   const telemetry::RecordStream& raw,
                   std::shared_ptr<const core::EventStoreView> events)
    : Pipeline(net, raw, [&](const Pipeline&) { return std::move(events); }) {}

Pipeline::Pipeline(const topology::Network& net,
                   const telemetry::RecordStream& raw,
                   const StoreSource& source)
    : net_(net),
      index_(build_index(net, raw, feed_health_)),
      routing_(net),
      mapper_(net, routing_.ospf(), routing_.bgp()) {
  {
    obs::ScopedSpan span("routing-replay");
    routing_.replay(index_.all());
  }
  store_ = source(*this);
  // Gap gauges are relative to the end of the archive: a feed that went
  // quiet mid-archive shows up with a large gap here.
  if (!index_.all().empty()) {
    feed_health_.observe_clock(index_.all().back().utc);
  }
  // Sort and intern everything now, while construction is still
  // single-threaded: diagnose_all then starts from a warm store and the
  // engines' join memos key on interned ids immediately.
  store_->warm();
}

std::vector<core::Diagnosis> Pipeline::diagnose_all(core::DiagnosisGraph graph,
                                                    unsigned threads) const {
  obs::ScopedSpan span("diagnose");
  core::RcaEngine engine(std::move(graph), *store_, mapper_);
  return engine.diagnose_all(threads);
}

core::ResultBrowser::ContextLookup Pipeline::context_lookup() const {
  return [this](const core::Location& where, util::TimeSec from,
                util::TimeSec to) {
    std::vector<std::string> lines;
    for (const core::Location& r :
         mapper_.project(where, core::LocationType::kRouter, from)) {
      for (const collector::NormalizedRecord* rec :
           index_.on_router(r.a, from, to)) {
        lines.push_back(collector::render(*rec));
      }
    }
    return lines;
  };
}

}  // namespace grca::apps
