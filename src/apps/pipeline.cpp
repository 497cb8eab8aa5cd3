// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "apps/pipeline.h"

#include "obs/span.h"
#include "util/thread_pool.h"

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
    : net_(net),
      index_(build_index(net, raw, feed_health_)),
      routing_(net),
      mapper_(net, routing_.ospf(), routing_.bgp()) {
  {
    obs::ScopedSpan span("routing-replay");
    routing_.replay(index_.all());
  }
  store_.enable_metrics(obs::registry_ptr());
  collector::EventExtractor extractor(net, options);
  {
    obs::ScopedSpan span("extract");
    extractor.extract(index_.all(), store_);
  }
  if (!egress_observers.empty()) {
    obs::ScopedSpan span("extract-egress");
    extractor.extract_egress_changes(index_.all(), routing_.bgp(),
                                     egress_observers, store_);
  }
  // Gap gauges are relative to the end of the archive: a feed that went
  // quiet mid-archive shows up with a large gap here.
  if (!index_.all().empty()) {
    feed_health_.observe_clock(index_.all().back().utc);
  }
  // Sort and intern everything now, while construction is still
  // single-threaded: diagnose_all/diagnose_apps then start from a warm
  // store and the engines' join caches key on interned ids immediately.
  // (Callers adding more events via store() just re-dirty the buckets.)
  store_.warm();
}

Pipeline::Pipeline(const topology::Network& net,
                   const telemetry::RecordStream& raw,
                   std::shared_ptr<const core::EventStoreView> events)
    : net_(net),
      index_(build_index(net, raw, feed_health_)),
      routing_(net),
      external_(std::move(events)),
      mapper_(net, routing_.ospf(), routing_.bgp()) {
  {
    obs::ScopedSpan span("routing-replay");
    routing_.replay(index_.all());
  }
  if (!index_.all().empty()) {
    feed_health_.observe_clock(index_.all().back().utc);
  }
  external_->warm();
}

std::vector<core::Diagnosis> Pipeline::diagnose_all(core::DiagnosisGraph graph,
                                                    unsigned threads) const {
  obs::ScopedSpan span("diagnose");
  core::RcaEngine engine(std::move(graph), events(), mapper_);
  return engine.diagnose_all(threads);
}

std::vector<std::vector<core::Diagnosis>> Pipeline::diagnose_apps(
    std::vector<core::DiagnosisGraph> graphs, unsigned threads) const {
  std::vector<std::vector<core::Diagnosis>> out(graphs.size());
  if (threads == 0) threads = util::ThreadPool::default_threads();
  if (threads <= 1 || graphs.size() < 2) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      out[i] = diagnose_all(std::move(graphs[i]), threads);
    }
    return out;
  }
  // Warm once from this thread; the applications then share read-only
  // store/mapper state. Each application runs serially within its task —
  // the fan-out here is across applications.
  events().warm();
  util::ThreadPool pool(
      static_cast<unsigned>(std::min<std::size_t>(threads, graphs.size())));
  pool.parallel_for(0, graphs.size(), [&](std::size_t i) {
    core::RcaEngine engine(std::move(graphs[i]), events(), mapper_);
    out[i] = engine.diagnose_all();
  });
  return out;
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
