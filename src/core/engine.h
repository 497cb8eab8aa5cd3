// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The Generic RCA Engine (paper Fig. 1): for each symptom event instance it
// walks the application's diagnosis graph, performing temporal-spatial
// correlation against the event store at every edge, then applies rule-based
// reasoning — the evidenced leaf reached through the highest-priority edge
// is the root cause; ties are reported as joint causes.
#pragma once

#include <chrono>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/diagnosis_graph.h"
#include "core/event_store.h"
#include "core/join_memo.h"
#include "core/location.h"
#include "obs/metrics.h"

namespace grca::core {

/// One evidenced node of the diagnosis graph for a given symptom.
struct EvidenceNode {
  std::string event;                             // node (event) name
  std::vector<const EventInstance*> instances;   // joined instances
  int priority = 0;   // max priority over evidenced incoming edges
  int depth = 0;      // distance from the root symptom
};

/// A diagnosed root cause (possibly joint when priorities tie).
struct RootCause {
  std::string event;
  int priority = 0;
  std::vector<const EventInstance*> instances;
};

/// The result of diagnosing one symptom instance.
struct Diagnosis {
  EventInstance symptom;
  std::vector<EvidenceNode> evidence;  // every evidenced node, BFS order
  std::vector<RootCause> causes;       // max-priority leaves; empty = unknown
  /// Event names in `evidence`, maintained by the engine for O(1)
  /// has_evidence lookups. Hand-built diagnoses may leave it empty;
  /// has_evidence then falls back to scanning `evidence`.
  std::unordered_set<std::string> evidence_index;
  double elapsed_ms = 0.0;

  /// The headline root-cause label: the single (or first joint) cause event
  /// name, or "unknown" when no diagnostic evidence joined.
  const std::string& primary() const noexcept;

  /// True when `event` appears among the evidenced nodes.
  bool has_evidence(const std::string& event) const noexcept;
};

class RcaEngine {
 public:
  /// The engine reads events from `store` — extracted in memory or loaded
  /// from a persisted log, with identical results — and resolves spatial
  /// joins through `mapper`; both must outlive the engine. The diagnosis
  /// graph is copied (it is small configuration data; owning it removes a
  /// lifetime trap for callers that build graphs inline).
  RcaEngine(DiagnosisGraph graph, const EventStoreView& store,
            const LocationMapper& mapper);

  /// Diagnoses a single symptom instance (its name must equal graph root)
  /// through the engine's first join memo, so repeated calls reuse each
  /// other's spatial verdicts. One caller at a time: the memo is not
  /// synchronized. The graph, store, mapper and routing simulators are only
  /// read.
  Diagnosis diagnose(const EventInstance& symptom);

  /// Diagnoses every stored instance of the root symptom event. The store
  /// is warmed first so queries are read-only; with threads > 1 the
  /// symptoms are fanned out over that many workers (0 means hardware
  /// concurrency), the caller being worker 0, each worker with its own join
  /// memo kept for the engine's lifetime. The result is identical — same
  /// diagnoses, same order — for every thread count. One caller at a time.
  std::vector<Diagnosis> diagnose_all(unsigned threads = 1);

  const DiagnosisGraph& graph() const noexcept { return graph_; }

  /// Enables/disables the memoized spatial-join layer (enabled by default).
  /// The uncached path is the reference implementation the memo must match
  /// byte for byte; benches and the cache-correctness tests flip this.
  /// Not to be called during a diagnosis.
  void set_join_cache_enabled(bool enabled) noexcept {
    join_cache_enabled_ = enabled;
  }
  bool join_cache_enabled() const noexcept { return join_cache_enabled_; }

  /// Join-memo hits and misses summed over every worker's memo, since
  /// construction (for benches and tests; not during a diagnosis).
  JoinMemo::Stats join_stats() const noexcept;

 private:
  /// Reused per diagnose() call so the hot join loop performs no
  /// allocations in steady state: candidate pointers from query_into, the
  /// join result, and the per-anchor verdict-by-location memo (candidates
  /// sharing a location are decided once per anchor).
  struct JoinScratch {
    std::vector<const EventInstance*> candidates;
    std::vector<const EventInstance*> result;
    std::unordered_map<LocId, bool> verdicts;
  };

  /// Fills scratch.result with the instances of `rule.diagnostic` joined
  /// with `anchor` under the rule.
  void join(const EventInstance& anchor, const DiagnosisRule& rule,
            JoinMemo& memo, JoinScratch& scratch) const;

  /// diagnose() through `memo`; safe to run concurrently with other memos
  /// once the store is warm.
  Diagnosis diagnose_with(const EventInstance& symptom, JoinMemo& memo) const;

  /// Adds the mapper's SPF lookups and runs since `before` to the registry
  /// counters: the simulator's tallies are shared by every worker, so they
  /// are published once per diagnose() or diagnose_all() call.
  void publish_spf(const routing::OspfSim::SpfStats& before) const;

  const DiagnosisGraph graph_;
  const EventStoreView& store_;
  const LocationMapper& mapper_;
  /// One memo per worker index; deque growth never moves a memo.
  std::deque<JoinMemo> memos_;
  bool join_cache_enabled_ = true;

  // Engine instrumentation, resolved from the installed registry at
  // construction (all-or-nothing: checking one pointer covers the set).
  // Counters are sharded atomics, so the parallel fan-out's workers update
  // them race-free; each diagnosis publishes its tallies once at its end.
  obs::Counter* diagnoses_total_ = nullptr;
  obs::Counter* rule_evals_total_ = nullptr;
  obs::Counter* evidence_matches_total_ = nullptr;
  obs::Counter* join_hits_total_ = nullptr;
  obs::Counter* join_misses_total_ = nullptr;
  obs::Counter* spf_lookups_total_ = nullptr;
  obs::Counter* spf_runs_total_ = nullptr;
  obs::Histogram* diagnosis_seconds_ = nullptr;
};

}  // namespace grca::core
