// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "util/fork_join.h"

namespace grca::core {

namespace {
const std::string kUnknownLabel = "unknown";
}

const std::string& Diagnosis::primary() const noexcept {
  return causes.empty() ? kUnknownLabel : causes.front().event;
}

bool Diagnosis::has_evidence(const std::string& event) const noexcept {
  if (!evidence_index.empty()) return evidence_index.count(event) > 0;
  for (const EvidenceNode& n : evidence) {
    if (n.event == event) return true;
  }
  return false;
}

RcaEngine::RcaEngine(DiagnosisGraph graph, const EventStoreView& store,
                     const LocationMapper& mapper)
    : graph_(std::move(graph)),
      store_(store),
      mapper_(mapper) {
  graph_.validate();
  memos_.emplace_back(mapper, store.locations());
  if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
    diagnoses_total_ = &reg->counter("grca_engine_diagnoses_total");
    rule_evals_total_ = &reg->counter("grca_engine_rule_evals_total");
    evidence_matches_total_ =
        &reg->counter("grca_engine_evidence_matches_total");
    join_hits_total_ = &reg->counter("grca_join_cache_hits");
    join_misses_total_ = &reg->counter("grca_join_cache_misses");
    spf_lookups_total_ = &reg->counter("grca_spf_lookups_total");
    spf_runs_total_ = &reg->counter("grca_spf_runs_total");
    diagnosis_seconds_ = &reg->histogram("grca_engine_diagnosis_seconds");
  }
}

JoinMemo::Stats RcaEngine::join_stats() const noexcept {
  JoinMemo::Stats sum;
  for (const JoinMemo& memo : memos_) {
    sum.hits += memo.stats().hits;
    sum.misses += memo.stats().misses;
  }
  return sum;
}

void RcaEngine::join(const EventInstance& anchor, const DiagnosisRule& rule,
                     JoinMemo& memo, JoinScratch& scratch) const {
  // Conservative candidate window: an instance [a, b] can only join when it
  // overlaps the symptom's expanded window widened by the diagnostic-side
  // margins (see temporal.h for the expansion algebra).
  util::TimeInterval s = rule.temporal.symptom.expand(anchor.when);
  util::TimeSec slack = std::abs(rule.temporal.diagnostic.left) +
                        std::abs(rule.temporal.diagnostic.right);
  store_.query_into(rule.diagnostic, s.start - slack, s.end + slack,
                    scratch.candidates);
  scratch.result.clear();
  if (join_cache_enabled_) {
    // Spatial verdicts are a function of (anchor location, candidate
    // location, level, anchor start) — fixed here except the candidate
    // location, so candidates sharing one are grouped and decided once,
    // through the worker's epoch-stamped join memo.
    const LocId anchor_id = memo.id_of(anchor);
    const util::TimeSec at = anchor.when.start;
    scratch.verdicts.clear();
    for (const EventInstance* cand : scratch.candidates) {
      if (cand == &anchor) continue;  // an instance never explains itself
      if (!rule.temporal.joined(anchor.when, cand->when)) continue;
      const LocId cand_id = memo.id_of(*cand);
      auto [it, fresh] = scratch.verdicts.try_emplace(cand_id, false);
      if (fresh) {
        it->second = memo.joins(anchor_id, cand_id, rule.join_level, at);
      }
      if (it->second) scratch.result.push_back(cand);
    }
    return;
  }
  for (const EventInstance* cand : scratch.candidates) {
    if (cand == &anchor) continue;  // an instance never explains itself
    if (!rule.temporal.joined(anchor.when, cand->when)) continue;
    if (!mapper_.joins(anchor.where, cand->where, rule.join_level,
                       anchor.when.start)) {
      continue;
    }
    scratch.result.push_back(cand);
  }
}

Diagnosis RcaEngine::diagnose(const EventInstance& symptom) {
  const routing::OspfSim::SpfStats spf_before = mapper_.ospf().spf_stats();
  Diagnosis result = diagnose_with(symptom, memos_.front());
  publish_spf(spf_before);
  return result;
}

void RcaEngine::publish_spf(const routing::OspfSim::SpfStats& before) const {
  if (!diagnoses_total_) return;
  const routing::OspfSim::SpfStats after = mapper_.ospf().spf_stats();
  spf_lookups_total_->inc(after.lookups - before.lookups);
  spf_runs_total_->inc(after.runs - before.runs);
}

Diagnosis RcaEngine::diagnose_with(const EventInstance& symptom,
                                   JoinMemo& memo) const {
  auto t0 = std::chrono::steady_clock::now();
  if (symptom.name != graph_.root()) {
    throw ConfigError("diagnose: symptom '" + symptom.name +
                      "' does not match graph root '" + graph_.root() + "'");
  }
  // The cached join path keys on interned where_ids, which warm() fills in;
  // on an already-warm store this is a read-only flag sweep, so concurrent
  // workers (whose store diagnose_all warmed up front) stay race-free.
  if (join_cache_enabled_) store_.warm();
  const JoinMemo::Stats memo_before = memo.stats();
  JoinScratch scratch;
  Diagnosis result;
  result.symptom = symptom;

  // BFS over the graph; a node is evidenced when at least one of its
  // instances joins an instance of an evidenced parent. The root node keeps
  // an empty instance list (pointers must stay valid after this call
  // returns, so we never store the address of a local); BFS anchors the root
  // on the `symptom` argument directly.
  std::unordered_map<std::string, std::size_t> node_index;
  auto& nodes = result.evidence;
  nodes.push_back(EvidenceNode{symptom.name, {}, 0, 0});
  node_index.emplace(symptom.name, 0);
  // Set-of-pointers twin of each node's instance vector (and of `matched`
  // below), so duplicate-instance checks are O(1) instead of a linear
  // std::find over vectors that can grow large on busy symptoms.
  std::vector<std::unordered_set<const EventInstance*>> node_instance_sets(1);
  std::deque<std::size_t> frontier = {0};
  std::unordered_set<std::string> has_evidenced_child;
  // Accumulated locally and published once at the end (as are the memo's
  // hits and misses) — the BFS loop stays free of shared-memory traffic.
  std::uint64_t rule_evals = 0;
  std::uint64_t evidence_matches = 0;

  while (!frontier.empty()) {
    std::size_t parent_idx = frontier.front();
    frontier.pop_front();
    // Copy what we need: nodes may reallocate as children are appended.
    const std::string parent_name = nodes[parent_idx].event;
    std::vector<const EventInstance*> parent_instances =
        nodes[parent_idx].instances;
    if (parent_idx == 0) parent_instances.assign(1, &symptom);
    const int parent_depth = nodes[parent_idx].depth;
    for (const DiagnosisRule& rule : graph_.rules_from(parent_name)) {
      ++rule_evals;
      std::vector<const EventInstance*> matched;
      std::unordered_set<const EventInstance*> matched_set;
      for (const EventInstance* anchor : parent_instances) {
        join(*anchor, rule, memo, scratch);
        for (const EventInstance* inst : scratch.result) {
          if (matched_set.insert(inst).second) matched.push_back(inst);
        }
      }
      if (matched.empty()) continue;
      evidence_matches += matched.size();
      has_evidenced_child.insert(parent_name);
      auto it = node_index.find(rule.diagnostic);
      if (it == node_index.end()) {
        node_index.emplace(rule.diagnostic, nodes.size());
        nodes.push_back(EvidenceNode{rule.diagnostic, std::move(matched),
                                     rule.priority, parent_depth + 1});
        node_instance_sets.push_back(std::move(matched_set));
        frontier.push_back(nodes.size() - 1);
      } else {
        EvidenceNode& node = nodes[it->second];
        std::unordered_set<const EventInstance*>& seen =
            node_instance_sets[it->second];
        for (const EventInstance* inst : matched) {
          if (seen.insert(inst).second) node.instances.push_back(inst);
        }
        if (rule.priority > node.priority) node.priority = rule.priority;
        // Re-explore from this node so deeper evidence is reachable through
        // the new instances as well.
        frontier.push_back(it->second);
      }
    }
  }

  // Rule-based reasoning: evidenced leaves, ranked by priority.
  int best = -1;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (has_evidenced_child.count(nodes[i].event)) continue;
    best = std::max(best, nodes[i].priority);
  }
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (has_evidenced_child.count(nodes[i].event)) continue;
    if (nodes[i].priority != best) continue;
    result.causes.push_back(
        RootCause{nodes[i].event, nodes[i].priority, nodes[i].instances});
  }
  std::sort(result.causes.begin(), result.causes.end(),
            [](const RootCause& a, const RootCause& b) {
              return a.event < b.event;
            });

  result.evidence_index.reserve(nodes.size());
  for (const EvidenceNode& n : nodes) result.evidence_index.insert(n.event);

  result.elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  if (diagnoses_total_) {
    diagnoses_total_->inc();
    rule_evals_total_->inc(rule_evals);
    evidence_matches_total_->inc(evidence_matches);
    join_hits_total_->inc(memo.stats().hits - memo_before.hits);
    join_misses_total_->inc(memo.stats().misses - memo_before.misses);
    diagnosis_seconds_->observe(result.elapsed_ms / 1000.0);
  }
  return result;
}

std::vector<Diagnosis> RcaEngine::diagnose_all(unsigned threads) {
  std::span<const EventInstance> symptoms = store_.all(graph_.root());
  const std::size_t n = symptoms.size();
  std::vector<Diagnosis> out(n);
  if (threads == 0) threads = util::hardware_threads();
  const unsigned workers =
      static_cast<unsigned>(std::clamp<std::size_t>(n, 1, threads));
  // Pay every lazy bucket sort from this thread; afterwards all store
  // queries issued by the workers are read-only.
  store_.warm();
  while (memos_.size() < workers) {
    memos_.emplace_back(mapper_, store_.locations());
  }
  // Workers claim contiguous chunks, about four per worker, from one
  // counter. Neighbouring symptoms tend to share an incident, so a chunk
  // keeps their repeated joins inside one memo.
  const std::size_t chunk = (n + 4 * workers - 1) / (4 * workers);
  const routing::OspfSim::SpfStats spf_before = mapper_.ospf().spf_stats();
  std::atomic<std::size_t> next{0};
  util::fork_join(workers, [&](unsigned w) {
    JoinMemo& memo = memos_[w];
    for (std::size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
         lo < n; lo = next.fetch_add(chunk, std::memory_order_relaxed)) {
      for (std::size_t i = lo; i < std::min(n, lo + chunk); ++i) {
        out[i] = diagnose_with(symptoms[i], memo);
      }
    }
  });
  publish_spf(spf_before);
  return out;
}

}  // namespace grca::core
