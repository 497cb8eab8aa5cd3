// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "core/engine.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "util/thread_pool.h"

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
      mapper_(mapper),
      join_cache_(std::make_unique<JoinCache>(mapper, store.locations())) {
  graph_.validate();
  if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
    diagnoses_total_ = &reg->counter("grca_engine_diagnoses_total");
    rule_evals_total_ = &reg->counter("grca_engine_rule_evals_total");
    evidence_matches_total_ =
        &reg->counter("grca_engine_evidence_matches_total");
    diagnosis_seconds_ = &reg->histogram("grca_engine_diagnosis_seconds");
  }
}

void RcaEngine::join(const EventInstance& anchor, const DiagnosisRule& rule,
                     JoinScratch& scratch) const {
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
    // through the epoch-stamped JoinCache memo.
    const LocId anchor_id = join_cache_->id_of(anchor);
    const util::TimeSec at = anchor.when.start;
    scratch.verdicts.clear();
    for (const EventInstance* cand : scratch.candidates) {
      if (cand == &anchor) continue;  // an instance never explains itself
      if (!rule.temporal.joined(anchor.when, cand->when)) continue;
      const LocId cand_id = join_cache_->id_of(*cand);
      auto [it, fresh] = scratch.verdicts.try_emplace(cand_id, false);
      if (fresh) {
        it->second =
            join_cache_->joins(anchor_id, cand_id, rule.join_level, at);
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

Diagnosis RcaEngine::diagnose(const EventInstance& symptom) const {
  auto t0 = std::chrono::steady_clock::now();
  if (symptom.name != graph_.root()) {
    throw ConfigError("diagnose: symptom '" + symptom.name +
                      "' does not match graph root '" + graph_.root() + "'");
  }
  // The cached join path keys on interned where_ids, which warm() fills in;
  // on an already-warm store this is a read-only flag sweep, so concurrent
  // diagnose() calls (whose stores are warmed up front) stay race-free.
  if (join_cache_enabled_) store_.warm();
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
  // Accumulated locally, published as two atomic adds at the end — the BFS
  // loop stays free of shared-memory traffic.
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
        join(*anchor, rule, scratch);
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
    diagnosis_seconds_->observe(result.elapsed_ms / 1000.0);
  }
  return result;
}

std::vector<Diagnosis> RcaEngine::diagnose_all(unsigned threads) const {
  std::span<const EventInstance> symptoms = store_.all(graph_.root());
  std::vector<Diagnosis> out(symptoms.size());
  if (threads == 0) threads = util::ThreadPool::default_threads();
  if (threads <= 1 || symptoms.size() < 2) {
    for (std::size_t i = 0; i < symptoms.size(); ++i) {
      out[i] = diagnose(symptoms[i]);
    }
    return out;
  }
  // Pay every lazy bucket sort from this thread; afterwards all store
  // queries issued by the workers are read-only.
  store_.warm();
  util::ThreadPool pool(
      static_cast<unsigned>(std::min<std::size_t>(threads, symptoms.size())));
  pool.parallel_for(0, symptoms.size(),
                    [&](std::size_t i) { out[i] = diagnose(symptoms[i]); });
  return out;
}

}  // namespace grca::core
