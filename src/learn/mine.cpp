// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "learn/mine.h"

#include <algorithm>
#include <map>

#include "util/rng.h"
#include "util/strings.h"

namespace grca::learn {

namespace {

/// The corpus-wide [start, end) window, aligned to `bin`.
bool store_window(const core::EventStoreView& store, util::TimeSec bin,
                  util::TimeSec& start, util::TimeSec& end) {
  bool any = false;
  for (const std::string& name : store.event_names()) {
    std::span<const core::EventInstance> span = store.all(name);
    if (span.empty()) continue;
    util::TimeSec lo = span.front().when.start;  // sorted by start
    util::TimeSec hi = lo;
    for (const core::EventInstance& e : span) {
      hi = std::max(hi, e.when.end);
    }
    start = any ? std::min(start, lo) : lo;
    end = any ? std::max(end, hi) : hi;
    any = true;
  }
  if (!any) return false;
  start -= ((start % bin) + bin) % bin;  // align down
  end += 1;                              // half-open, cover the last end
  return end > start;
}

/// Impulse series of per-location episode onsets. Consecutive instances at
/// the same location whose gap is within one bin are one episode (polled
/// sources re-assert a live condition every cycle); only the episode's
/// first bin is marked, so a long fault correlates like the one-shot
/// symptom onsets it causes instead of flooding the series.
core::EventSeries onset_series(std::span<const core::EventInstance> instances,
                               util::TimeSec start, util::TimeSec end,
                               util::TimeSec bin) {
  core::EventSeries series;
  series.start = start;
  series.bin = bin;
  series.values.assign(
      static_cast<std::size_t>((end - start + bin - 1) / bin), 0.0);
  std::map<core::Location, util::TimeSec> episode_end;
  for (const core::EventInstance& e : instances) {  // sorted by start
    auto [it, fresh] = episode_end.try_emplace(e.where, e.when.end);
    if (!fresh && e.when.start <= it->second + bin) {
      it->second = std::max(it->second, e.when.end);
      continue;
    }
    it->second = e.when.end;
    if (e.when.start >= start && e.when.start < end) {
      series.values[static_cast<std::size_t>((e.when.start - start) / bin)] =
          1.0;
    }
  }
  return series;
}

}  // namespace

MineOutcome mine_residue(const std::vector<core::Diagnosis>& diagnoses,
                         const core::EventStoreView& store,
                         const core::DiagnosisGraph& graph,
                         const MineOptions& options) {
  MineOutcome outcome;
  std::vector<core::EventInstance> residue;
  for (const core::Diagnosis& d : diagnoses) {
    if (d.primary() == "unknown") residue.push_back(d.symptom);
  }
  outcome.residue = residue.size();
  if (residue.empty()) return outcome;

  util::TimeSec start = 0, end = 0;
  if (!store_window(store, options.bin, start, end)) return outcome;
  core::EventSeries symptom_series =
      make_series(residue, start, end, options.bin);

  // Candidate events: everything except the root and its existing direct
  // diagnostics (those already have a rule; re-mining them is noise).
  const std::string& root = graph.root();
  std::vector<std::string> names;
  for (const std::string& name : store.event_names()) {  // sorted
    if (name == root || store.all(name).empty()) continue;
    bool covered = false;
    for (const core::DiagnosisRule& r : graph.rules_from(root)) {
      if (r.diagnostic == name) covered = true;
    }
    if (!covered) names.push_back(name);
  }

  // Per-location-type screening: each group gets its own series batch and a
  // stable, independently seeded permutation RNG, so adding events of a new
  // type never changes the verdicts inside existing groups.
  std::map<int, std::vector<std::size_t>> groups;  // type -> indices in names
  std::vector<core::LocationType> types(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    types[i] = graph.has_event(names[i])
                   ? graph.event(names[i]).location_type
                   : store.all(names[i]).front().where.type;
    groups[static_cast<int>(types[i])].push_back(i);
  }
  for (const auto& [type_tag, members] : groups) {
    core::LocationType type = static_cast<core::LocationType>(type_tag);
    std::vector<core::EventSeries> series;
    series.reserve(members.size());
    for (std::size_t i : members) {
      series.push_back(onset_series(store.all(names[i]), start, end,
                                    options.bin));
    }
    util::Rng rng(options.seed ^ util::stable_hash(core::to_string(type)));
    for (const core::RankedCorrelation& ranked :
         screen_candidates(symptom_series, series, options.nice, rng)) {
      outcome.candidates.push_back(MinedCandidate{
          names[members[ranked.index]], type, ranked.result});
    }
  }
  std::sort(outcome.candidates.begin(), outcome.candidates.end(),
            [](const MinedCandidate& a, const MinedCandidate& b) {
              if (a.result.score != b.result.score) {
                return a.result.score > b.result.score;
              }
              return a.event < b.event;
            });
  if (outcome.candidates.size() > options.max_candidates) {
    outcome.candidates.resize(options.max_candidates);
  }
  return outcome;
}

}  // namespace grca::learn
