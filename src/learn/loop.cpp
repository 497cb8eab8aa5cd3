// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "learn/loop.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/span.h"

namespace grca::learn {

namespace {

std::size_t count_unknown(const std::vector<core::Diagnosis>& diagnoses) {
  std::size_t n = 0;
  for (const core::Diagnosis& d : diagnoses) n += d.primary() == "unknown";
  return n;
}

/// Loop instrumentation, resolved from the installed registry once per run
/// (all-or-nothing, like the engine's counters).
struct LoopCounters {
  obs::Counter* iterations = nullptr;
  obs::Counter* proposed = nullptr;
  obs::Counter* accepted = nullptr;
  obs::Counter* rejected = nullptr;

  LoopCounters() {
    if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
      iterations = &reg->counter("grca_learn_iterations_total");
      proposed = &reg->counter("grca_learn_candidates_proposed_total");
      accepted = &reg->counter("grca_learn_candidates_accepted_total");
      rejected = &reg->counter("grca_learn_candidates_rejected_total");
    }
  }
};

}  // namespace

LearnResult run_learn_loop(
    const apps::Pipeline& pipeline, core::DiagnosisGraph graph,
    const std::vector<sim::TruthEntry>& truth,
    const std::function<std::string(const std::string&)>& canonical,
    const LearnOptions& options) {
  LearnResult result;
  LoopCounters counters;

  // Held-out boundary: everything from the median truth timestamp on is
  // never used for acceptance *comparisons'* training side — candidates must
  // generalize past it.
  util::TimeSec split = options.holdout_split;
  if (split == 0 && !truth.empty()) {
    std::vector<util::TimeSec> times;
    times.reserve(truth.size());
    for (const sim::TruthEntry& e : truth) times.push_back(e.time);
    std::sort(times.begin(), times.end());
    split = times[times.size() / 2];
  }
  result.holdout_split = split;
  constexpr util::TimeSec kFar = std::numeric_limits<util::TimeSec>::max();
  auto holdout_f1 = [&](const std::vector<core::Diagnosis>& d) {
    return apps::score_diagnoses_window(d, truth, split, kFar, canonical,
                                        options.tolerance)
        .f1();
  };
  auto full_score = [&](const std::vector<core::Diagnosis>& d) {
    return apps::score_diagnoses(d, truth, canonical, options.tolerance);
  };

  std::vector<core::Diagnosis> diagnoses =
      pipeline.diagnose_all(graph, options.threads);
  double current_holdout = holdout_f1(diagnoses);
  result.baseline_full = full_score(diagnoses);
  result.baseline_holdout_f1 = current_holdout;
  result.baseline_unknown = count_unknown(diagnoses);

  bool budget_hit = false;
  for (std::size_t iter = 1; iter <= options.max_iterations; ++iter) {
    obs::ScopedSpan span("learn-iteration");
    if (counters.iterations) counters.iterations->inc();
    IterationReport ir;
    ir.iteration = iter;
    ir.unknown_before = count_unknown(diagnoses);

    MineOptions mine_options = options.mine;
    mine_options.seed = options.mine.seed + iter;  // fresh null per round
    MineOutcome mined =
        mine_residue(diagnoses, pipeline.store(), graph, mine_options);
    ir.mined = mined.candidates.size();

    for (const MinedCandidate& cand : mined.candidates) {
      if (result.candidates_evaluated >= options.candidate_budget) {
        budget_hit = true;
        break;
      }
      ++result.candidates_evaluated;
      if (counters.proposed) counters.proposed->inc();

      CandidateReport cr;
      cr.mined_score = cand.result.score;
      cr.mined_p = cand.result.p_value;
      cr.holdout_f1_before = current_holdout;
      cr.holdout_f1_after = current_holdout;
      auto proposed = propose_rule(pipeline.store(), pipeline.mapper(),
                                   graph, cand, options.propose);
      if (!proposed) {
        cr.rule.symptom = graph.root();
        cr.rule.diagnostic = cand.event;
        cr.verdict = "uncalibratable";
        if (counters.rejected) counters.rejected->inc();
        ir.candidates.push_back(std::move(cr));
        continue;
      }
      cr.rule = proposed->rule;
      cr.samples = proposed->calibration.samples;
      cr.coverage = proposed->calibration.coverage;

      core::DiagnosisGraph trial = graph;
      if (proposed->definition) trial.define_event(*proposed->definition);
      trial.add_rule(proposed->rule);
      std::vector<core::Diagnosis> trial_diagnoses =
          pipeline.diagnose_all(trial, options.threads);
      double after = holdout_f1(trial_diagnoses);
      cr.holdout_f1_after = after;
      if (after > current_holdout + options.accept_epsilon) {
        cr.verdict = "accepted";
        graph = std::move(trial);
        diagnoses = std::move(trial_diagnoses);
        current_holdout = after;
        result.accepted_rules.push_back(proposed->rule);
        ++ir.accepted;
        if (counters.accepted) counters.accepted->inc();
      } else {
        cr.verdict = "rejected";
        if (counters.rejected) counters.rejected->inc();
      }
      ir.candidates.push_back(std::move(cr));
    }

    ir.full = full_score(diagnoses);
    ir.holdout_f1 = current_holdout;
    bool converged = ir.accepted == 0 && !budget_hit;
    result.iterations.push_back(std::move(ir));
    if (budget_hit) {
      result.stop_reason = "candidate-budget";
      break;
    }
    if (converged) {
      result.stop_reason = "converged";
      break;
    }
  }
  if (result.stop_reason.empty()) result.stop_reason = "max-iterations";

  result.final_full = full_score(diagnoses);
  result.final_holdout_f1 = current_holdout;
  result.final_unknown = count_unknown(diagnoses);
  result.final_graph = std::move(graph);
  return result;
}

}  // namespace grca::learn
