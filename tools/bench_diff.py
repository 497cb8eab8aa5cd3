#!/usr/bin/env python3
# Copyright (c) 2026 The G-RCA Reproduction Authors.
# SPDX-License-Identifier: MIT
"""Bench regression gate: compare fresh bench JSON reports against the
committed baselines under bench/baselines/.

Only rate-like (higher-is-better) metrics gate the build — absolute wall
times vary too much across CI runners to diff, but a throughput or a
speedup multiplier collapsing by more than the tolerance means a real
regression. The committed baselines are deliberately conservative
(recorded locally, then downscaled) so runner variance doesn't flap the
gate; the tolerance is on top of that headroom. Boolean gates (e.g.
"identical") must never flip from true to false.

Usage:
  tools/bench_diff.py --baseline-dir bench/baselines \
      --out BENCH_merged.json BENCH_storage.json BENCH_join_cache.json

Exits nonzero listing every regressed metric; always writes the merged
report (fresh + baseline + verdicts per file) for the CI artifact trail.

Reports and baselines carry "hardware_threads", the core count they were
measured on. Timings of parallel code depend on it, so a count that differs
from the baseline's is printed as a warning (never a failure): read that
file's rate verdicts with it in mind.
"""

import argparse
import json
import os
import sys

# A numeric key gates the build iff it matches one of these substrings —
# all of them are higher-is-better by construction. Accuracy metrics
# (precision/recall/f1 from the benchmark scorecard) gate the same way:
# a drop below tolerance means diagnosis quality regressed. Note "rate"
# also matches "hit_rate" and "records_per_min"-style keys do NOT gate
# unless they carry one of these substrings.
HIGHER_IS_BETTER = (
    "_per_s",
    "multiplier",
    "speedup",
    "ratio",
    "rate",
    "precision",
    "recall",
    "f1",
    "accuracy",
)


def gated_keys(report):
    for key, value in report.items():
        if isinstance(value, bool):
            yield key, value
        elif isinstance(value, (int, float)) and any(
            pat in key for pat in HIGHER_IS_BETTER
        ):
            yield key, float(value)


def compare(name, fresh, baseline, tolerance):
    """Returns a list of human-readable regression strings."""
    regressions = []
    for key, base_value in gated_keys(baseline):
        if key not in fresh:
            regressions.append(f"{name}: key '{key}' missing from fresh report")
            continue
        fresh_value = fresh[key]
        if isinstance(base_value, bool):
            if base_value and not fresh_value:
                regressions.append(f"{name}: '{key}' flipped true -> false")
            continue
        fresh_value = float(fresh_value)
        floor = base_value * (1.0 - tolerance)
        if fresh_value < floor:
            drop = 100.0 * (base_value - fresh_value) / base_value
            regressions.append(
                f"{name}: '{key}' regressed {drop:.1f}% "
                f"({fresh_value:.6g} < baseline {base_value:.6g} "
                f"- {100 * tolerance:.0f}% tolerance)"
            )
    return regressions


def core_count_warning(name, fresh, baseline):
    """A warning when fresh and baseline were measured on different core
    counts; None when they agree or either does not say."""
    fresh_cores = fresh.get("hardware_threads")
    base_cores = baseline.get("hardware_threads")
    if fresh_cores is None or base_cores is None or fresh_cores == base_cores:
        return None
    return (f"{name}: measured on {fresh_cores} hardware threads, "
            f"baseline on {base_cores}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", nargs="+", help="fresh bench JSON reports")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--out", default="BENCH_merged.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional drop below baseline (default 0.20)",
    )
    args = parser.parse_args()

    merged = {}
    regressions = []
    for path in args.fresh:
        name = os.path.basename(path)
        with open(path) as f:
            fresh = json.load(f)
        entry = {"fresh": fresh}
        baseline_path = os.path.join(args.baseline_dir, name)
        if os.path.exists(baseline_path):
            with open(baseline_path) as f:
                baseline = json.load(f)
            entry["baseline"] = baseline
            entry["regressions"] = compare(name, fresh, baseline,
                                           args.tolerance)
            regressions.extend(entry["regressions"])
            warning = core_count_warning(name, fresh, baseline)
            if warning:
                entry["warning"] = warning
                print(f"warning: {warning}")
        else:
            entry["regressions"] = []
            print(f"note: no baseline for {name} (looked in "
                  f"{args.baseline_dir}); recording fresh values only")
        merged[name] = entry

    with open(args.out, "w") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"merged report written to {args.out}")

    if regressions:
        print(f"\nFAIL: {len(regressions)} regressed metric(s):",
              file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("all gated metrics within tolerance of baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
