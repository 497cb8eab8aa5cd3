#!/usr/bin/env python3
# Copyright (c) 2026 The G-RCA Reproduction Authors.
# SPDX-License-Identifier: MIT
"""Unit tests for the bench_diff.py comparator: which keys gate, which
direction regresses, and how missing keys / boolean flips are reported."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_diff import compare, core_count_warning, gated_keys


class GatedKeysTest(unittest.TestCase):
    def test_accuracy_metrics_gate(self):
        report = {
            "Abilene.route-leak.precision": 1.0,
            "Abilene.route-leak.recall": 0.98,
            "Abilene.route-leak.f1": 0.99,
            "overall.accuracy": 0.97,
            "append_events_per_s": 1000,
            "hit_rate": 0.9,
            "identical": True,
        }
        keys = dict(gated_keys(report))
        for key in report:
            self.assertIn(key, keys, f"{key} must gate")

    def test_non_gated_keys_ignored(self):
        report = {
            "events": 120000,          # plain count: not a gated metric
            "elapsed_seconds": 12.5,   # lower is better: must not gate
            "_comment": "free text",
        }
        self.assertEqual(dict(gated_keys(report)), {})


class CompareTest(unittest.TestCase):
    def test_drop_beyond_tolerance_regresses(self):
        baseline = {"cell.f1": 1.0}
        fresh = {"cell.f1": 0.75}
        regressions = compare("r", fresh, baseline, tolerance=0.20)
        self.assertEqual(len(regressions), 1)
        self.assertIn("cell.f1", regressions[0])

    def test_drop_within_tolerance_passes(self):
        baseline = {"cell.recall": 1.0}
        fresh = {"cell.recall": 0.85}
        self.assertEqual(compare("r", fresh, baseline, tolerance=0.20), [])

    def test_improvement_passes(self):
        baseline = {"cell.precision": 0.5, "queries_per_s": 100}
        fresh = {"cell.precision": 1.0, "queries_per_s": 500}
        self.assertEqual(compare("r", fresh, baseline, tolerance=0.20), [])

    def test_higher_is_better_not_lower(self):
        # The scorecard metrics must be treated as higher-is-better: a
        # precision *increase* is fine, only a decrease can regress.
        baseline = {"cell.precision": 0.90}
        up = compare("r", {"cell.precision": 0.99}, baseline, 0.05)
        down = compare("r", {"cell.precision": 0.80}, baseline, 0.05)
        self.assertEqual(up, [])
        self.assertEqual(len(down), 1)

    def test_missing_key_regresses(self):
        baseline = {"cell.f1": 0.9}
        regressions = compare("r", {}, baseline, tolerance=0.20)
        self.assertEqual(len(regressions), 1)
        self.assertIn("missing", regressions[0])

    def test_bool_flip_regresses(self):
        baseline = {"identical": True}
        self.assertEqual(compare("r", {"identical": True}, baseline, 0.2), [])
        self.assertEqual(
            len(compare("r", {"identical": False}, baseline, 0.2)), 1)


class CoreCountTest(unittest.TestCase):
    def test_different_counts_warn(self):
        warning = core_count_warning("BENCH_x.json", {"hardware_threads": 2},
                                     {"hardware_threads": 4})
        self.assertIn("BENCH_x.json", warning)
        self.assertIn("2", warning)
        self.assertIn("4", warning)

    def test_same_or_unknown_count_is_quiet(self):
        self.assertIsNone(core_count_warning(
            "r", {"hardware_threads": 4}, {"hardware_threads": 4}))
        self.assertIsNone(core_count_warning("r", {}, {"hardware_threads": 4}))
        self.assertIsNone(core_count_warning("r", {"hardware_threads": 4}, {}))

    def test_count_never_gates(self):
        # A different core count is a warning, not a regression.
        baseline = {"hardware_threads": 4, "queries_per_s": 100}
        fresh = {"hardware_threads": 1, "queries_per_s": 100}
        self.assertNotIn("hardware_threads", dict(gated_keys(baseline)))
        self.assertEqual(compare("r", fresh, baseline, 0.2), [])


if __name__ == "__main__":
    unittest.main()
