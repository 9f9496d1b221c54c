#!/usr/bin/env python3
"""Unit tests for the verdict rules of scripts/ab.py on synthetic samples.

    python3 tests/ab_script_test.py
"""

import importlib.util
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "ab", os.path.join(ROOT, "scripts", "ab.py"))
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

# Ten base runs around 100 with an IQR of about 2 (spread ~2%).
BASE = [98, 99, 99.5, 100, 100, 100, 100.5, 101, 101, 102]


def mirrored(values, better):
    """`values` written as "higher is better"; mirrored for "lower"."""
    return values if better == "higher" else [200 - v for v in values]


class VerdictTest(unittest.TestCase):
    def check(self, base, change, bound, expected):
        for better in ("higher", "lower"):
            with self.subTest(better=better):
                result, _, _ = ab.verdict(mirrored(base, better),
                                          mirrored(change, better),
                                          better, bound)
                self.assertEqual(result, expected)

    def test_ten_wins_beyond_the_iqr_is_a_gain(self):
        self.check(BASE, [b + 5 for b in BASE], 0.25, "gain")

    def test_eight_wins_is_not_a_gain(self):
        change = [b + 5 for b in BASE[:8]] + [b - 1 for b in BASE[8:]]
        result, wins, _ = ab.verdict(BASE, change, "higher", 0.25)
        self.assertEqual(wins, 8)
        self.assertNotEqual(result, "gain")
        self.check(BASE, change, 0.25, "same")

    def test_ties_count_for_neither_side(self):
        for better in ("higher", "lower"):
            base = mirrored(BASE, better)
            change = base[:5] + mirrored([b + 5 for b in BASE[5:]], better)
            _, wins, _ = ab.verdict(base, change, better, 0.25)
            self.assertEqual(wins, 5)
            _, wins, _ = ab.verdict(change, base, better, 0.25)
            self.assertEqual(wins, 0)

    def test_a_median_worse_beyond_the_bound_is_worse(self):
        self.check(BASE, [b - 30 for b in BASE], 0.25, "worse")
        self.check(BASE, [b - 20 for b in BASE], 0.25, "same")

    def test_a_wide_spread_with_overlapping_runs_is_unresolved(self):
        base = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
        change = [b + 5 if i % 2 else b - 5 for i, b in enumerate(base)]
        _, _, spread = ab.verdict(base, change, "higher", 0.25)
        self.assertGreater(spread, 0.25)
        self.check(base, change, 0.25, "unresolved")

    def test_a_wide_spread_is_resolved_when_every_change_run_is_better(self):
        base = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
        self.check(base, [b + 100 for b in base], 0.25, "gain")
        # Every change run beats every base run, by less than the IQR.
        base = [50, 55, 60, 65, 100, 100, 101, 102, 103, 104]
        _, _, spread = ab.verdict(base, base, "higher", 0.25)
        self.assertGreater(spread, 0.25)
        self.check(base, [105 + i for i in range(10)], 0.25, "same")


class ExitCodeTest(unittest.TestCase):
    OK = {"correct": True, "attempted": 100, "failed": 0, "metrics": {}}

    def test_clean_runs_and_no_worse_verdict_exit_zero(self):
        self.assertEqual(ab.exit_code(["same", "gain"], [self.OK] * 4), 0)

    def test_a_worse_verdict_exits_non_zero(self):
        self.assertEqual(ab.exit_code(["same", "worse"], [self.OK] * 4), 1)

    def test_an_incorrect_or_failing_run_exits_non_zero(self):
        for bad in ({**self.OK, "correct": False}, {**self.OK, "failed": 1},
                    None):
            with self.subTest(run=bad):
                self.assertEqual(ab.exit_code(["same"], [self.OK, bad]), 1)


if __name__ == "__main__":
    unittest.main()
