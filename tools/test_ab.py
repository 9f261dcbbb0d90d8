#!/usr/bin/env python3
"""Unit tests for tools/ab.py's per-metric summary row.

    python3 tools/test_ab.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

TRIALS = {"name": "trials_per_s", "better": "higher", "bound": 0.25}
CPU = {"name": "server_cpu_us_per_req", "better": "lower", "bound": 0.25}


def cells(row):
    """The row's cells: name, base, change, delta, wins, bound, verdict."""
    return [c.strip() for c in row.strip("|").split("|")]


class SummarizeTest(unittest.TestCase):
    def test_pinned_series_reports_no_wins(self):
        # An open-loop send rate: every run reads the target within ±1/s,
        # and the change happens to read 1 higher on 7 of 10 pairs.
        base = [25000, 24999, 25000, 25001, 24999, 25000, 24999, 25000, 25000, 25000]
        change = [25001, 25000, 25001, 25000, 25000, 25001, 25000, 25001, 25001, 25000]
        row, bound_ok = ab.summarize(TRIALS, base, change)
        self.assertEqual(cells(row)[4], "–")
        self.assertEqual(cells(row)[6], "pinned")
        self.assertTrue(bound_ok)

    def test_moving_series_counts_wins(self):
        base = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 100.0, 97.0, 101.0]
        change = [80.0, 83.0, 79.0, 82.0, 81.0, 78.0, 84.0, 80.0, 79.0, 105.0]
        row, bound_ok = ab.summarize(CPU, base, change)
        self.assertEqual(cells(row)[4], "9/10")
        self.assertEqual(cells(row)[6], "gain")
        self.assertTrue(bound_ok)

    def test_eight_of_ten_wins_is_noise(self):
        base = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 100.0, 97.0, 101.0]
        change = [80.0, 83.0, 79.0, 82.0, 81.0, 78.0, 84.0, 80.0, 104.0, 105.0]
        row, _ = ab.summarize(CPU, base, change)
        self.assertEqual(cells(row)[4], "8/10")
        self.assertEqual(cells(row)[6], "noise")

    def test_drift_that_favours_the_change_in_one_half_is_noise(self):
        # Host drift favours the change in the first half of the pairs and
        # not in the second: 9/10 wins and medians far apart, but the
        # second half's change median (70) is worse than its base's (61).
        base = [100.0, 101.0, 99.0, 100.0, 102.0, 60.0, 100.0, 60.5, 100.5, 61.0]
        change = [50.0, 51.0, 49.0, 50.0, 52.0, 59.0, 99.0, 59.5, 99.5, 70.0]
        row, _ = ab.summarize(CPU, base, change)
        self.assertEqual(cells(row)[4], "9/10")
        self.assertEqual(cells(row)[6], "noise")

    def test_ties_count_for_neither_side(self):
        base = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 100.0, 97.0, 101.0]
        change = [80.0, 83.0, 79.0, 82.0, 81.0, 78.0, 84.0, 80.0, 97.0, 101.0]
        row, _ = ab.summarize(CPU, base, change)
        self.assertEqual(cells(row)[4], "8/10 (2 ties)")
        self.assertEqual(cells(row)[6], "noise")

    def test_a_loss_is_never_hidden_by_the_gain_rules(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.0, 10.1]
        change = [9.0, 9.1, 14.0, 14.2, 13.9, 14.1]
        row, _ = ab.summarize(CPU, base, change)
        self.assertEqual(cells(row)[6], "loss")

    def test_moving_series_within_the_base_spread_is_noise(self):
        base = [100.0, 110.0, 90.0, 105.0, 95.0, 100.0]
        change = [101.0, 108.0, 93.0, 104.0, 97.0, 99.0]
        row, _ = ab.summarize(CPU, base, change)
        self.assertEqual(cells(row)[6], "noise")
        self.assertNotEqual(cells(row)[4], "–")

    def test_a_loss_past_the_bound_fails_it(self):
        base = [10.0, 10.1, 9.9, 10.0]
        change = [14.0, 14.2, 13.9, 14.1]
        row, bound_ok = ab.summarize(CPU, base, change)
        self.assertEqual(cells(row)[6], "loss")
        self.assertFalse(bound_ok)
        self.assertTrue(cells(row)[5].startswith("FAIL"))


if __name__ == "__main__":
    unittest.main()
