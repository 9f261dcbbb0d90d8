#!/usr/bin/env python3
"""Unit tests for tools/ab.py's per-metric summary row and its --record file.

    python3 tools/test_ab.py
"""

import datetime
import json
import os
import sys
import tempfile
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


METRICS = [dict(CPU, unit="us"), dict(TRIALS, unit="1/s")]
STAMP = {"git_sha": "abc123", "build_type": "Release", "compiler": "c++ 12.2.0", "nproc": 4,
         "seed": 11}
NOW = datetime.datetime(2026, 10, 18, 9, 30, tzinfo=datetime.timezone.utc)


class RecordTest(unittest.TestCase):
    def entry(self, side, cpu):
        values = {"server_cpu_us_per_req": cpu, "trials_per_s": [100.0] * len(cpu)}
        return ab.side_entry(side, "HEAD (abc123)", STAMP, False, METRICS, values, 20.0,
                             [11, 12, 13, 14, 15], NOW)

    def test_entry_carries_environment_and_quartiles(self):
        e = self.entry("base", [10.0, 12.0, 11.0, 13.0, 14.0])
        self.assertEqual(e["recorded_at"], "2026-10-18T09:30:00Z")
        self.assertEqual((e["side"], e["git_sha"], e["build_type"], e["nproc"]),
                         ("base", "abc123", "Release", 4))
        self.assertEqual(e["compiler"], "c++ 12.2.0")
        self.assertEqual((e["pairs"], e["seconds"], e["seeds"]), (5, 20.0, [11, 15]))
        cpu = e["metrics"]["server_cpu_us_per_req"]
        self.assertEqual((cpu["median"], cpu["q1"], cpu["q3"], cpu["unit"]),
                         (12.0, 11.0, 13.0, "us"))

    def test_metric_with_a_missing_run_is_left_out(self):
        e = self.entry("change", [10.0, float("nan"), 11.0, 13.0, 14.0])
        self.assertNotIn("server_cpu_us_per_req", e["metrics"])
        self.assertIn("trials_per_s", e["metrics"])

    def test_record_appends_to_the_trajectory(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "BENCH_cold_plans.json")
            first = [self.entry("base", [10.0] * 5), self.entry("change", [8.0] * 5)]
            ab.record(path, "cold_plans", first)
            ab.record(path, "cold_plans", [self.entry("change", [7.0] * 5)])
            with open(path) as f:
                doc = json.load(f)
            self.assertEqual(doc["workload"], "cold_plans")
            self.assertEqual([e["side"] for e in doc["entries"]], ["base", "change", "change"])
            self.assertEqual(doc["entries"][2]["metrics"]["server_cpu_us_per_req"]["median"],
                             7.0)

    def test_record_refuses_another_workloads_file(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "BENCH_cold_plans.json")
            ab.record(path, "cold_plans", [self.entry("base", [10.0] * 5)])
            with self.assertRaises(RuntimeError):
                ab.record(path, "warm_hits", [self.entry("base", [10.0] * 5)])


if __name__ == "__main__":
    unittest.main()
