#!/usr/bin/env python3
"""Tests of tools/perfbench_ab.py's summary maths on canned result lines.

Run from anywhere: python3 tools/test_perfbench_ab.py
No benchmark runs; the inputs are result lines as perfbench/run.py prints
them, in the tool's --log format.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perfbench_ab  # noqa: E402

SPEC = [{"name": "setup_s", "better": "lower"},
        {"name": "atc_over_seq_max", "better": "lower"},
        {"name": "hits", "better": "higher"}]


def result(setup, seq_max, hits, failed=0, correct=True):
    return json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {"setup_s": {"value": setup, "unit": "s"},
                    "atc_over_seq_max": {"value": seq_max,
                                         "unit": "ratio"},
                    "hits": {"value": hits, "unit": "count"}}})


# Four pairs, logged in run order (B first on odd pairs), plus one
# unmatched A line that must be dropped.
LOG = [
    "a 701 " + result(0.30, 3.8, 10),
    "b 701 " + result(0.31, 1.9, 12),
    "b 702 " + result(0.29, 1.9, 9),
    "a 702 " + result(0.40, 3.7, 10),
    "a 703 " + result(0.30, 3.9, 10),
    "b 703 " + result(0.28, 2.0, 11),
    "b 704 " + result(0.45, 1.8, 10, failed=1, correct=False),
    "a 704 " + result(0.32, 3.6, 10),
    "a 705 " + result(0.30, 3.0, 10),
]


class Summary(unittest.TestCase):
    def setUp(self):
        self.pairs = perfbench_ab.pairs_from_log(LOG)
        self.rows = {r["name"]: r
                     for r in perfbench_ab.summarize(self.pairs, SPEC)}

    def test_pairs_are_matched_by_seed(self):
        self.assertEqual([s for s, _, _ in self.pairs],
                         [701, 702, 703, 704])
        self.assertEqual(
            self.pairs[1][1]["metrics"]["setup_s"]["value"], 0.40)

    def test_quartiles_interpolate(self):
        self.assertEqual(perfbench_ab.quartiles([4, 1, 3, 2]),
                         (1.75, 2.5, 3.25))
        self.assertEqual(perfbench_ab.quartiles([5]), (5, 5, 5))

    def test_lower_is_better(self):
        r = self.rows["atc_over_seq_max"]
        self.assertAlmostEqual(r["a"][1], 3.75)
        self.assertAlmostEqual(r["b"][1], 1.9)
        self.assertEqual((r["wins"], r["pairs"]), (4, 4))
        # Ratios 0.5, 0.514, 0.513, 0.5: the median is the middle two.
        self.assertAlmostEqual(r["ratio"], (1.8 / 3.6 + 2.0 / 3.9) / 2)
        self.assertTrue(r["clear"])

    def test_a_win_inside_the_spread_is_not_clear(self):
        # A: 0.30 0.40 0.30 0.32 -> median 0.31, q1 0.30, q3 0.34.
        # B: 0.31 0.29 0.28 0.45 -> median 0.30: better, by less than
        # A's quartile distance.
        r = self.rows["setup_s"]
        self.assertAlmostEqual(r["a"][1], 0.31)
        self.assertAlmostEqual(r["a"][2] - r["a"][0], 0.04)
        self.assertAlmostEqual(r["b"][1], 0.30)
        self.assertEqual(r["wins"], 2)
        self.assertFalse(r["clear"])

    def test_higher_is_better(self):
        r = self.rows["hits"]
        self.assertEqual(r["wins"], 2)
        self.assertTrue(r["clear"])  # 10.5 vs 10, A's spread is 0

    def test_totals_sum_failures_and_correctness(self):
        self.assertEqual(perfbench_ab.totals(self.pairs), (1, False))
        self.assertEqual(perfbench_ab.totals(self.pairs[:3]), (0, True))

    def test_format_names_every_metric(self):
        text = perfbench_ab.format_summary(
            perfbench_ab.summarize(self.pairs, SPEC), self.pairs)
        for m in SPEC:
            self.assertIn(m["name"], text)
        self.assertIn("failed 1, correct false, pairs 4", text)

    def test_bad_log_line_is_refused(self):
        with self.assertRaises(ValueError):
            perfbench_ab.pairs_from_log(["a 1 not-json"])


class Layout(unittest.TestCase):
    def test_same_order_moves_nothing(self):
        self.assertEqual(perfbench_ab.moved_count(list("abcd"),
                                                  list("abcd")), (4, 0))

    def test_one_function_moved(self):
        self.assertEqual(perfbench_ab.moved_count(list("abcd"),
                                                  list("bcad")), (4, 1))

    def test_only_common_functions_count(self):
        self.assertEqual(perfbench_ab.moved_count(list("axbc"),
                                                  list("cbay")), (3, 2))


if __name__ == "__main__":
    unittest.main()
