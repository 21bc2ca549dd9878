#!/usr/bin/env python3
"""Statistics of tools/bench_ab.py on canned run.py result lines.

Needs no build and runs no benchmark: each canned run is the text
fleetbench/run.py prints, human lines first and its JSON result last.
"""

import importlib.util
import json
import sys
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)

SPECS = [
    {"name": "campaign_s", "unit": "s", "better": "lower"},
    {"name": "verdict_accuracy", "unit": "ratio", "better": "higher"},
]


def canned(campaign_s, failed=0, attempted=100, correct=True):
    """run.py's output for one run."""
    metrics = {"verdict_accuracy": {"value": 1.0, "unit": "ratio"}}
    if campaign_s is not None:
        metrics["campaign_s"] = {"value": campaign_s, "unit": "s"}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return "\n".join([
        "fleetbench: workload shardflood_gc, seed 7, 40 s, trace 0",
        "  campaign_s               median 0.2200 s of n=180",
        json.dumps(result),
    ])


def pairs_of(base, head, head_failed=(0,) * 5):
    return [(bench_ab.parse_result(canned(b)),
             bench_ab.parse_result(canned(h, failed=f)))
            for b, h, f in zip(base, head, head_failed)]


BASE = [0.22, 0.21, 0.23, 0.20, 0.22]
HEAD = [0.14, 0.15, 0.21, 0.20, 0.14]


class BenchAbStats(unittest.TestCase):
    def test_parse_result_reads_the_json_line(self):
        r = bench_ab.parse_result(canned(0.5, failed=2, attempted=40))
        self.assertEqual(r["metrics"]["campaign_s"], 0.5)
        self.assertEqual((r["attempted"], r["failed"]), (40, 2))
        self.assertTrue(r["correct"])
        with self.assertRaises(ValueError):
            bench_ab.parse_result("no result here\n")

    def test_medians_quartiles_and_change(self):
        rows = bench_ab.summarize(SPECS, pairs_of(BASE, HEAD))
        row = rows[0]
        self.assertEqual(row["name"], "campaign_s")
        base_med, base_q1, base_q3 = row["base"]
        self.assertAlmostEqual(base_med, 0.22)
        # statistics.quantiles' default (exclusive) method, as run.py.
        self.assertAlmostEqual(base_q1, 0.205)
        self.assertAlmostEqual(base_q3, 0.225)
        self.assertAlmostEqual(row["head"][0], 0.15)
        self.assertAlmostEqual(row["change_pct"], (0.15 / 0.22 - 1) * 100)
        self.assertTrue(row["gap_exceeds_base_iqr"])

    def test_ties_count_for_neither_side(self):
        # Pair 4 is a tie (0.20 both): HEAD wins the other four.
        row = bench_ab.summarize(SPECS, pairs_of(BASE, HEAD))[0]
        self.assertEqual((row["wins"], row["pairs"]), (4, 5))
        # Identical outcome metrics: every pair a tie, no change.
        same = bench_ab.summarize(SPECS, pairs_of(BASE, HEAD))[1]
        self.assertEqual(same["wins"], 0)
        self.assertEqual(same["change_pct"], 0.0)
        self.assertFalse(same["gap_exceeds_base_iqr"])

    def test_better_direction(self):
        self.assertEqual(bench_ab.head_wins([1, 2, 3], [2, 2, 1], "lower"),
                         1)
        self.assertEqual(bench_ab.head_wins([1, 2, 3], [2, 2, 1], "higher"),
                         1)

    def test_gap_within_base_iqr_is_not_clear(self):
        base = [0.20, 0.30, 0.25, 0.22, 0.28]
        head = [0.24, 0.25, 0.24, 0.26, 0.23]
        row = bench_ab.summarize(SPECS, pairs_of(base, head))[0]
        self.assertFalse(row["gap_exceeds_base_iqr"])

    def test_missing_metric_is_reported(self):
        rows = bench_ab.summarize(
            SPECS, pairs_of(BASE, [0.14, None, 0.21, 0.20, 0.14]))
        self.assertTrue(rows[0]["missing"])
        self.assertIn("campaign_s", bench_ab.format_report(rows, []))

    def test_report_lines(self):
        pairs = pairs_of(BASE, HEAD, head_failed=(0, 3, 0, 0, 0))
        text = bench_ab.format_report(bench_ab.summarize(SPECS, pairs),
                                      pairs)
        line = next(l for l in text.splitlines()
                    if l.startswith("campaign_s"))
        self.assertIn("0.22 [0.205, 0.225]", line)
        self.assertIn("-31.8%", line)
        self.assertIn("4/5  gap > BASE IQR", line)
        self.assertIn("BASE: 0 of 500 operations failed", text)
        self.assertIn("HEAD: 3 of 500 operations failed", text)


if __name__ == "__main__":
    sys.exit(unittest.main(verbosity=2))
