#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Smoke mode: every workload runs briefly, untraced and traced, and every
metric BENCHMARK.json names must be printed with its unit. The traced
runs' span files must pass the accounting check: for each job, the phase
spans add up to the job's outside wall time within clock granularity.
Finally the benchmark must refuse to run, without printing a result, in
a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SMOKE_SECONDS = "1"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def spans_path(workload):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench", "spans-%s-7.json" % workload)


def accounting_violations(doc):
    """Phase children must tile their parent: no negative durations and
    a sum equal to the parent's duration within the clock granularity
    per part."""
    spans = doc["spans"]
    gran = doc["clock_granularity_ns"]
    covered = {}
    parts = {}
    bad = []
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            bad.append("%s of job %d ends before it starts"
                       % (s["name"], s["job"]))
        if s["phase"] and s["parent"] >= 0:
            p = s["parent"]
            if spans[p]["job"] != s["job"]:
                bad.append("%s has a parent from another job" % s["name"])
            covered[p] = covered.get(p, 0) + s["end_ns"] - s["start_ns"]
            parts[p] = parts.get(p, 0) + 1
    for p, total in covered.items():
        outside = spans[p]["end_ns"] - spans[p]["start_ns"]
        if abs(total - outside) > gran * (parts[p] + 1):
            bad.append("%s of job %d: phases %d ns, outside %d ns"
                       % (spans[p]["name"], spans[p]["job"], total, outside))
    return bad, len(covered)


class Smoke(unittest.TestCase):
    def check_metrics(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for m in SPEC[section]:
            self.assertIn(m["name"], result["metrics"])
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIsInstance(result["metrics"][m["name"]]["value"],
                                  (int, float))
        lines = proc.stdout.strip().splitlines()
        host = json.loads(lines[-3])["host"]
        for key in ("nproc", "cpu_model", "build_type", "compiler",
                    "atc_trace", "atc_metrics", "atc_tuning"):
            self.assertIn(key, host)
        self.assertLessEqual(host["workers"], host["nproc"])
        self.assertIn("atc_jobs_per_s", json.loads(lines[-2])["absolute"])

    def test_workloads(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name, trace=0):
                self.check_metrics(run_bench(name, 0), "end_to_end")
            with self.subTest(workload=name, trace=1):
                self.check_metrics(run_bench(name, 1), "per_layer")
                with open(spans_path(name)) as f:
                    bad, jobs = accounting_violations(json.load(f))
                self.assertGreater(jobs, 0)
                self.assertEqual(bad, [])

    def test_refuses_without_sources(self):
        base = os.path.dirname(os.path.dirname(spans_path("x")))
        bare = os.path.join(base, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "solve",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180,
            env={k: v for k, v in os.environ.items()
                 if k != "CARGO_TARGET_DIR"})
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
