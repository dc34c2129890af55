#!/usr/bin/env python3
"""Build and run the AdaptiveTC benchmark harness.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve|overhead_1w \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the runtime from src/)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset, then runs the harness. Standard output ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. The metrics are
the end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer
metrics for --trace 1. Two lines come before it: the host record and the
absolute figures, printed for information only. Exits
non-zero when the build fails, a job's value differs from its oracle, a
job is lost or fails, or a metric named in BENCHMARK.json is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve", "overhead_1w")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("runtime sources (src/) not found next to perfbench/", 2)
    os.makedirs(out, exist_ok=True)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_harness",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(
                    cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path)
    return os.path.join(out, "perfbench_harness")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the parsed result line, or a list of problems with it."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON: " + line[:200]]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("unexpected keys %s" % sorted(result))
        return problems
    want = expected_metrics(trace)
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            problems.append("metric %s missing" % name)
        elif got[name].get("unit") != unit:
            problems.append("metric %s has unit %r, want %r"
                            % (name, got[name].get("unit"), unit))
    for name in got:
        if name not in want:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    if result["attempted"] < 1:
        problems.append("no job attempted")
    return problems or result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    harness = build(out)
    spans = os.path.join(out, "spans-%s-%d.json" % (args.workload, args.seed))
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("harness exited with %d" % proc.returncode)
    checked = check_result(lines[-1], args.trace == 1)
    if isinstance(checked, list):
        fail("; ".join(checked))
    for line in lines:
        print(line)
    if args.trace:
        print("perfbench: spans written to " + spans, file=sys.stderr)
    if proc.returncode != 0 or not checked["correct"]:
        fail("incorrect results (see job errors above)")


if __name__ == "__main__":
    main()
