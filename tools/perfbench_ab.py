#!/usr/bin/env python3
"""Alternating A/B pairs of perfbench runs between two checkouts.

Usage:

    python3 tools/perfbench_ab.py --a PARENT --b CHANGE \
        --workload overhead_1w --pairs 10 --seconds 40 --seed 701 \
        [--target-root DIR] [--symbols] [--log FILE]

PARENT and CHANGE are two checkouts of this repository (a `git archive`
or `git clone` of each commit). For every seed, seed + 1, ..., each
checkout's `perfbench/run.py` runs once with its own CARGO_TARGET_DIR
(DIR/a and DIR/b), so the two harnesses are built once each and never
share a build tree. Which checkout runs first alternates from one seed to
the next, so a host that drifts slower over time moves both alike.

The summary names every end-to-end metric of A's BENCHMARK.json with the
median and quartiles of each side, the median of the per-pair ratios
B/A, and the win count: the pairs in which B is better, in the metric's
own direction. "clear" means B's median is better than A's by more than
the distance between A's quartiles. `failed` and `correct` are summed
over every run.

--symbols compares the function order of the two built harnesses (the
`objdump -t` symbol table sorted by address): functions only one side
has, and the fewest common functions that must move to turn A's order
into B's. Code placement alone moves the Fib ratio by a few percent, so
a layout change is worth knowing before a small win is believed.

--log FILE appends every run's result line, tagged with side and seed,
so a summary can be recomputed with --from-log FILE and no runs.

The tool only reads the two checkouts; it writes nothing under
perfbench/ or anywhere in them except their target directories, which
live under --target-root (default: a `perfbench_ab` directory next to
the B checkout).
"""

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys

END_TO_END_FALLBACK = [
    {"name": "setup_s", "better": "lower"},
    {"name": "atc_over_cilk", "better": "lower"},
    {"name": "atc_over_seq", "better": "lower"},
    {"name": "atc_over_seq_max", "better": "lower"},
]


def end_to_end_spec(checkout):
    """The end-to-end metrics and their directions, from BENCHMARK.json."""
    path = os.path.join(checkout, "BENCHMARK.json") if checkout else ""
    if not path or not os.path.isfile(path):
        return END_TO_END_FALLBACK
    with open(path) as f:
        return json.load(f)["end_to_end"]


def quartiles(values):
    """(q1, median, q3) with linear interpolation, as perfbench computes."""
    v = sorted(values)
    if not v:
        return (float("nan"),) * 3

    def q(p):
        pos = p * (len(v) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return q(0.25), q(0.5), q(0.75)


def parse_result(line):
    """The result dict of one run's last stdout line, or None."""
    try:
        r = json.loads(line)
    except ValueError:
        return None
    if not isinstance(r, dict) or "metrics" not in r:
        return None
    return r


def summarize(pairs, spec):
    """Summary rows for pairs [(seed, result_a, result_b), ...].

    Each row: name, better, a (q1, med, q3), b (q1, med, q3), median of
    the per-pair ratios b/a, wins of b, pair count, clear."""
    rows = []
    for m in spec:
        name, better = m["name"], m["better"]
        a, b = [], []
        for _, ra, rb in pairs:
            if name in ra["metrics"] and name in rb["metrics"]:
                a.append(ra["metrics"][name]["value"])
                b.append(rb["metrics"][name]["value"])
        if not a:
            continue
        qa, qb = quartiles(a), quartiles(b)
        if better == "lower":
            wins = sum(1 for x, y in zip(a, b) if y < x)
            gain = qa[1] - qb[1]
        else:
            wins = sum(1 for x, y in zip(a, b) if y > x)
            gain = qb[1] - qa[1]
        ratios = [y / x for x, y in zip(a, b) if x != 0]
        rows.append({
            "name": name, "better": better, "a": qa, "b": qb,
            "ratio": statistics.median(ratios) if ratios else float("nan"),
            "wins": wins, "pairs": len(a), "clear": gain > qa[2] - qa[0],
        })
    return rows


def totals(pairs):
    """(failed, all correct) over both sides of every pair."""
    failed = 0
    correct = True
    for _, ra, rb in pairs:
        for r in (ra, rb):
            failed += int(r.get("failed", 0))
            correct = correct and bool(r.get("correct", False))
    return failed, correct


def format_summary(rows, pairs):
    out = ["%-18s %-6s %-28s %-28s %8s %6s %s" % (
        "metric", "better", "A median (q1-q3)", "B median (q1-q3)",
        "B/A", "wins", "clear")]
    for r in rows:
        out.append("%-18s %-6s %-28s %-28s %8.3f %6s %s" % (
            r["name"], r["better"],
            "%.4g (%.4g-%.4g)" % (r["a"][1], r["a"][0], r["a"][2]),
            "%.4g (%.4g-%.4g)" % (r["b"][1], r["b"][0], r["b"][2]),
            r["ratio"], "%d/%d" % (r["wins"], r["pairs"]),
            "yes" if r["clear"] else "no"))
    failed, correct = totals(pairs)
    out.append("failed %d, correct %s, pairs %d"
               % (failed, "true" if correct else "false", len(pairs)))
    return "\n".join(out)


def format_pairs(pairs, spec):
    names = [m["name"] for m in spec]
    out = ["%-6s %s" % ("seed", "  ".join("%-21s" % n for n in names))]
    for seed, ra, rb in pairs:
        cells = []
        for n in names:
            va = ra["metrics"].get(n, {}).get("value")
            vb = rb["metrics"].get(n, {}).get("value")
            cells.append("%-21s" % ("%.4g -> %.4g" % (va, vb)
                                    if va is not None and vb is not None
                                    else "-"))
        out.append("%-6d %s" % (seed, "  ".join(cells)))
    return "\n".join(out)


def pairs_from_log(lines):
    """Pairs from --log lines "<side> <seed> <result json>", in seed order."""
    by_seed = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        side, seed, rest = line.split(" ", 2)
        r = parse_result(rest)
        if r is None or side not in ("a", "b"):
            raise ValueError("bad log line: " + line[:120])
        by_seed.setdefault(int(seed), {})[side] = r
    return [(s, v["a"], v["b"]) for s, v in sorted(by_seed.items())
            if "a" in v and "b" in v]


def run_side(checkout, target, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    r = parse_result(lines[-1]) if lines else None
    if r is None:
        sys.exit("perfbench_ab: %s seed %d: no result (exit %d)"
                 % (checkout, seed, proc.returncode))
    return r


def function_order(binary):
    """Function names of \\p binary's .text, in address order."""
    out = subprocess.run(["objdump", "-t", "-C", binary],
                         stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    syms = []
    for line in out.splitlines():
        # "<addr> <flags> F .text\t<size> <name>"; names may hold spaces.
        if " F .text" not in line or "\t" not in line:
            continue
        addr = int(line.split(None, 1)[0], 16)
        syms.append((addr, line.split("\t", 1)[1].split(None, 1)[1]))
    syms.sort()
    return [n for _, n in syms]


def moved_count(order_a, order_b):
    """Common functions, and the fewest of them that must move to turn
    A's relative order into B's (n minus the longest common run)."""
    pos_b = {n: i for i, n in enumerate(order_b)}
    seq = [pos_b[n] for n in order_a if n in pos_b]
    tails = []
    for x in seq:
        i = bisect.bisect_left(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(seq), len(seq) - len(tails)


def compare_symbols(harness_a, harness_b):
    oa, ob = function_order(harness_a), function_order(harness_b)
    sa, sb = set(oa), set(ob)
    common, moved = moved_count(oa, ob)
    lines = ["function order: %d common, %d only in A, %d only in B, "
             "%d of the common ones moved" % (common, len(sa - sb),
                                              len(sb - sa), moved)]
    for tag, names in (("only in A", sorted(sa - sb)),
                       ("only in B", sorted(sb - sa))):
        for n in names[:10]:
            lines.append("  %s: %s" % (tag, n[:150]))
        if len(names) > 10:
            lines.append("  %s: ... %d more" % (tag, len(names) - 10))
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", help="checkout A (the parent)")
    ap.add_argument("--b", help="checkout B (the change)")
    ap.add_argument("--workload", default="overhead_1w")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--seed", type=int, default=701,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--target-root",
                    help="directory for the two target directories")
    ap.add_argument("--symbols", action="store_true",
                    help="compare the function order of the two harnesses")
    ap.add_argument("--log", help="append every run's result line here")
    ap.add_argument("--from-log",
                    help="summarize a --log file instead of running")
    args = ap.parse_args()

    spec = end_to_end_spec(args.a)
    if args.from_log:
        with open(args.from_log) as f:
            pairs = pairs_from_log(f)
        print(format_pairs(pairs, spec))
        print(format_summary(summarize(pairs, spec), pairs))
        return
    if not (args.a and args.b):
        ap.error("--a and --b are required unless --from-log is given")
    a, b = os.path.abspath(args.a), os.path.abspath(args.b)
    root = os.path.abspath(args.target_root or os.path.join(
        os.path.dirname(b), "perfbench_ab"))
    targets = {"a": os.path.join(root, "a"), "b": os.path.join(root, "b")}
    checkouts = {"a": a, "b": b}
    log = open(args.log, "a") if args.log else None

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        got = {}
        for side in order:
            got[side] = run_side(checkouts[side], targets[side],
                                 args.workload, seed, args.seconds)
            if log:
                log.write("%s %d %s\n" % (side, seed, json.dumps(got[side])))
                log.flush()
        pairs.append((seed, got["a"], got["b"]))
        print("pair %d/%d seed %d (%s first) done"
              % (i + 1, args.pairs, seed, order[0].upper()), flush=True)
    if log:
        log.close()
    print(format_pairs(pairs, spec))
    print(format_summary(summarize(pairs, spec), pairs))
    if args.symbols:
        print(compare_symbols(
            os.path.join(targets["a"], "perfbench", "perfbench_harness"),
            os.path.join(targets["b"], "perfbench", "perfbench_harness")))


if __name__ == "__main__":
    main()
