#!/usr/bin/env python3
"""Steadiness harness of the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--seconds 30] [--seed0 1]
                                [--trace 0|1] [--out F]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

Runs every workload --runs times through run.py, each run with the next
seed and the workload order reversed every round, and prints each
metric's median, quartiles and spread, (Q3 - Q1) / median, against its
bound: a spread within the bound is accepted, one within a third of it is
the tuning target. Every metric must also not move by more than its
bound between two sets of runs, which --compare checks. With --trace 1
the runs are traced and the per-layer metrics are listed instead, each
count marked "exact" when it repeats in every run. The records go to
--out (default .bench_build/steady/<time>.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

COUNT_UNITS = ("count", "B", "x")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.time()
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout + r.stderr)
        raise SystemExit("steady: %s seed %d failed (exit %d)"
                         % (workload, seed, r.returncode))
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": time.time() - t0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def table(trace):
    if trace:
        return [(n, u, b, None) for n, u, b, *_ in benchlib.PER_LAYER]
    return list(benchlib.END_TO_END)


def summarize(records, trace):
    """Print the per-metric statistics; returns the worst spread/bound."""
    worst = 0.0
    for w in benchlib.WORKLOADS:
        rows = [r for r in records if r["workload"] == w]
        if not rows:
            continue
        print("== %s: %d runs, seeds %s" % (
            w, len(rows), ",".join(str(r["seed"]) for r in rows)))
        for name, unit, _, bound in table(trace):
            vals = [r["metrics"][name] for r in rows]
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                _, q1, q3, sp = benchlib.spread(vals)
            else:
                q1 = q3 = med
                sp = 0.0
            note = ""
            if bound is not None:
                worst = max(worst, sp / bound)
                note = ("ok" if sp <= bound / 3 else
                        "within bound" if sp <= bound else "TOO NOISY")
                note = "bound %.2f  %s" % (bound, note)
            elif bound is None and unit in COUNT_UNITS:
                note = "exact" if len(set(vals)) == 1 else "varies"
            print("  %-34s %-6s median %12.6g  q1 %12.6g  q3 %12.6g  "
                  "spread %6.3f  %s" % (name, unit, med, q1, q3, sp, note))
    return worst


def compare(first, second):
    """Second set's medians against the first's; returns exit status."""
    bad = 0
    print("%-14s %-16s %12s %12s %8s %6s" % (
        "workload", "metric", "first", "second", "worse", "bound"))
    for w in benchlib.WORKLOADS:
        a = [r for r in first if r["workload"] == w]
        b = [r for r in second if r["workload"] == w]
        if not a or not b:
            continue
        for name, _, better, bound in benchlib.END_TO_END:
            ma = statistics.median(r["metrics"][name] for r in a)
            mb = statistics.median(r["metrics"][name] for r in b)
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            flag = "" if worse <= bound else "  REGRESSED"
            bad += bool(flag)
            print("%-14s %-16s %12.6g %12.6g %+7.3f %6.2f%s" % (
                w, name, ma, mb, worse, bound, flag))
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f)["records"])
        return compare(*sets)

    out = args.out or os.path.join(ROOT, ".bench_build", "steady",
                                   time.strftime("%Y%m%d-%H%M%S") + ".json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    records = []
    for i in range(args.runs):
        order = benchlib.WORKLOADS[::1 if i % 2 == 0 else -1]
        for w in order:
            rec = run_once(w, args.seed0 + i, args.seconds, args.trace)
            records.append(rec)
            print("run %2d %-14s seed %3d  %.1f s" % (
                i + 1, w, rec["seed"], rec["elapsed_s"]), flush=True)
            with open(out, "w") as f:
                json.dump({"seconds": args.seconds, "trace": args.trace,
                           "records": records}, f, indent=1)
    worst = summarize(records, args.trace)
    print("records: %s" % out)
    if not args.trace:
        print("worst spread / bound: %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
