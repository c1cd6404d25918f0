#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload insitu_nyx|iso_warpx|service_warpx
                             --seed N --seconds S --trace 0|1

Builds the driver from this checkout's sources into .bench_build/ (the
first run configures and compiles; later runs only check it is current),
runs the workload in a child process with the benchmark's own thread
counts, and prints a human report followed, as the last line, by one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the driver adds a traced
phase and the metrics are the per-layer ones. Exits 1 when an output
check failed and 2 when nothing could be measured (build failure, guard
rail, crash); only a completed run prints the JSON line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# The benchmark sets its own thread counts: the in-situ and iso workloads
# run single-threaded, like one AMReX rank compressing its own boxes; the
# service runs 2 client threads against a 2-worker pool (4 threads on a
# 4-vCPU box).
THREADS = {
    "insitu_nyx": {"OMP_NUM_THREADS": "1"},
    "iso_warpx": {"OMP_NUM_THREADS": "1"},
    "service_warpx": {"OMP_NUM_THREADS": "1", "AMRVIS_POOL_THREADS": "2"},
}
EXPECTED = {
    "insitu_nyx": {"omp_threads": 1, "client_threads": 1, "pool_threads": 0},
    "iso_warpx": {"omp_threads": 1, "client_threads": 1, "pool_threads": 0},
    "service_warpx": {"omp_threads": 1, "client_threads": 2,
                      "pool_threads": 2},
}
# A name with both a registry counter and a span, reconciled by
# tools/check_trace.py on the traced run.
RECONCILE = {
    "insitu_nyx": "codec.sz-lr.compress",
    "iso_warpx": "tile.decode",
    "service_warpx": "tile.decode",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the driver up to date; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("perfbench: build step %s failed: %s" % (cmd[:2], e))
            return False
        if r.returncode != 0:
            log("perfbench: build step %s exited %d" % (cmd[:2], r.returncode))
            return False
    return os.path.exists(DRIVER)


def source_id():
    """The git commit, or a digest of the sources when not in a git tree."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def run_driver(workload, seed, seconds, trace_path):
    """Run the driver; returns its parsed output, or None if it crashed."""
    env = dict(os.environ)
    env.update(THREADS[workload])
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if trace_path:
        cmd += ["--trace", trace_path]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: driver did not finish: %s" % e)
        return None
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        log("perfbench: driver exited %d without a result" % r.returncode)
        return None
    return json.loads(lines[-1])


def check_trace(trace_path, workload):
    """Validate the trace with the repository's tools/check_trace.py."""
    tool = os.path.join(ROOT, "tools", "check_trace.py")
    r = subprocess.run([sys.executable, tool, trace_path, "--metrics",
                        trace_path + ".metrics.json", "--reconcile",
                        RECONCILE[workload]],
                       capture_output=True, text=True, timeout=120)
    print(r.stdout.strip())
    return r.returncode == 0


def print_metrics(title, values, table):
    print(title)
    for name, unit, *_ in table:
        if name in values:
            print("  %-34s %14.6g %s" % (name, values[name], unit))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not build():
        return 2
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s.seed%d.json" % (args.workload, args.seed))
    out = run_driver(args.workload, args.seed, args.seconds, trace_path)
    if out is None:
        return 2

    provenance = {"workload": args.workload, "seed": args.seed,
                  "commit": source_id(), "nproc": out["nproc"],
                  "omp_threads": out["omp_threads"],
                  "client_threads": out["client_threads"],
                  "pool_threads": out["pool_threads"],
                  "seconds": args.seconds, "trace": args.trace}
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for key, want in EXPECTED[args.workload].items():
        if out[key] != want:
            log("perfbench: %s is %s, expected %s; refusing to report"
                % (key, out[key], want))
            return 2

    correct = out["failed"] == 0
    for err in out["errors"]:
        print("FAILED: " + err)
    print("operation: " + benchlib.OPERATION[args.workload])
    try:
        e2e = benchlib.end_to_end(out)
        detail = benchlib.detail(out)
    except (ValueError, KeyError) as e:
        log("perfbench: no metrics without checked operations (%s)" % e)
        return 1
    print_metrics("end-to-end (untraced):", e2e, benchlib.END_TO_END)
    print_metrics("detail (untraced):", detail, benchlib.DETAIL)
    print("distribution over the whole untraced phase (ms):")
    for kind, (n, lo, p50, p90, p99) in benchlib.distribution(out).items():
        print("  %-20s n=%-8d min %-10.4g p50 %-10.4g p90 %-10.4g p99 %.4g"
              % (kind, n, lo, p50, p90, p99))
    if args.trace:
        correct = check_trace(trace_path, args.workload) and correct
        with open(trace_path) as f:
            nodes = benchlib.span_forest(json.load(f))
        print_metrics("end-to-end (traced):",
                      benchlib.end_to_end(out, "traced"), benchlib.END_TO_END)
        print("spans (traced phase, %d iterations):"
              % out["traced"]["iterations"])
        print("  %-40s %9s %12s %12s" % ("name", "count", "total_ms",
                                         "self_ms"))
        for name, row in sorted(benchlib.span_table(nodes).items()):
            print("  %-40s %9d %12.3f %12.3f" % (
                name, row["count"], row["total_ms"], row["self_ms"]))
        layers = benchlib.per_layer(out, nodes)
        share = layers["trace.attributed_pct"] / 100.0
        if abs(share - 1.0) > benchlib.ATTRIBUTION_TOLERANCE:
            print("FAILED: span self times cover %.1f%% of the traced wall "
                  "time, outside 100 +- %.0f%%"
                  % (100.0 * share, 100.0 * benchlib.ATTRIBUTION_TOLERANCE))
            correct = False
        print("per-layer:")
        for name, unit, _, feeds, workload in benchlib.PER_LAYER:
            print("  %-34s %14.6g %-7s feeds %s on %s" % (
                name, layers[name], unit, feeds, workload))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, *_ in benchlib.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit, *_ in benchlib.END_TO_END}

    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
