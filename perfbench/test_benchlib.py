#!/usr/bin/env python3
"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Covers the percentile rank convention (on samples and on latency
histograms), the self-time computation on a hand-built span tree and the
share of the traced wall time it accounts for, the metric table against BENCHMARK.json and the
benchmark contract, the end-to-end statistics on a synthetic driver
output, the driver's output checks (its --selftest feeds each one a
corrupted blob, mesh or response) and the refusal to run without the
sources.
"""

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib  # noqa: E402
import run  # noqa: E402

SHAPE = {"min_us": 0.1, "growth": 1.01}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, tid, ts, dur, cat="amrvis"):
    return {"name": name, "cat": cat, "ph": "X", "tid": tid, "ts": ts,
            "dur": dur, "pid": 1}


class PercentileTest(unittest.TestCase):
    def test_rank_convention(self):
        v = list(range(1, 11))  # n = 10
        self.assertEqual(benchlib.percentile(v, 0.0), 1)
        self.assertEqual(benchlib.percentile(v, 1.0), 10)
        # rank floor(0.5 * 9 + 0.5) = 5: the upper of the two middle values
        self.assertEqual(benchlib.percentile(v, 0.5), 6)
        # rank floor(0.9 * 9 + 0.5) = 8
        self.assertEqual(benchlib.percentile(v, 0.9), 9)
        w = list(range(101))
        self.assertEqual(benchlib.percentile(w, 0.99), 99)
        self.assertEqual(benchlib.percentile([7.5], 0.99), 7.5)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 0.5)
        with self.assertRaises(ValueError):
            benchlib.percentile([1, 2], 1.5)

    def test_histogram_rank_convention(self):
        # 10 samples in buckets 3 (x4), 7 (x5), 20 (x1): ranks 0-3, 4-8, 9
        hist = [7, 5, 3, 4, 20, 1]
        mid = lambda b: 0.1 * 1.01 ** (b + 0.5)
        self.assertAlmostEqual(benchlib.hist_percentile(hist, 0.0, SHAPE),
                               mid(3))
        self.assertAlmostEqual(benchlib.hist_percentile(hist, 0.3, SHAPE),
                               mid(3))  # rank floor(2.7 + 0.5) = 3
        self.assertAlmostEqual(benchlib.hist_percentile(hist, 0.5, SHAPE),
                               mid(7))  # rank 5
        self.assertAlmostEqual(benchlib.hist_percentile(hist, 1.0, SHAPE),
                               mid(20))
        with self.assertRaises(ValueError):
            benchlib.hist_percentile([], 0.5, SHAPE)

    def test_histogram_matches_samples(self):
        # Bucketed as the driver does, a histogram percentile is within
        # sqrt(growth) of the sample percentile of the same rank.
        rng = random.Random(5)
        samples = sorted(rng.lognormvariate(3.0, 1.2) for _ in range(2000))
        counts = {}
        for x in samples:
            b = math.floor(math.log(x / 0.1) / math.log(1.01))
            counts[b] = counts.get(b, 0) + 1
        hist = benchlib.merge_hists(
            [[b, c] for b, c in counts.items()])  # sorts the buckets
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            exact = benchlib.percentile(samples, q)
            approx = benchlib.hist_percentile(hist, q, SHAPE)
            self.assertLess(abs(approx / exact - 1.0), 1.01 ** 0.5 - 1.0)

    def test_merge_hists(self):
        self.assertEqual(benchlib.merge_hists([[4, 2, 9, 1], [], [4, 3, 1, 1]]),
                         [1, 1, 4, 5, 9, 1])

    def test_spread(self):
        med, q1, q3, sp = benchlib.spread([10, 10, 10, 10, 10])
        self.assertEqual((med, q1, q3, sp), (10, 10, 10, 0.0))
        med, _, _, sp = benchlib.spread([9, 10, 10, 10, 11])
        self.assertEqual(med, 10)
        self.assertAlmostEqual(sp, 0.1)


class SelfTimeTest(unittest.TestCase):
    # tid 1:  perfbench.iteration [0, 100)
    #           perfbench.compress_hierarchy [10, 40)
    #             codec.sz-lr.compress [12, 30)
    #               stage.huffman.encode [15, 25)
    #           perfbench.check [50, 90)
    #             inner [60, 70)
    #         perfbench.iteration [100, 150)   (touches the first)
    # tid 2:  tile.decode [5, 45) on a helper thread
    # tid 1:  service.queue async [0, 200), not a scope
    # Events are in emission order: children before parents.
    EVENTS = [
        span("stage.huffman.encode", 1, 15, 10),
        span("codec.sz-lr.compress", 1, 12, 18),
        span("perfbench.compress_hierarchy", 1, 10, 30),
        span("tile.decode", 2, 5, 40),
        span("inner", 1, 60, 10),
        span("perfbench.check", 1, 50, 40),
        span("perfbench.iteration", 1, 0, 100),
        span("perfbench.iteration", 1, 100, 50),
        span("service.queue", 1, 0, 200, cat="amrvis.async"),
    ]

    def test_self_times(self):
        nodes = benchlib.span_forest(self.EVENTS)
        table = benchlib.span_table(nodes)
        self_ms = {k: round(v["self_ms"] * 1e3) for k, v in table.items()}
        self.assertEqual(self_ms, {
            "stage.huffman.encode": 10,
            "codec.sz-lr.compress": 8,
            "perfbench.compress_hierarchy": 12,
            "tile.decode": 40,
            "inner": 10,
            "perfbench.check": 30,
            "perfbench.iteration": 30 + 50,
        })
        self.assertEqual(table["perfbench.iteration"]["count"], 2)
        self.assertNotIn("service.queue", table)

    def test_self_times_sum_to_roots(self):
        nodes = benchlib.span_forest(self.EVENTS)
        tid1 = sum(benchlib.self_us(n) for n in nodes if n["tid"] == 1)
        self.assertEqual(tid1, 150)
        # tid 2 has no driver span: it is not a calling thread
        self.assertAlmostEqual(
            benchlib.attributed_fraction(nodes, 150e-6), 1.0)

    def test_attribution_against_measured_wall_time(self):
        events = [span("perfbench.iteration", 1, 0, 40),
                  span("perfbench.iteration", 1, 60, 40)]
        nodes = benchlib.span_forest(events)
        # the gap between the iterations is unattributed
        self.assertAlmostEqual(benchlib.attributed_fraction(nodes, 100e-6),
                               0.8)
        # a loop that ran longer than its spans show: spans are missing
        self.assertAlmostEqual(benchlib.attributed_fraction(nodes, 200e-6),
                               0.4)
        # two calling threads: their loop times add up
        events.append(span("perfbench.request", 2, 0, 100))
        nodes = benchlib.span_forest(events)
        self.assertAlmostEqual(benchlib.attributed_fraction(nodes, 200e-6),
                               0.9)

    def test_nearest_public_call(self):
        nodes = benchlib.span_forest(self.EVENTS)
        by_name = {n["name"]: n for n in nodes}
        self.assertEqual(benchlib.bench_ancestor(by_name["stage.huffman.encode"]),
                         "perfbench.compress_hierarchy")
        self.assertIsNone(benchlib.bench_ancestor(by_name["tile.decode"]))

    def test_equal_intervals_nest_by_emission_order(self):
        # A child and its parent with the same start and duration (clock
        # resolution): the child is emitted first.
        events = [span("child", 3, 7, 5), span("parent", 3, 7, 5)]
        nodes = benchlib.span_forest(events)
        by_name = {n["name"]: n for n in nodes}
        self.assertIs(by_name["child"]["parent"], by_name["parent"])
        self.assertEqual(benchlib.self_us(by_name["parent"]), 0)


class MetricTableTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_names_units_directions(self):
        names = [m[0] for m in benchlib.END_TO_END + benchlib.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better, *_ in (benchlib.END_TO_END +
                                       benchlib.PER_LAYER):
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
            self.assertIn(better, ("lower", "higher"))
        bounds = {m[0]: m[3] for m in benchlib.END_TO_END}
        for b in bounds.values():
            self.assertTrue(0 < b <= 0.25)
        self.assertEqual(benchlib.END_TO_END[0][:3], ("setup_s", "s", "lower"))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_benchmark_json_matches_table(self):
        self.assertEqual(
            [w["name"] for w in self.spec["workloads"]],
            list(benchlib.WORKLOADS))
        self.assertEqual(
            self.spec["end_to_end"],
            [{"name": n, "unit": u, "better": b, "bound": bd}
             for n, u, b, bd in benchlib.END_TO_END])
        self.assertEqual(
            self.spec["per_layer"],
            [{"name": n, "unit": u, "better": b}
             for n, u, b, *_ in benchlib.PER_LAYER])
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])


def single_threaded_output():
    """A driver output of insitu_nyx with hand-picked samples."""
    return {
        "workload": "insitu_nyx", "setup_s": [0.5, 0.7, 0.6],
        "peak_rss_kb": 2048.0, "ratio": 35.0, "psnr_db": 66.0,
        "fixed": {"original_bytes": 8e6},
        "untraced": {
            "samples": {"compress_ms": [42.0, 40.0, 60.0],
                        "decompress_ms": [12.0, 15.0, 10.0]},
            "windows": [], "window_s": [], "iterations": 3,
            "wall_s": 0.2, "thread_s": 0.2, "counts": {}},
    }


class EndToEndTest(unittest.TestCase):
    def test_single_threaded_fastest_iteration(self):
        m = benchlib.end_to_end(single_threaded_output())
        self.assertEqual(m["setup_s"], 0.6)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["op_ms"], 40.0 + 10.0)
        self.assertAlmostEqual(m["ops_per_s"], 1e3 / 50.0)
        d = benchlib.detail(single_threaded_output())
        self.assertAlmostEqual(d["compress_mb_s"], 8.0 / 0.040)
        self.assertAlmostEqual(d["decompress_mb_s"], 8.0 / 0.010)
        self.assertEqual(set(m), {n for n, *_ in benchlib.END_TO_END})

    def test_service_median_window(self):
        out = single_threaded_output()
        out["workload"] = "service_warpx"
        out["latency_hist"] = SHAPE
        mid = lambda b: 0.1 * 1.01 ** (b + 0.5)

        def kind(latencies_us, buckets):
            return {"n": len(latencies_us), "sum_us": sum(latencies_us),
                    "hist": buckets}

        out["untraced"] = {
            "samples": {}, "window_s": [1.0, 1.0, 0.5], "wall_s": 2.5,
            "thread_s": 5.0, "iterations": 10, "counts": {},
            # the short window's rate counts per second of its own length
            "windows": [
                {"point": kind([1, 3], [231, 1, 341, 1]),
                 "plane": kind([100], [694, 1]),
                 "region": kind([10], [462, 1])},
                {"point": kind([2, 2, 2], [301, 3]),
                 "plane": kind([50], [624, 1])},
                {"point": kind([5], [393, 1]),
                 "plane": kind([300], [804, 1])}]}
        m = benchlib.end_to_end(out)
        self.assertEqual(benchlib.window_rates(out["untraced"]),
                         [4.0, 4.0, 4.0])
        self.assertEqual(m["ops_per_s"], 4.0)
        # exact window means 28.5, 14 and 152.5 us
        self.assertAlmostEqual(m["op_ms"], 0.0285)
        self.assertAlmostEqual(benchlib.mean_latency_ms(out["untraced"]),
                               0.0475)
        d = benchlib.detail(out)
        # per-window p50 buckets 341, 301, 393: the median is bucket 341
        self.assertAlmostEqual(d["point_p50_ms"], mid(341) / 1e3)
        self.assertAlmostEqual(d["plane_p99_ms"], mid(694) / 1e3)
        self.assertAlmostEqual(d["region_p50_ms"], mid(462) / 1e3)
        dist = benchlib.distribution(out)
        self.assertEqual(dist["point_ms"][0], 6)
        self.assertAlmostEqual(dist["point_ms"][1], mid(231) / 1e3)

    def test_one_short_window(self):
        phase = {"window_s": [0.25],
                 "windows": [{"point": {"n": 3, "sum_us": 6.0, "hist": []},
                              "plane": {"n": 1, "sum_us": 4.0, "hist": []}}]}
        self.assertEqual(benchlib.window_rates(phase), [16.0])


class DriverTest(unittest.TestCase):
    """Needs the toolchain; builds the driver into .bench_build/."""

    @classmethod
    def setUpClass(cls):
        if shutil.which("cmake") is None:
            raise unittest.SkipTest("cmake not found")
        if not run.build():
            raise AssertionError("building the driver failed")

    def test_output_checks_reject_corruption(self):
        r = subprocess.run([run.DRIVER, "--selftest"], capture_output=True,
                           text=True, timeout=300)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        for what in ("blobs: one flipped byte rejected",
                     "error bound: one cell off by 2.5 abs_eb rejected",
                     "mesh: one vertex moved by one ulp rejected",
                     "mesh: two triangles swapped rejected",
                     "point: value off by one ulp rejected",
                     "plane: one changed cell rejected",
                     "region: one changed cell rejected",
                     "region: a missing patch rejected"):
            self.assertIn("ok   " + what, r.stdout)

    def test_refuses_armed_fault_plan(self):
        env = dict(os.environ, AMRVIS_FAULT_SPEC="tiledecode:throw:start=4")
        r = subprocess.run([run.DRIVER, "--workload", "insitu_nyx",
                            "--seconds", "1"], capture_output=True,
                           text=True, env=env, timeout=120)
        self.assertEqual(r.returncode, 2)
        self.assertEqual(r.stdout, "")

    def test_refuses_env_tracing_in_untraced_run(self):
        trace = os.path.join(ROOT, ".bench_build", "env-armed-trace.json")
        env = dict(os.environ, AMRVIS_TRACE=trace)
        try:
            r = subprocess.run([run.DRIVER, "--workload", "insitu_nyx",
                                "--seconds", "1"], capture_output=True,
                               text=True, env=env, timeout=120)
        finally:
            if os.path.exists(trace):
                os.remove(trace)
        self.assertEqual(r.returncode, 2)
        self.assertEqual(r.stdout, "")


class WithoutSourcesTest(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = os.path.join(ROOT, ".bench_build", "no-sources")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "insitu_nyx", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
