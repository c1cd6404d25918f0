"""Metric table, statistics and trace analysis of the repository benchmark.

Shared by run.py (one measured run), steady.py (the steadiness harness)
and test_benchlib.py. The driver (driver.cpp) reports per-operation
times, per-window latency histograms and counts; everything here turns
them into the named metrics.
"""

import math
import statistics

WORKLOADS = ("insitu_nyx", "iso_warpx", "service_warpx")

# End-to-end metrics: (name, unit, better, bound). Every workload reports
# every one of them; what an "operation" is depends on the workload (see
# OPERATION and README.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ratio", "x", "higher", 0.02),
    ("psnr_db", "dB", "higher", 0.02),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms", "ms", "lower", 0.25),
)

OPERATION = {
    "insitu_nyx": "one compress_hierarchy + decompress_hierarchy round trip",
    "iso_warpx": "one full-inflate iso + one streamed iso",
    "service_warpx": "one request (point, plane or region)",
}

# The workload-specific numbers the end-to-end metrics are made of, under
# the names the roadmap and earlier reports use: (name, unit). Printed,
# not gated.
DETAIL = (
    ("compress_mb_s", "MB/s"), ("decompress_mb_s", "MB/s"),  # insitu_nyx
    ("iso_full_ms", "ms"), ("iso_streamed_ms", "ms"),  # iso_warpx
    ("queries_per_s", "1/s"),  # service_warpx, and the request latencies:
    ("point_p50_ms", "ms"), ("point_p99_ms", "ms"),
    ("plane_p50_ms", "ms"), ("plane_p99_ms", "ms"),
    ("region_p50_ms", "ms"), ("region_p99_ms", "ms"),
)

# Per-layer metrics of the traced run: (name, unit, better, feeds,
# workload). `feeds` names the end-to-end metric (or detail) the layer
# moves on `workload`; on the other workloads the layer is idle or its
# share is negligible, and the traced run reports 0 where it is idle.
PER_LAYER = (
    ("amr_compress.compress_ms", "ms", "lower", "op_ms (compress_mb_s)", "insitu_nyx"),
    ("amr_compress.decompress_ms", "ms", "lower", "op_ms (decompress_mb_s, iso_full_ms)", "insitu_nyx, iso_warpx"),
    ("szlr.compress_self_ms", "ms", "lower", "op_ms (compress_mb_s)", "insitu_nyx"),
    ("huffman.encode_ms", "ms", "lower", "op_ms (compress_mb_s)", "insitu_nyx"),
    ("lzss.encode_ms", "ms", "lower", "op_ms (compress_mb_s)", "insitu_nyx"),
    ("szlr.decompress_self_ms", "ms", "lower", "op_ms (decompress_mb_s)", "insitu_nyx"),
    ("huffman.decode_ms", "ms", "lower", "op_ms (decompress_mb_s)", "insitu_nyx"),
    ("lzss.decode_ms", "ms", "lower", "op_ms (decompress_mb_s)", "insitu_nyx"),
    ("codec.calls", "count", "lower", "op_ms (compress_mb_s, decompress_mb_s)", "insitu_nyx"),
    ("chunked.compress_self_ms", "ms", "lower", "op_ms (compress_mb_s)", "insitu_nyx"),
    ("chunked.parse_ms", "ms", "lower", "op_ms (iso_streamed_ms)", "iso_warpx"),
    ("bytes.level0", "B", "lower", "ratio", "insitu_nyx, iso_warpx"),
    ("bytes.level1", "B", "lower", "ratio", "insitu_nyx, iso_warpx"),
    ("bytes.plain", "B", "lower", "ratio", "insitu_nyx"),
    ("bytes.container", "B", "lower", "ratio", "insitu_nyx, iso_warpx"),
    ("vis.full_extract_ms", "ms", "lower", "op_ms (iso_full_ms)", "iso_warpx"),
    ("vis.rasterize_ms", "ms", "lower", "op_ms (iso_full_ms)", "iso_warpx"),
    ("vis.triangles", "count", "higher", "op_ms (iso_full_ms, iso_streamed_ms)", "iso_warpx"),
    ("vis.streamed_decode_ms", "ms", "lower", "op_ms (iso_streamed_ms)", "iso_warpx"),
    ("vis.streamed_self_ms", "ms", "lower", "op_ms (iso_streamed_ms)", "iso_warpx"),
    ("tile_stream.tiles_total", "count", "lower", "op_ms (iso_streamed_ms)", "iso_warpx"),
    ("tile_stream.tiles_decoded", "count", "lower", "op_ms (iso_streamed_ms)", "iso_warpx"),
    ("tile_stream.tiles_culled", "count", "higher", "op_ms (iso_streamed_ms)", "iso_warpx"),
    ("tile_stream.decode_amplification", "x", "lower", "op_ms (iso_streamed_ms)", "iso_warpx"),
    ("tile_stream.peak_live_mb", "MB", "lower", "peak_rss_mb", "iso_warpx"),
    ("tile_cache.hits", "1/kreq", "higher", "op_ms, ops_per_s (plane_p99_ms, region_p99_ms)", "service_warpx"),
    ("tile_cache.misses", "1/kreq", "lower", "op_ms, ops_per_s (plane_p99_ms, region_p99_ms)", "service_warpx"),
    ("tile_cache.hit_ratio", "ratio", "higher", "op_ms, ops_per_s (plane_p99_ms, region_p99_ms)", "service_warpx"),
    ("tile_cache.evictions", "1/kreq", "lower", "op_ms, ops_per_s", "service_warpx"),
    ("tile_cache.peak_mb", "MB", "lower", "peak_rss_mb", "service_warpx"),
    ("service.point_self_ms", "ms", "lower", "op_ms (point_p50_ms, point_p99_ms)", "service_warpx"),
    ("service.plane_self_ms", "ms", "lower", "op_ms (plane_p50_ms, plane_p99_ms)", "service_warpx"),
    ("service.region_self_ms", "ms", "lower", "op_ms (region_p50_ms, region_p99_ms)", "service_warpx"),
    ("service.decode_ms", "ms", "lower", "op_ms, ops_per_s", "service_warpx"),
    ("service.tiles_decoded_per_kreq", "1/kreq", "lower", "op_ms, ops_per_s", "service_warpx"),
    ("thread_pool.tasks", "1/kreq", "lower", "ops_per_s (queries_per_s)", "service_warpx"),
    ("thread_pool.steals", "1/kreq", "lower", "ops_per_s (queries_per_s)", "service_warpx"),
    ("trace.attributed_pct", "%", "higher", "(self times over traced wall time)", "all"),
    ("trace.overhead_pct", "%", "lower", "(traced op_ms over untraced op_ms)", "all"),
)


def percentile(sorted_values, q):
    """Sample of rank floor(q * (n - 1) + 0.5) of an ascending list.

    The convention of the library's own histograms
    (obs::Histogram::quantile_bucket) and bench_service, so a benchmark
    percentile and a registry bucket name the same observation.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile %r outside [0, 1]" % q)
    rank = int(math.floor(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[min(rank, len(sorted_values) - 1)]


def hist_percentile(pairs, q, shape):
    """percentile() of a latency histogram, as its bucket's midpoint (us).

    `pairs` is the driver's flat [bucket, count, ...] list of non-empty
    buckets; bucket b holds [min_us * growth^b, min_us * growth^(b+1))
    with `shape` = {"min_us", "growth"}, so the midpoint is within
    sqrt(growth) of the sample of that rank.
    """
    buckets = sorted(zip(pairs[0::2], pairs[1::2]))
    n = sum(c for _, c in buckets)
    if n == 0:
        raise ValueError("percentile of an empty histogram")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile %r outside [0, 1]" % q)
    rank = int(math.floor(q * (n - 1) + 0.5))
    seen = 0
    for b, c in buckets:
        seen += c
        if rank < seen:
            return shape["min_us"] * shape["growth"] ** (b + 0.5)
    raise AssertionError("unreachable")


def merge_hists(hists):
    """Sum of several [bucket, count, ...] histograms, in the same form."""
    total = {}
    for pairs in hists:
        for b, c in zip(pairs[0::2], pairs[1::2]):
            total[b] = total.get(b, 0) + c
    return [x for b in sorted(total) for x in (b, total[b])]


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) with statistics.quantiles."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


# ---- end-to-end metrics ---------------------------------------------------
#
# The machine this benchmark was tuned on (4 shared vCPUs) alternates, for
# seconds to minutes at a time, between a fast state and a ~1.5x slow one
# (README.md). The single-threaded workloads therefore report each call's
# fastest iteration in the run: the fast state is a tight cluster that
# nearly every run reaches. The service's per-second rates scatter over a
# broad band instead, so it reports its median 1-s window. Whole-run
# medians and tails are printed alongside, but not gated.

SINGLE_KINDS = {
    "insitu_nyx": ("compress_ms", "decompress_ms"),
    "iso_warpx": ("iso_full_ms", "iso_streamed_ms"),
}
SERVICE_KINDS = ("point", "plane", "region")


# A service phase's "windows" list has one {kind: {"n", "sum_us", "hist"}}
# per window, aligned with "window_s", each window's length. The driver
# keeps whole windows only (a phase shorter than one window, such as a
# request-capped traced phase, is one window as long as the phase), so
# every window's rate and percentiles are comparable.

def window_rates(phase):
    """Requests completed per second in each window."""
    return [sum(k["n"] for k in win.values()) / width
            for win, width in zip(phase["windows"], phase["window_s"])]


def window_means_ms(phase):
    """Mean request latency (ms) over all kinds, per non-empty window."""
    out = []
    for win in phase["windows"]:
        n = sum(k["n"] for k in win.values())
        if n:
            out.append(sum(k["sum_us"] for k in win.values()) / n / 1e3)
    return out


def mean_latency_ms(phase):
    """Mean request latency (ms) over all kinds and windows of a phase."""
    kinds = [k for win in phase["windows"] for k in win.values()]
    return sum(k["sum_us"] for k in kinds) / sum(k["n"] for k in kinds) / 1e3


def window_percentile_ms(phase, kind, q, shape):
    """Median over windows of the per-window q-quantile latency (ms) of
    one request kind."""
    vals = [hist_percentile(win[kind]["hist"], q, shape) / 1e3
            for win in phase["windows"] if win.get(kind, {}).get("n")]
    if not vals:
        raise ValueError("no %s requests completed" % kind)
    return statistics.median(vals)


def end_to_end(out, phase="untraced"):
    """The END_TO_END metrics of one driver output."""
    ph = out[phase]
    w = out["workload"]
    m = {
        "setup_s": statistics.median(out["setup_s"]),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        "ratio": out["ratio"],
        "psnr_db": out["psnr_db"],
    }
    if w in SINGLE_KINDS:
        # One closed-loop thread: the rate is the operation time inverted.
        m["op_ms"] = sum(min(ph["samples"][k]) for k in SINGLE_KINDS[w])
        m["ops_per_s"] = 1e3 / m["op_ms"]
    else:
        m["op_ms"] = statistics.median(window_means_ms(ph))
        m["ops_per_s"] = statistics.median(window_rates(ph))
    return m


def detail(out, phase="untraced"):
    """The workload's DETAIL metrics (only its own), same statistics."""
    w = out["workload"]
    ph = out[phase]
    s = ph["samples"]
    if w == "insitu_nyx":
        mb = out["fixed"]["original_bytes"] / 1e6
        return {"compress_mb_s": mb / (min(s["compress_ms"]) / 1e3),
                "decompress_mb_s": mb / (min(s["decompress_ms"]) / 1e3)}
    if w == "iso_warpx":
        return {"iso_full_ms": min(s["iso_full_ms"]),
                "iso_streamed_ms": min(s["iso_streamed_ms"])}
    d = {"queries_per_s": statistics.median(window_rates(ph))}
    for kind in SERVICE_KINDS:
        for q, tag in ((0.5, "_p50_ms"), (0.99, "_p99_ms")):
            d[kind + tag] = window_percentile_ms(ph, kind, q,
                                                 out["latency_hist"])
    return d


def distribution(out, phase="untraced"):
    """{kind: (n, min, p50, p90, p99)} in ms over the whole phase: the
    median and tail the gated best-moment statistics leave out. Service
    latencies are read from the merged window histograms."""
    ph = out[phase]
    rows = {}
    for kind, v in sorted(ph["samples"].items()):
        v = sorted(v)
        if v:
            rows[kind] = (len(v), v[0], percentile(v, 0.5),
                          percentile(v, 0.9), percentile(v, 0.99))
    for kind in SERVICE_KINDS:
        wins = [win[kind] for win in ph["windows"] if kind in win]
        n = sum(k["n"] for k in wins)
        if n:
            hist = merge_hists(k["hist"] for k in wins)
            rows[kind + "_ms"] = (n,) + tuple(
                hist_percentile(hist, q, out["latency_hist"]) / 1e3
                for q in (0.0, 0.5, 0.9, 0.99))
    return rows


# ---- traced run: spans and per-layer metrics ------------------------------

def span_forest(events):
    """Nest the scope spans of each thread; returns a list of nodes.

    A node is a dict with the event's name, tid, ts, dur, its parent node
    (None at the root) and child_us, the time its direct children cover.
    Async spans (backdated intervals) are not scopes and are skipped.
    Parents sort before their children; a parent and child with equal
    start and duration are told apart by file order (the emitter writes a
    child before its parent).
    """
    scoped = [(e["tid"], e["ts"], -e["dur"], -i, e)
              for i, e in enumerate(events) if e.get("cat") == "amrvis"]
    scoped.sort(key=lambda t: t[:4])
    nodes = []
    stacks = {}
    for tid, ts, neg_dur, _, e in scoped:
        stack = stacks.setdefault(tid, [])
        while stack and stack[-1]["ts"] + stack[-1]["dur"] <= ts:
            stack.pop()
        parent = stack[-1] if stack else None
        node = {"name": e["name"], "tid": tid, "ts": ts, "dur": -neg_dur,
                "parent": parent, "child_us": 0}
        if parent is not None:
            parent["child_us"] += node["dur"]
        stack.append(node)
        nodes.append(node)
    return nodes


def self_us(node):
    return node["dur"] - node["child_us"]


def bench_ancestor(node):
    """Name of the nearest enclosing driver span around a public call."""
    p = node["parent"]
    while p is not None:
        if p["name"].startswith("perfbench.") and p["name"] not in (
                "perfbench.iteration", "perfbench.request"):
            return p["name"]
        p = p["parent"]
    return None


def span_table(nodes):
    """{name: {"count", "total_ms", "self_ms"}} over all threads."""
    table = {}
    for n in nodes:
        row = table.setdefault(n["name"],
                               {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += n["dur"] / 1e3
        row["self_ms"] += self_us(n) / 1e3
    return table


# A traced run fails when its span self times and its wall time differ by
# more than this share: the trace then misses or double-counts time.
ATTRIBUTION_TOLERANCE = 0.10


def attributed_fraction(nodes, thread_s):
    """Self time on the driver's calling threads over their wall time.

    The calling threads are those that own top-level perfbench.* spans
    (the main thread, or each service client); `thread_s` is the wall
    time of their loops in the traced phase, summed over the threads, as
    the driver's own clock measured it. 1.0 means the spans account for
    all of it; less means unspanned gaps or spans missing from the trace,
    more means spans that overlap on one thread.
    """
    calling = {n["tid"] for n in nodes if n["parent"] is None and
               n["name"].startswith("perfbench.")}
    if thread_s <= 0:
        return 0.0
    return (sum(self_us(n) for n in nodes if n["tid"] in calling) /
            (thread_s * 1e6))


def _total_ms(nodes, name, under=None):
    return sum(n["dur"] for n in nodes if n["name"] == name and
               (under is None or bench_ancestor(n) == under)) / 1e3


def _self_ms(nodes, name, under=None):
    return sum(self_us(n) for n in nodes if n["name"] == name and
               (under is None or bench_ancestor(n) == under)) / 1e3


def per_layer(out, nodes):
    """The PER_LAYER metrics of one traced driver output."""
    w = out["workload"]
    tr = out["traced"]
    counts = tr["counts"]
    fixed = out["fixed"]
    m = {name: 0.0 for name, *_ in PER_LAYER}
    n = max(tr["iterations"], 1)
    comp = "perfbench.compress_hierarchy"
    decomp = "perfbench.decompress_hierarchy"
    streamed = "perfbench.amr_isosurface_streamed"

    for key in ("bytes.level0", "bytes.level1", "bytes.plain",
                "bytes.container"):
        m[key] = fixed.get(key, 0.0)
    m["chunked.parse_ms"] = _total_ms(nodes, "container.parse") / n
    m["amr_compress.compress_ms"] = _total_ms(nodes, comp) / n
    m["amr_compress.decompress_ms"] = _total_ms(nodes, decomp) / n
    m["codec.calls"] = sum(v for k, v in counts.items()
                           if k.startswith("obs.codec.")) / n

    if w == "insitu_nyx":
        m["szlr.compress_self_ms"] = _self_ms(
            nodes, "codec.sz-lr.compress", comp) / n
        m["huffman.encode_ms"] = _total_ms(
            nodes, "stage.huffman.encode", comp) / n
        m["lzss.encode_ms"] = _total_ms(nodes, "stage.lzss.encode", comp) / n
        m["szlr.decompress_self_ms"] = _self_ms(
            nodes, "codec.sz-lr.decompress", decomp) / n
        m["huffman.decode_ms"] = _total_ms(
            nodes, "stage.huffman.decode", decomp) / n
        m["lzss.decode_ms"] = _total_ms(nodes, "stage.lzss.decode", decomp) / n
        # Framing plus the v4 stats round trip: the container's time minus
        # the tile encodes it wraps.
        inner = sum(c["dur"] for c in nodes if c["parent"] is not None and
                    c["parent"]["name"] == "container.compress" and
                    c["name"].startswith("codec.") and
                    c["name"].endswith(".compress"))
        m["chunked.compress_self_ms"] = (
            _total_ms(nodes, "container.compress") - inner / 1e3) / n

    if w == "iso_warpx":
        m["vis.full_extract_ms"] = _total_ms(
            nodes, "perfbench.amr_isosurface") / n
        m["vis.rasterize_ms"] = _total_ms(nodes, "perfbench.rasterize_levels") / n
        m["vis.triangles"] = fixed["vis.triangles"]
        decode = _total_ms(nodes, "tile.decode", streamed) / n
        m["vis.streamed_decode_ms"] = decode
        m["vis.streamed_self_ms"] = _total_ms(nodes, streamed) / n - decode
        total = counts["tile_stream.tiles_total"]
        culled = counts["tile_stream.tiles_culled"]
        m["tile_stream.tiles_total"] = total
        m["tile_stream.tiles_decoded"] = counts["tile_stream.tiles_decoded"]
        m["tile_stream.tiles_culled"] = culled
        m["tile_stream.decode_amplification"] = (
            counts["tile_stream.tiles_decoded"] / max(total - culled, 1))
        m["tile_stream.peak_live_mb"] = (
            counts["tile_stream.peak_live_bytes"] / 2**20)

    if w == "service_warpx":
        kreq = max(counts["service.requests"], 1) / 1e3
        hits = counts["tile_cache.hits"]
        misses = counts["tile_cache.misses"]
        m["tile_cache.hits"] = hits / kreq
        m["tile_cache.misses"] = misses / kreq
        m["tile_cache.hit_ratio"] = hits / max(hits + misses, 1)
        m["tile_cache.evictions"] = counts["tile_cache.evictions"] / kreq
        m["tile_cache.peak_mb"] = counts["tile_cache.peak_bytes"] / 2**20
        for kind in SERVICE_KINDS:
            c = sum(1 for x in nodes if x["name"] == "service." + kind)
            if c:
                m["service.%s_self_ms" % kind] = (
                    _self_ms(nodes, "service." + kind) / c)
        m["service.decode_ms"] = _total_ms(nodes, "tile.decode") / (kreq * 1e3)
        m["service.tiles_decoded_per_kreq"] = (
            counts["service.tiles_decoded"] / kreq)
        m["thread_pool.tasks"] = counts.get("obs.pool.tasks", 0.0) / kreq
        m["thread_pool.steals"] = counts.get("obs.pool.steals", 0.0) / kreq

    m["trace.attributed_pct"] = 100.0 * attributed_fraction(
        nodes, tr["thread_s"])
    if w in SINGLE_KINDS:
        untraced = end_to_end(out)["op_ms"]
        traced = end_to_end(out, "traced")["op_ms"]
    else:
        # The request-capped traced phase is one short window: compare
        # mean latencies over whole phases instead of window medians.
        untraced = mean_latency_ms(out["untraced"])
        traced = mean_latency_ms(tr)
    m["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return m
