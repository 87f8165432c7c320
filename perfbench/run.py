#!/usr/bin/env python3
"""Wall-clock benchmark of libhoard.so: closed-loop workloads under
LD_PRELOAD, end-to-end metrics, and a traced run for per-layer metrics.

    python3 perfbench/run.py --workload kv_churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Builds libhoard.so, the workload driver and the layer ledger from the
sources of this checkout (into $CARGO_TARGET_DIR, default .bench_build),
runs the workload, checks every block the allocator returned, and prints
every metric by name with its unit.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones.  perfbench/README.md explains the workloads and what
each metric should move.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kv_churn", "xthread_pipeline", "large_buffers")
# setup_s is the median over processes that stop at the first request,
# run for SETUP_PROBE_S before and again after the timed run (at least
# SETUP_PROBES_MIN each time): page-fault cost drifts over seconds, and
# spreading the probes over the run averages the drift out.
SETUP_PROBE_S = 2.0
SETUP_PROBES_MIN = 5
MIB = 1024.0 * 1024.0
# The shipped configuration: no HOARD_* knob reaches an untraced run.
TRACE_ENV = {"HOARD_OBS": "1", "HOARD_LATENCY": "1",
             "HOARD_LATENCY_PERIOD": "1"}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures once and builds the driver, the ledger and libhoard.so;
    returns the build directory.  Build output goes to stderr."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "Makefile").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out), "--target",
                      "perfbench_all", "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))
    return out


def clean_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HOARD_") and k != "LD_PRELOAD"}
    return env


def run_driver(build, workload, seed, seconds, tiny, preload=True,
               trace_out=None, setup_only=False):
    """Runs one driver process; returns its result JSON as a dict.  The
    driver's --launch stage reads the clock and execs the driver with
    libhoard.so preloaded (or not), so setup_s starts at that exec."""
    lib = build / "hoard" / "src" / "shim" / "libhoard.so"
    cmd = [str(build / "perfbench_driver"), "--launch",
           str(lib) if preload else "-", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds))]
    if tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    env = clean_env()
    if trace_out is not None:
        env.update(TRACE_ENV)
        cmd += ["--trace", "1", "--out", str(trace_out)]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=60 + 4 * seconds)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("driver failed (%d): %s" %
                         (done.returncode, done.stderr.strip()))
    result = json.loads(lines[-1])
    if not setup_only:
        expected = "hoard" if preload else "libc"
        if result["allocator"] != expected:
            raise BenchError("driver ran under %s, expected %s"
                             % (result["allocator"], expected))
    return result


def failures(r):
    return r["fail_null"] + r["fail_content"] + r["fail_usable"]


def requests_per_s(r):
    return r["requests"] / r["timed_s"]


def rss_mib(r, key):
    """An RSS reading without the driver's own bookkeeping."""
    return (r[key] - r["driver_rss_kib"]) / 1024.0


# ---------------------------------------------------------------- end to end

def end_to_end(build, workload, seed, seconds, tiny):
    def probe(setups):
        end = time.monotonic() + (0.1 if tiny else SETUP_PROBE_S)
        for k in range(1000):
            if k >= SETUP_PROBES_MIN and time.monotonic() >= end:
                return
            setups.append(run_driver(build, workload, seed, seconds, tiny,
                                     setup_only=True)["setup_s"])

    setups = []
    probe(setups)
    r = run_driver(build, workload, seed, seconds, tiny)
    setups.append(r["setup_s"])
    probe(setups)
    if r["samples"] < 1000:
        raise BenchError("%d latency samples; p99 needs >= 1000"
                         % r["samples"])
    peak = rss_mib(r, "peak_rss_kib")
    metrics = {
        "requests_per_s": (requests_per_s(r), "1/s"),
        "request_p50_us": (r["p50_us"], "us"),
        "request_p99_us": (r["p99_us"], "us"),
        "peak_rss_mib": (peak, "MiB"),
        "retained_rss_mib": (rss_mib(r, "retained_rss_kib"), "MiB"),
        "blowup": (peak * MIB / r["peak_live_bytes"], "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {
        "failed_ops_frac": (failures(r) / r["calls"], "fraction"),
        "request_samples": (r["samples"], "count"),
        "setup_probes": (len(setups), "count"),
        "driver_rss_mib": (r["driver_rss_kib"] / 1024.0, "MiB"),
        "process_base_rss_mib": (r["base_rss_kib"] / 1024.0, "MiB"),
        "clients": (r["threads"], "count"),
        "timed_s": (r["timed_s"], "s"),
    }
    return {"correct": failures(r) == 0, "attempted": r["calls"],
            "failed": failures(r), "metrics": metrics, "info": info,
            "checks": {}}


# ----------------------------------------------------------------- per layer

def read_prom(path):
    """Prometheus text -> {name{labels}: value}, histograms included."""
    values = {}
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        values[key] = float(value)
    return values


def counter(start, stop, name):
    return stop.get(name, 0.0) - start.get(name, 0.0)


def histogram(prom, name, label):
    """One histogram family as {series labels: sorted [(le, cumulative
    count)]}; label (e.g. 'path="malloc_fast"') keeps one series, None
    keeps them all (every heap)."""
    out = {}
    prefix = name + "_bucket{"
    for key, value in prom.items():
        if not key.startswith(prefix):
            continue
        labels, le = key[len(prefix):-1].rsplit(',le="', 1)
        if label is None or labels == label:
            bound = math.inf if le == '+Inf"' else float(le[:-1])
            out.setdefault(labels, []).append((bound, value))
    return {labels: sorted(points) for labels, points in out.items()}


def count_le(hist, bound):
    """Observations <= bound, summed over the series.  A series skips
    empty buckets, so its count at a bound it does not list is the one
    at the largest listed bound below it."""
    total = 0.0
    for points in hist.values():
        below = [n for b, n in points if b <= bound]
        total += below[-1] if below else 0.0
    return total


def window_quantile(start, stop, name, label, q):
    """Quantile q of a histogram over the timed phase (stop - start),
    interpolated linearly inside its bucket."""
    a, b = histogram(start, name, label), histogram(stop, name, label)
    total = count_le(b, math.inf) - count_le(a, math.inf)
    if total <= 0:
        return 0.0
    rank, lower, seen = q * total, 0.0, 0.0
    for bound in sorted({bd for points in b.values() for bd, _ in points}):
        n = count_le(b, bound) - count_le(a, bound)
        if n >= rank and n > seen:
            if math.isinf(bound):
                return lower
            return lower + (bound - lower) * (rank - seen) / (n - seen)
        lower, seen = bound, n
    return lower


def window_sum(start, stop, name):
    """A histogram family's _sum over every series, stop - start."""
    def total(prom):
        return sum(v for k, v in prom.items() if k.startswith(name + "_sum{"))
    return total(stop) - total(start)


def percentile(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def span_metrics(path):
    """shim.* from the driver's request spans (client, req, span,
    parent, name, start_ns, end_ns)."""
    durations = {"request": [], "shim.malloc": [], "shim.free": []}
    with open(path) as f:
        next(f)
        for line in f:
            cols = line.split("\t")
            durations[cols[4]].append(float(cols[6]) - float(cols[5]))
    inside = sum(durations["shim.malloc"]) + sum(durations["shim.free"])
    whole = sum(durations["request"])
    return {
        "shim.malloc_ns.p50": (percentile(durations["shim.malloc"], 0.50), "ns"),
        "shim.malloc_ns.p99": (percentile(durations["shim.malloc"], 0.99), "ns"),
        "shim.free_ns.p50": (percentile(durations["shim.free"], 0.50), "ns"),
        "shim.free_ns.p99": (percentile(durations["shim.free"], 0.99), "ns"),
        "shim.time_share": (inside / whole if whole else 0.0, "fraction"),
    }


def reconcile(r, end_prom):
    """The allocator's books against the driver's, after the free-all
    phase.  hoard_stats is read on both sides of every Prometheus dump,
    so the dumps' own allocations are subtracted exactly."""
    s = r["stats"]

    def workload_delta(field):
        d = s["pre_end"][field] - s["post_begin"][field]
        for point in ("start", "stop"):
            d -= s["post_" + point][field] - s["pre_" + point][field]
        return d
    allocs, frees = workload_delta("allocs"), workload_delta("frees")
    huge = workload_delta("huge_allocs")
    remote = end_prom.get("hoard_remote_frees_total", -1)
    drains = end_prom.get("hoard_remote_drains_total", -2)
    return {
        "allocs == frees (%d, %d)" % (allocs, frees): allocs == frees,
        "remote_frees == remote_drains (%d, %d)" % (remote, drains):
            remote == drains,
        "huge_allocs == driver large mallocs (%d, %d)"
        % (huge, r["large_mallocs"]): huge == r["large_mallocs"],
    }


def per_layer(build, workload, seed, seconds, tiny):
    # The three runs together measure --seconds: the traced run half of
    # it, the untraced run and the glibc reference a quarter each.
    quarter = max(0.5, seconds / 4.0)
    ledger_cmd = [str(build / "perfbench_ledger"), "--seed", str(seed)] + (
        ["--quick"] if tiny else [])
    ledger = json.loads(subprocess.run(
        ledger_cmd, env=clean_env(), check=True, stdout=subprocess.PIPE,
        text=True, timeout=170).stdout.strip().splitlines()[-1])

    plain = run_driver(build, workload, seed, quarter, tiny)
    out = build / "perfbench-trace" / workload
    out.parent.mkdir(parents=True, exist_ok=True)
    r = run_driver(build, workload, seed, 2 * quarter, tiny, trace_out=out)
    libc = run_driver(build, workload, seed, quarter, tiny, preload=False)

    prom = {p: read_prom("%s.prom_%s.txt" % (out, p))
            for p in ("start", "stop", "end")}
    start, stop = prom["start"], prom["stop"]
    reqs = r["requests"]
    kreq = reqs / 1000.0

    def c(name):
        return counter(start, stop, "hoard_%s_total" % name)

    def q99(path):
        return window_quantile(start, stop, "hoard_latency_cycles",
                               'path="%s"' % path, 0.99)

    def ratio(a, b):
        return a / b if b else 0.0

    s = r["stats"]
    allocs = c("allocs")
    huge = s["pre_stop"]["huge_allocs"] - s["post_start"]["huge_allocs"]
    refills = c("batch_refills")
    # A magazine hit is a small malloc that needed no refill; with
    # magazines off there are no refills and no hits.
    hits = allocs - huge - refills if refills > 0 else 0.0
    bin_probes = c("global_bin_hits") + c("global_bin_misses")
    cpu = r["utime_s"] + r["stime_s"]
    metrics = span_metrics("%s.spans.tsv" % out)
    metrics.update({
        "core.magazine.hit_ratio": (ratio(hits, allocs), "fraction"),
        "core.magazine.refills_per_kreq": (ratio(refills, kreq), "1/kreq"),
        "core.magazine.flushes_per_kreq": (ratio(c("batch_flushes"), kreq),
                                           "1/kreq"),
        "core.heap.fast_cycles.p99": (q99("malloc_fast"), "cycles"),
        "core.heap.refill_cycles.p99": (q99("malloc_refill"), "cycles"),
        "core.heap.transfers_per_kreq": (
            ratio(c("superblock_transfers"), kreq), "1/kreq"),
        "core.heap.lock_wait_cycles.p99": (window_quantile(
            start, stop, "hoard_lock_wait_cycles", None, 0.99), "cycles"),
        "core.heap.lock_wait_cycles.sum": (window_sum(
            start, stop, "hoard_lock_wait_cycles"), "cycles"),
        "core.remote.free_ratio": (ratio(c("remote_frees"), c("frees")),
                                   "fraction"),
        "core.remote.push_cycles.p99": (q99("free_remote_push"), "cycles"),
        "core.remote.drain_cycles.p99": (q99("owner_drain"), "cycles"),
        "core.global.fetches_per_kreq": (ratio(c("global_fetches"), kreq),
                                         "1/kreq"),
        "core.global.bin_hit_ratio": (ratio(c("global_bin_hits"),
                                            bin_probes), "fraction"),
        "core.global.cache_pop_ratio": (ratio(c("cache_pops"),
                                              c("cache_pushes")), "fraction"),
        "core.global.fetch_cycles.p99": (q99("malloc_global_fetch"),
                                         "cycles"),
        "core.huge.allocs_per_kreq": (ratio(huge, kreq), "1/kreq"),
        # free_fast mixes huge and small frees; it is the huge free only
        # where every malloc was huge (large_buffers), and 0 elsewhere.
        "core.huge.free_cycles.p99": (
            q99("free_fast") if allocs and huge >= 0.99 * allocs else 0.0,
            "cycles"),
        "os.fresh_map_cycles.p99": (q99("malloc_fresh_map"), "cycles"),
        "os.superblock_maps_per_kreq": (ratio(
            s["pre_stop"]["superblock_allocs"]
            - s["post_start"]["superblock_allocs"], kreq), "1/kreq"),
        "os.minor_faults_per_req": (ratio(r["minflt"], reqs), "1/req"),
        "os.sys_time_share": (ratio(r["stime_s"], cpu), "fraction"),
        "os.committed_peak_mib": (s["post_end"]["committed_peak"] / MIB,
                                  "MiB"),
    })
    for name, value in ledger.items():
        metrics[name] = (value, "ns")
    traced, untraced = requests_per_s(r), requests_per_s(plain)
    glibc = requests_per_s(libc)
    metrics.update({
        "ref.glibc.requests_per_s": (glibc, "1/s"),
        "ref.glibc.peak_rss_mib": (rss_mib(libc, "peak_rss_kib"), "MiB"),
        "ref.hoard_over_glibc.requests_per_s": (untraced / glibc, "ratio"),
        "ref.hoard_over_glibc.peak_rss": (
            rss_mib(plain, "peak_rss_kib") / rss_mib(libc, "peak_rss_kib"),
            "ratio"),
        "trace.untraced_requests_per_s": (untraced, "1/s"),
        "trace.traced_requests_per_s": (traced, "1/s"),
        "trace.overhead_frac": (1.0 - traced / untraced, "fraction"),
    })
    checks = reconcile(r, prom["end"])
    runs = (plain, r, libc)
    failed = sum(failures(x) for x in runs)
    attempted = sum(x["calls"] for x in runs)
    info = {"failed_ops_frac": (failed / attempted, "fraction"),
            "spans_file": (str(out) + ".spans.tsv", "path")}
    return {"correct": failed == 0 and all(checks.values()),
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "info": info, "checks": checks}


# ---------------------------------------------------------------- reporting

def measure(workload, seed, seconds, trace, tiny=False, build_path=None):
    build_path = build_path or build()
    fn = per_layer if trace else end_to_end
    return fn(build_path, workload, seed, seconds, tiny)


def show(workload, trace, result):
    """Every metric by name with its unit, for people; stdout."""
    title = "per-layer (traced run)" if trace else "end-to-end"
    print("== %s: %s" % (workload, title))
    for table in ("metrics", "info"):
        for name, (value, unit) in result[table].items():
            text = ("%.6g" % value) if isinstance(value, float) else str(value)
            print("  %-40s %16s  %s" % (name, text, unit))
    for check, ok in result["checks"].items():
        print("  reconcile %-50s %s" % (check, "ok" if ok else "MISMATCH"))
    if result["failed"]:
        print("  FAILED allocator calls: %d of %d"
              % (result["failed"], result["attempted"]))


def summary(result):
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in result["metrics"].items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        path = build()
        if args.workload == "all":
            report, ok = {}, True
            for workload in WORKLOADS:
                for trace in (0, 1):
                    res = measure(workload, args.seed, args.seconds, trace,
                                  build_path=path)
                    show(workload, trace, res)
                    report["%s/%s" % (workload, trace)] = summary(res)
                    ok = ok and res["correct"]
            print(json.dumps(report))
            return 0 if ok else 1
        res = measure(args.workload, args.seed, args.seconds, args.trace,
                      build_path=path)
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2
    show(args.workload, args.trace, res)
    print(json.dumps(summary(res)))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
