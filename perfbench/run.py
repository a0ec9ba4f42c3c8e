#!/usr/bin/env python3
"""End-to-end benchmark of gpusimpow.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_sweep --seed 1 \
        --seconds 12 --trace 0

Builds the `perfbench` binary (perfbench/CMakeLists.txt) into
.bench_build/perfbench on first use, runs one workload, and prints as
the last line of standard output one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones
(see perfbench/README.md). Exits non-zero without a result when the
simulator sources are missing or the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ("cold_sweep", "warm_service", "traced_thermal")
# Workloads of the cold mix; one perf.capture_s.<workload> each.
COLD_MIX = ("heartwall", "kmeans", "bfs", "hotspot", "matmul",
            "blackscholes", "scalarprod", "vectoradd", "needle")
# Spans of a layer (everything but the engine's own scheduling frames
# and the benchmark's spans); trace.unattributed_frac is the share of
# worker busy time none of them covers.
LAYER_PREFIXES = ("sim/", "power/", "thermal/", "store/", "snapshot/")
UNIT_SPANS = ("engine/batch_group", "engine/scenario")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("model_err_pct", "%"),
)


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {
        "perf.capture_s": "s",
        "perf.winst_per_s": "winst/s",
        "perf.cycles_per_s": "cycles/s",
    }
    for w in COLD_MIX:
        units["perf.capture_s." + w] = "s"
    units.update({
        "engine.busy_s": "s",
        "engine.busy_frac": "frac",
        "engine.idle_s": "s",
        "engine.builds": "count",
        "engine.captured": "count",
        "engine.replayed": "count",
        "sim.setup_s": "s",
        "sim.replay_s": "s",
        "snapshot.parse_s": "s",
        "snapshot.bytes": "B",
        "store.open_s": "s",
        "store.fetch_s": "s",
        "store.put_s": "s",
        "store.hit": "count",
        "store.miss": "count",
        "store.put": "count",
        "power.batched_eval_s": "s",
        "power.variant_intervals_per_s": "1/s",
        "power.compile_s": "s",
        "thermal.steady_s": "s",
        "thermal.iters_per_solve": "count",
        "thermal.transient_s": "s",
        "service.job_s": "s",
        "service.server_job_s": "s",
        "service.overhead_s": "s",
        "service.first_row_s": "s",
        "service.rows": "count",
        "service.errors": "count",
        "trace.overhead_frac": "frac",
        "trace.unattributed_frac": "frac",
        "job_tail_s": "s",
        "job_tail_pct": "%",
        "job_tail_n": "count",
    })
    return units


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "session.hh")):
        fail("no simulator sources next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "..", "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            # Build output goes to stderr: stdout carries the result.
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def run_binary(args):
    """Prepare (oracle, primed store, model error) in one process, then
    time the workload in a fresh one, so the untimed work inflates
    neither its clocks nor its peak memory."""
    work = os.path.join(ROOT, ".bench_build",
                        "work-%s-%d" % (args.workload, os.getpid()))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work]
    deadline = time.monotonic() + 170

    def perfbench(*extra):
        proc = subprocess.run([BINARY] + list(extra) + common,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.monotonic()))
        if proc.returncode != 0:
            fail("perfbench %s exited with %d" % (extra[0], proc.returncode))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        prepared = perfbench("prepare")
        raw = perfbench("run", "--seconds", str(args.seconds),
                     "--trace", str(args.trace))
        raw["model_err_pct"] = prepared["model_err_pct"]
        if args.trace:
            raw["spans"] = trace_spans(raw["traced"]["trace_file"])
        return raw
    except subprocess.TimeoutExpired:
        fail("perfbench timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------- trace file

def trace_spans(path):
    """Per-workload capture time and span coverage of worker time."""
    with open(path) as fh:
        events = json.load(fh)["traceEvents"]
    tracks = {}
    for e in events:
        if e.get("ph") == "X":
            tracks.setdefault(e["tid"], []).append(e)
    capture_by = {}
    covered = busy = 0.0
    for track in tracks.values():
        # Ring order is completion order: the capture spans a worker
        # finished before a bench/row marker belong to that row.
        pending = 0.0
        units, layers = [], []
        for e in track:
            name, t0, dur = e["name"], float(e["ts"]), float(e["dur"])
            if name == "sim/capture":
                pending += dur
            elif name.startswith("bench/row/"):
                w = name[len("bench/row/"):]
                capture_by[w] = capture_by.get(w, 0.0) + pending
                pending = 0.0
            if name in UNIT_SPANS:
                units.append((t0, t0 + dur))
            elif name.startswith(LAYER_PREFIXES):
                layers.append((t0, t0 + dur))
        units, layers = merge(units), merge(layers)
        busy += sum(b - a for a, b in units)
        covered += overlap(units, layers)
    return {
        "capture_by_workload_s": {w: us * 1e-6
                                  for w, us in capture_by.items()},
        "unattributed_frac": 1.0 - covered / busy if busy else 0.0,
    }


def merge(intervals):
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def overlap(xs, ys):
    """Total length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(xs) and j < len(ys):
        lo, hi = max(xs[i][0], ys[j][0]), min(xs[i][1], ys[j][1])
        total += max(0.0, hi - lo)
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total


# ---------------------------------------------------------------- metrics

def end_to_end(raw):
    sec = raw["untraced"]
    values = {
        "setup_s": median(raw["setup_s"]),
        "wall_s": median(sec["pass_wall_s"]),
        "cpu_s": median(sec["pass_cpu_s"]),
        "job_p50_s": median(sec["job_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "model_err_pct": raw["model_err_pct"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def job_tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    k = max(0, n - 11)
    return xs[k], 100.0 * (k + 1) / n, n


def per_layer(raw):
    sec = raw["traced"]
    c = sec["counters"]
    passes = float(len(sec["pass_wall_s"]))
    rows = sec["rows"]

    def span_s(name):
        return c.get("span/%s_ns" % name, 0) * 1e-9

    def per_pass(value):
        return value / passes

    capture_s = span_s("sim/capture")
    batched_s = span_s("power/batched_eval")
    # Worker capacity is every job's workers over the job's whole
    # latency, so a worker left without work while its job waits for
    # the longest scenario counts as idle.
    busy = c.get("engine/worker_busy_ns", 0) * 1e-9
    capacity = raw["workers_per_job"] * sum(sec["job_s"])
    jobs = float(len(sec["job_s"]))
    client_job_s = statistics.fmean(sec["job_s"]) if sec["job_s"] else 0.0
    server_job_s = span_s("service/job") / jobs if jobs else 0.0
    is_service = raw["workload"] == "warm_service"
    tail_s, tail_pct, tail_n = job_tail(raw["untraced"]["job_s"])

    v = {
        "perf.capture_s": per_pass(capture_s),
        "perf.winst_per_s":
            rows["issued_insts"] / capture_s if capture_s else 0.0,
        "perf.cycles_per_s":
            rows["cycles"] / capture_s if capture_s else 0.0,
    }
    by = raw["spans"]["capture_by_workload_s"]
    for w in COLD_MIX:
        v["perf.capture_s." + w] = per_pass(by.get(w, 0.0))
    v.update({
        "engine.busy_s": per_pass(busy),
        "engine.busy_frac": busy / capacity if capacity else 0.0,
        "engine.idle_s": per_pass(max(0.0, capacity - busy)),
        "engine.builds": per_pass(c.get("engine/simulator_builds", 0)),
        "engine.captured": per_pass(c.get("engine/scenarios_captured", 0)),
        "engine.replayed": per_pass(c.get("engine/scenarios_replayed", 0)),
        "sim.setup_s": per_pass(span_s("sim/setup")),
        "sim.replay_s": per_pass(span_s("sim/replay")),
        "snapshot.parse_s": per_pass(span_s("snapshot/parse")),
        "snapshot.bytes": float(raw["store_bytes"]),
        "store.open_s": per_pass(span_s("store/open")),
        "store.fetch_s": per_pass(span_s("store/fetch")),
        "store.put_s": per_pass(span_s("store/put")),
        "store.hit": per_pass(c.get("store/hit", 0)),
        "store.miss": per_pass(c.get("store/miss", 0)),
        "store.put": per_pass(c.get("store/put", 0)),
        "power.batched_eval_s": per_pass(batched_s),
        "power.variant_intervals_per_s":
            rows["variant_intervals"] / batched_s if batched_s else 0.0,
        "power.compile_s": per_pass(span_s("power/compile")),
        "thermal.steady_s": per_pass(span_s("thermal/steady")),
        "thermal.iters_per_solve":
            rows["thermal_iters"] / rows["thermal_solves"]
            if rows["thermal_solves"] else 0.0,
        "thermal.transient_s": per_pass(span_s("thermal/transient")),
        "service.job_s": client_job_s if is_service else 0.0,
        "service.server_job_s": server_job_s,
        "service.overhead_s":
            client_job_s - server_job_s if is_service else 0.0,
        "service.first_row_s": median(sec["first_row_s"]),
        "service.rows": per_pass(c.get("service/rows", 0)),
        "service.errors": per_pass(c.get("service/errors", 0)),
        "trace.overhead_frac":
            median(sec["pass_wall_s"]) /
            median(raw["untraced"]["pass_wall_s"]) - 1.0,
        "trace.unattributed_frac": raw["spans"]["unattributed_frac"],
        "job_tail_s": tail_s,
        "job_tail_pct": tail_pct,
        "job_tail_n": float(tail_n),
    })
    return {name: {"value": v[name], "unit": unit}
            for name, unit in per_layer_units().items()}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    build()
    raw = run_binary(args)
    sections = [raw["untraced"]] + ([raw["traced"]] if args.trace else [])
    attempted = sum(s["attempted"] for s in sections)
    failed = sum(s["failed"] for s in sections)
    for s in sections:
        for f in s["failures"]:
            print("perfbench: failed: " + f, file=sys.stderr)
    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    print("perfbench: %s seed %d done in %.1f s" %
          (args.workload, args.seed, time.monotonic() - t0),
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
