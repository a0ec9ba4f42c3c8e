#!/usr/bin/env python3
"""Steadiness tool of the end-to-end benchmark.

Runs perfbench/run.py repeatedly on each workload, one seed per run,
and prints for every metric the median, the quartiles and the spread
(distance between the quartiles as a share of the median, computed
with statistics.quantiles(values, n=4)). The spread, set against each
end-to-end metric's bound in BENCHMARK.json, is what decides whether
the benchmark is steady enough.

    python3 perfbench/steady.py --runs 10 --seconds 15
    python3 perfbench/steady.py --workload cold_sweep --runs 5 --trace 1
    python3 perfbench/steady.py --held-back      # the held-back seed

Seeds 1..N are the tuning seeds. HELD_BACK_SEED is never used to tune
anything; a claimed gain must also hold on it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HELD_BACK_SEED = 20261017


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=os.path.dirname(HERE))
    if proc.returncode != 0:
        raise SystemExit("run failed: " + " ".join(cmd))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-back", action="store_true",
                    help="run only the held-back seed, --runs times")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        seeds = ([HELD_BACK_SEED] * args.runs if args.held_back else
                 range(args.first_seed, args.first_seed + args.runs))
        values, failed = {}, 0
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            failed += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("# %s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (n, m["value"])
                for n, m in result["metrics"].items()
                if n in bounds)), file=sys.stderr, flush=True)
        print("%s: %d runs, %d failed" % (workload, len(seeds), failed))
        print("  %-32s %12s %12s %12s %8s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vs in values.items():
            med, q1, q3, sp = spread(vs)
            bound = bounds.get(name)
            flag = "" if bound is None else (
                "  ok" if sp <= bound / 3 else
                "  WIDE" if sp > bound else "  >1/3")
            print("  %-32s %12.6g %12.6g %12.6g %8.4f %8s%s" %
                  (name, med, q1, q3, sp,
                   "-" if bound is None else "%.3f" % bound, flag))
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
