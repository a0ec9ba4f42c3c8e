#!/usr/bin/env python3
"""CI benchmark-regression gate.

Compares benchmark-result JSON files (Google-Benchmark format, or the
compatible format bench_sweep_throughput emits) against the committed
bench/baseline.json and fails when any gated metric regresses past
its tolerance.

Baseline format:

    {
      "tolerance": 0.15,
      "metrics": {
        "<benchmark name>:<metric>": {
          "baseline": <number>,
          "higher_is_better": true|false,
          "tolerance": <optional per-metric override>
        }
      }
    }

Throughput-style metrics ("higher_is_better": true) fail when the
current value drops below baseline * (1 - tolerance); latency-style
metrics fail when it rises above baseline * (1 + tolerance).

Baselines for absolute times/throughputs are deliberately slack
(CI runner hardware varies); they catch order-of-magnitude
regressions. Ratio metrics (one production path's rate over
another's) are close to machine-independent and can carry tight
baselines at the 15% default tolerance.

Usage:
    check_bench_regression.py --baseline bench/baseline.json \
        BENCH_sweep.json [BENCH_sim.json ...]
    check_bench_regression.py --self-test
"""

import argparse
import json
import os
import sys
import tempfile


def collect_metrics(paths):
    """Flatten every numeric field of every benchmark entry into a
    "name:metric" -> value map."""
    metrics = {}
    for path in paths:
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(
                f"error: cannot read benchmark results {path}: {exc}")
        if not isinstance(data, dict):
            raise SystemExit(
                f"error: {path} is not a benchmark-result object")
        for entry in data.get("benchmarks", []):
            if not isinstance(entry, dict):
                continue
            name = entry.get("name")
            if not name:
                continue
            for key, value in entry.items():
                if key == "name":
                    continue
                if isinstance(value, (int, float)) and not isinstance(
                        value, bool):
                    metrics[f"{name}:{key}"] = float(value)
    return metrics


def check(baseline_path, current_paths):
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read baseline {baseline_path}: {exc}",
              file=sys.stderr)
        return 2
    default_tol = float(baseline.get("tolerance", 0.15))
    gated = baseline.get("metrics", {})
    if not gated:
        print("error: baseline defines no gated metrics",
              file=sys.stderr)
        return 2

    current = collect_metrics(current_paths)

    failures = []
    width = max(len(k) for k in gated)
    print(f"{'metric':<{width}} {'baseline':>14} {'current':>14} "
          f"{'bound':>14}  verdict")
    for key in sorted(gated):
        spec = gated[key]
        if not isinstance(spec, dict) or "baseline" not in spec:
            print(f"error: baseline entry '{key}' has no 'baseline' "
                  f"value — fix bench/baseline.json", file=sys.stderr)
            return 2
        try:
            base = float(spec["baseline"])
        except (TypeError, ValueError):
            print(f"error: baseline entry '{key}' has a non-numeric "
                  f"'baseline' value {spec['baseline']!r}",
                  file=sys.stderr)
            return 2
        higher = bool(spec.get("higher_is_better", True))
        tol = float(spec.get("tolerance", default_tol))
        value = current.get(key)
        if value is None:
            # A gated metric the measured JSON never produced is a
            # hard failure (the benchmark was renamed, skipped, or
            # crashed) — report it clearly instead of crashing.
            failures.append(f"{key}: missing from current results "
                            "(benchmark renamed, skipped, or failed?)")
            print(f"{key:<{width}} {base:>14.4g} {'-':>14} "
                  f"{'-':>14}  MISSING")
            continue
        bound = base * (1 - tol) if higher else base * (1 + tol)
        ok = value >= bound if higher else value <= bound
        verdict = "ok" if ok else "REGRESSION"
        print(f"{key:<{width}} {base:>14.4g} {value:>14.4g} "
              f"{bound:>14.4g}  {verdict}")
        if not ok:
            direction = "below" if higher else "above"
            failures.append(
                f"{key}: {value:.4g} is {direction} the "
                f"{tol:.0%}-tolerance bound {bound:.4g} "
                f"(baseline {base:.4g})")

    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed "
          f"({len(gated)} metrics)")
    return 0


def self_test():
    """Exercise the gate's own failure handling: every scenario must
    produce a clean verdict and exit code, never a traceback."""

    def run_case(name, baseline_obj, current_obj, expected_rc):
        with tempfile.TemporaryDirectory() as tmp:
            baseline_path = os.path.join(tmp, "baseline.json")
            current_path = os.path.join(tmp, "current.json")
            with open(baseline_path, "w") as bf:
                json.dump(baseline_obj, bf)
            with open(current_path, "w") as cf:
                json.dump(current_obj, cf)
            rc = check(baseline_path, [current_path])
        status = "ok" if rc == expected_rc else "FAILED"
        print(f"self-test [{name}]: rc={rc} "
              f"(expected {expected_rc}) ... {status}",
              file=sys.stderr)
        return rc == expected_rc

    good_baseline = {
        "tolerance": 0.15,
        "metrics": {"bench/x:metric": {"baseline": 10.0,
                                       "higher_is_better": True}},
    }
    passing = {"benchmarks": [{"name": "bench/x", "metric": 11.0}]}
    regressed = {"benchmarks": [{"name": "bench/x", "metric": 1.0}]}
    missing = {"benchmarks": [{"name": "bench/y", "metric": 11.0}]}
    malformed_baseline = {
        "metrics": {"bench/x:metric": {"higher_is_better": True}}}
    nonnumeric_baseline = {
        "metrics": {"bench/x:metric": {"baseline": "fast",
                                       "higher_is_better": True}}}
    # A slack absolute throughput next to a tight ratio, both from
    # one result file: the ratio alone can fail the gate.
    ratio_baseline = {
        "tolerance": 0.15,
        "metrics": {
            "bench/fast:scenarios_per_s": {
                "baseline": 60.0, "higher_is_better": True},
            "bench/fast_vs_slow:speedup": {
                "baseline": 8.0, "higher_is_better": True},
        },
    }
    ratio_ok = {"benchmarks": [
        {"name": "bench/fast", "scenarios_per_s": 240.0},
        {"name": "bench/fast_vs_slow", "speedup": 16.8},
    ]}
    ratio_low = {"benchmarks": [
        {"name": "bench/fast", "scenarios_per_s": 240.0},
        {"name": "bench/fast_vs_slow", "speedup": 4.5},
    ]}

    ok = True
    ok &= run_case("pass", good_baseline, passing, 0)
    ok &= run_case("regression", good_baseline, regressed, 1)
    ok &= run_case("metric missing from measured JSON",
                   good_baseline, missing, 1)
    ok &= run_case("baseline entry without 'baseline' value",
                   malformed_baseline, passing, 2)
    ok &= run_case("baseline entry with a non-numeric 'baseline'",
                   nonnumeric_baseline, passing, 2)
    ok &= run_case("empty baseline", {"metrics": {}}, passing, 2)
    ok &= run_case("absolute and ratio metrics pass",
                   ratio_baseline, ratio_ok, 0)
    ok &= run_case("ratio below its floor, throughput fine",
                   ratio_baseline, ratio_low, 1)
    if not ok:
        print("self-test FAILED", file=sys.stderr)
        return 1
    print("self-test passed (8 scenarios)", file=sys.stderr)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline",
                        help="committed baseline JSON")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate's own error-handling tests")
    parser.add_argument("current", nargs="*",
                        help="benchmark result JSON files")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("--baseline and at least one result file are "
                     "required (or use --self-test)")
    return check(args.baseline, args.current)


if __name__ == "__main__":
    sys.exit(main())
