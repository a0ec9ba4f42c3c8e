#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark binary like run.py does, then checks that the
metric names match BENCHMARK.json, that the job plans are
seed-deterministic, that the oracle catches a perturbed row, that
each workload exercises the layers it claims, and that the benchmark
refuses to run without the simulator sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def binary(*args):
    return subprocess.run([run.BINARY] + list(args),
                          stdout=subprocess.PIPE, text=True)


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.returncode
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.bench = json.load(fh)

    def test_metric_names_match_benchmark_json(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.bench["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.bench["per_layer"]],
            list(run.per_layer_units().items()))
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def test_plan_is_seed_deterministic(self):
        for workload in run.WORKLOADS:
            a = binary("plan", "--workload", workload, "--seed", "5")
            b = binary("plan", "--workload", workload, "--seed", "5")
            c = binary("plan", "--workload", workload, "--seed", "6")
            self.assertEqual(a.returncode, 0)
            self.assertEqual(a.stdout, b.stdout)
            self.assertNotEqual(a.stdout, c.stdout)

    def test_oracle_catches_perturbed_rows(self):
        proc = binary("self-test")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)

    def test_workloads_exercise_their_layers(self):
        cold = traced_run("cold_sweep")
        self.assertTrue(cold["correct"])
        m = {k: v["value"] for k, v in cold["metrics"].items()}
        self.assertGreaterEqual(m["perf.capture_s"],
                                0.9 * m["engine.busy_s"])
        self.assertEqual(m["engine.replayed"], 0)
        self.assertEqual(m["store.hit"], 0)

        warm = traced_run("warm_service")
        self.assertTrue(warm["correct"])
        m = {k: v["value"] for k, v in warm["metrics"].items()}
        self.assertEqual(m["perf.capture_s"], 0)
        self.assertEqual(m["engine.captured"], 0)
        self.assertGreater(m["service.server_job_s"], 0)
        self.assertGreater(m["thermal.steady_s"], 0)
        self.assertEqual(m["power.batched_eval_s"], 0)

        traced = traced_run("traced_thermal")
        self.assertTrue(traced["correct"])
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        self.assertEqual(m["perf.capture_s"], 0)
        self.assertEqual(m["engine.captured"], 0)
        self.assertGreater(m["store.fetch_s"], 0)
        self.assertGreater(m["power.batched_eval_s"], 0)
        self.assertGreater(m["thermal.transient_s"], 0)
        self.assertEqual(m["service.rows"], 0)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "cold_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, cwd=bare, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
