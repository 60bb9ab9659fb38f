#!/usr/bin/env python3
"""Smoke tests of the benchmark: every workload, at tiny sizes, emits every
metric BENCHMARK.json names, with its unit, and reports correct outputs.

    python3 perfbench/test_perfbench.py

Run from the repository root; the first test builds the harness.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, env=None):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, env=env, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, workload, trace, expected):
        proc = run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                   "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(units, {m["name"]: m["unit"] for m in expected})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        return result, proc.stdout

    def test_end_to_end_metrics_for_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.check_metrics(workload, 0, SPEC["end_to_end"])
                for name in ("fit_s", "cpu_s", "setup_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)

    def test_per_layer_metrics_and_spans_for_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, stdout = self.check_metrics(workload, 1, SPEC["per_layer"])
                self.assertIn("span fit ", stdout)
                self.assertIn("span probe.linalg.chol_solve ", stdout)

    def test_same_seed_same_quality(self):
        quality = ("support_f1", "rel_l2_err")
        runs = [result_of(run("--workload", "lasso_dist", "--seed", "5",
                              "--seconds", "0.1", "--smoke"))
                for _ in range(2)]
        for name in quality:
            self.assertEqual(runs[0]["metrics"][name],
                             runs[1]["metrics"][name], name)

    def test_refuses_behaviour_changing_variables(self):
        env = dict(os.environ, UOI_SIMD="scalar")
        proc = run("--workload", "lasso_dist", "--seconds", "0.1", "--smoke",
                   env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_references_cover_default_and_held_out_seeds(self):
        seeds = {}
        with open(os.path.join(HERE, "references.tsv")) as f:
            for line in f:
                if line.strip() and not line.startswith("#"):
                    name, seed = line.split()[:2]
                    seeds.setdefault(name, set()).add(int(seed))
        for workload in WORKLOADS:
            self.assertEqual(seeds.get(workload), {1, 2}, workload)


if __name__ == "__main__":
    unittest.main()
