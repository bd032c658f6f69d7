#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny length.

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
the deterministic metrics repeat exactly across two runs with one seed, and
that an injected invalid job is counted as failed without breaking the run.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = "1"
SEED = "7"
# Deterministic for a fixed seed (compile quality over a fixed suite; mapper
# runs over a fixed job prefix). The hybrid service batches by arrival, so
# its mapper-run count is excluded.
DETERMINISTIC = ["swaps_per_job", "twoq_per_job", "neg_log_success"]
DETERMINISTIC_TRACED = ["map.mapper_runs"]


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace),
         *extra], capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = out.stdout.strip().splitlines()
    assert lines, f"{workload}: no output; stderr:\n{out.stderr[-2000:]}"
    return out.returncode, json.loads(lines[-1]), out.stdout


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics_and_determinism(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code1, first, _ = run(workload, 0)
                code2, second, _ = run(workload, 0)
                for code, result in ((code1, first), (code2, second)):
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, SPEC["end_to_end"])
                for name in DETERMINISTIC:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_per_layer_metrics_and_determinism(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code1, first, _ = run(workload, 1)
                code2, second, _ = run(workload, 1)
                for code, result in ((code1, first), (code2, second)):
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.check_metrics(result, SPEC["per_layer"])
                if workload != "hybrid-service":
                    for name in DETERMINISTIC_TRACED:
                        self.assertEqual(first["metrics"][name]["value"],
                                         second["metrics"][name]["value"],
                                         name)

    def test_injected_bad_job_counts_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, stdout = run(workload, 0, "--inject-bad-job")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertIn(f"# failed_share {1 / result['attempted']:.6f}",
                              stdout)
                self.check_metrics(result, SPEC["end_to_end"])


if __name__ == "__main__":
    unittest.main()
