#!/usr/bin/env python3
"""Smoke test of the benchmark command at tiny input sizes.

    python3 perfbench/tests/test_smoke.py

Runs every workload through perfbench/run.py, untraced and traced, and checks the result line: every end-to-end (untraced) or
per-layer (traced) metric is emitted by name with its unit, and every
operation passed its correctness gate. Then injects a verification
failure into each workload and checks that it is counted as a failed
operation and fails the run.
"""

import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable] + SPEC["command"][1:]
# Two workloads run by hand only (perfbench/README.md says why), but they
# are tested like the others.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + [
    "paper_alg3_discharge", "serve_http_c4"]


def run(workload, trace, *extra):
    """Runs one tiny-scale run; returns (exit code, parsed last line)."""
    completed = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", "3", "--seconds", "0.3",
                   "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, json.loads(lines[-1]) if lines else None


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, definitions):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]),
                         {d["name"] for d in definitions})
        for definition in definitions:
            metric = result["metrics"][definition["name"]]
            self.assertEqual(metric["unit"], definition["unit"])
            self.assertIsInstance(metric["value"], (int, float))

    def test_every_metric_is_emitted_and_correct(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(workload, trace)
                    self.assertEqual(code, 0)
                    self.check_metrics(result, SPEC[key])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    if trace == 0:
                        for definition in SPEC[key]:
                            self.assertGreater(
                                result["metrics"][definition["name"]]["value"],
                                0, definition["name"])

    def test_injected_verification_failure_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 0, "--inject-verify-failure")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertGreater(result["attempted"], result["failed"])


if __name__ == "__main__":
    unittest.main()
