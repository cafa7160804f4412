#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Runs a tiny shape of every workload, untraced and traced, and checks
that each metric BENCHMARK.json names is emitted with its unit, that
the extra end-to-end lines are printed, that the correctness gate fails
a run whose timed result has one byte flipped, and that the benchmark
refuses to run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("paper_grid", "sharded_grid", "sharded_storm", "fleet_capped")


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, *extra, cwd=ROOT, run=RUN):
    cmd = [sys.executable, run, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--shape", "tiny"]
    proc = subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, lines, result


def printed(lines, name):
    """The value of a human-readable metric line, or None."""
    for line in lines:
        parts = line.split()
        if len(parts) >= 2 and parts[0] == name:
            return parts[1]
    return None


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.config = load_config()

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for m in declared:
            entry = result["metrics"][m["name"]]
            self.assertEqual(set(entry), {"value", "unit"})
            self.assertEqual(entry["unit"], m["unit"], m["name"])
            self.assertIsInstance(entry["value"], (int, float))

    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc, lines, result = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, self.config[key])
                    self.assertEqual(printed(lines, "job_fail_share"), "0")
                    self.assertIsNotNone(printed(lines, "output_digest"))
                    if workload != "fleet_capped":
                        self.assertIsNotNone(printed(lines, "paper_gap_pp"))
                    if trace == 1:
                        self.assertGreater(
                            result["metrics"]["sim.ticks"]["value"], 0)
                        self.assertIsNotNone(printed(lines, "unattributed"))

    def test_gate_fails_a_flipped_byte(self):
        for workload in ("paper_grid", "fleet_capped"):
            with self.subTest(workload=workload):
                proc, lines, result = run_bench(workload, 0, "--flip-byte")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertGreater(float(printed(lines, "job_fail_share")), 0)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc, _, result = run_bench(
                "paper_grid", 0, cwd=bare,
                run=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
