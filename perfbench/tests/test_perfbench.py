#!/usr/bin/env python3
"""Tests of the host-time benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark the way perfbench/run.py does and checks that
 - the percentile helper follows the ten-samples-beyond rule;
 - a tampered pinned digest, or a tampered replay counter, fails the run
   with fail_frac > 0 and a nonzero exit;
 - another seed generates other inputs while every check still passes.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def run_bench(*args):
    """Runs run.py; returns (exit code, report, result line)."""
    p = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                       capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"no result (exit {p.returncode}):\n{p.stderr}")
    return p.returncode, json.loads(lines[-2])["report"], json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def test_percentile_rule(self):
        run_bench("--workload", "replay-zoo", "--seconds", "1")  # builds
        subprocess.run(["cmake", "--build", BUILD, "--target",
                        "perfbench_selftest"], check=True,
                       stdout=subprocess.DEVNULL)
        p = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_tampered_digest_fails(self):
        code, report, result = run_bench("--workload", "sim-sweep",
                                          "--seconds", "1", "--tamper", "digest")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(report["metrics"]["fail_frac"]["value"], 0)
        self.assertTrue(any("digest" in f for f in report["failures"]))

    def test_tampered_counter_fails(self):
        code, report, result = run_bench("--workload", "replay-zoo",
                                          "--seconds", "4", "--tamper", "counter")
        self.assertNotEqual(code, 0)
        self.assertGreater(result["failed"], 0)
        self.assertGreater(report["metrics"]["fail_frac"]["value"], 0)
        self.assertTrue(any("TraceStats" in f for f in report["failures"]))

    def test_seed_changes_inputs_and_checks_pass(self):
        digests = []
        for seed in ("1", "2"):
            code, report, result = run_bench("--workload", "replay-zoo",
                                              "--seconds", "4", "--seed", seed)
            self.assertEqual(code, 0, report["failures"])
            self.assertTrue(result["correct"])
            self.assertEqual(report["metrics"]["fail_frac"]["value"], 0)
            digests.append(report["input_digest"])
        self.assertNotEqual(digests[0], digests[1])


if __name__ == "__main__":
    unittest.main()
