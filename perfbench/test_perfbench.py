#!/usr/bin/env python3
"""Tests of the benchmark itself: run from the repository root with

    python3 perfbench/test_perfbench.py

They shrink every op (--size, --max-ops) so the whole file runs in well under
a minute once the binary is built, and check the output contract, not
performance.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Items per campaign for the smoke runs; the grid has a fixed size.
TINY = {"fuzz-dnsproxy": 1000, "fleet": 2000, "grid": 0}


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def tiny(workload, trace, *extra):
    result = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--size", str(TINY[workload]),
                   "--max-ops", "2", *extra)
    if result.returncode != 0:
        raise AssertionError("run.py failed:\n" + result.stderr[-2000:])
    lines = result.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


class Smoke(unittest.TestCase):
    def check(self, workload, trace, declared):
        out, before = tiny(workload, trace)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"], out)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in out["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})
        for name, m in out["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertTrue(math.isfinite(m["value"]), name)
            self.assertGreaterEqual(m["value"], 0, name)
        meta = [line for line in before if line.startswith("# meta ")]
        self.assertEqual(len(meta), 1)
        meta = json.loads(meta[0][len("# meta "):])
        for key in ("cpu_model", "nproc", "compiler", "build_type", "ops",
                    "steal_ticks"):
            self.assertIn(key, meta)
        # Untraced runs pool several processes (one layout each); a traced
        # run is one process.
        if trace:
            self.assertEqual(meta["processes"], 1)
        else:
            self.assertGreater(meta["processes"], 1)
            self.assertGreaterEqual(out["attempted"], meta["processes"])
        return out["metrics"]

    def test_every_workload_emits_every_declared_metric(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                e2e = self.check(workload, 0, SPEC["end_to_end"])
                for name, m in e2e.items():
                    self.assertGreater(m["value"], 0, name)
                layers = self.check(workload, 1, SPEC["per_layer"])
                # The traced op reproduced the untraced op's fingerprint
                # (otherwise correct would be false) and its spans cover it.
                # Only the fuzz replica can miss: fleet and grid coverage is
                # a program span over the op, near 1 by construction.
                coverage = layers["span_coverage"]["value"]
                self.assertGreaterEqual(coverage, 0.95)
                if workload.startswith("fuzz-"):
                    self.assertLess(coverage, 1.0)
                self.assertGreater(layers["trace_overhead"]["value"], 0)


class Gate(unittest.TestCase):
    def test_wrong_expected_fingerprint_fails_every_op(self):
        out, _ = tiny("fuzz-dnsproxy", 0, "--expect", "0000000000000000/0")
        self.assertFalse(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], out["attempted"])

    def test_wrong_expected_fingerprint_fails_traced_ops(self):
        out, _ = tiny("grid", 1, "--expect", "not the grid")
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], out["attempted"])


class Checkout(unittest.TestCase):
    def test_refuses_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "b"))
            result = bench("--workload", "grid", "--seed", "1", "--seconds",
                           "1", "--trace", "0", cwd=tmp, env=env)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()
