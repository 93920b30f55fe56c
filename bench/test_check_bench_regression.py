#!/usr/bin/env python3
"""Self-test for check_bench_regression.py's digest gate.

    python3 bench/test_check_bench_regression.py

Runs the checker on small baseline/fresh artifact pairs and asserts its
exit code: an equal digest passes, a differing one fails, and one missing
from the fresh artifact fails — for the fuzz artifact's coverage_digest and
the fleet artifact's fleet_curve_digest. The measurement metadata every
artifact carries (host, compiler, build_type, nproc, repetitions) is never
gated.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_regression.py")

BASELINE = {"execs_per_sec": 1000.0, "coverage_digest": "d8788bc796ab373c"}
FLEET_BASELINE = {"fleet_victims_per_sec": 250000.0,
                  "fleet_curve_digest": "2b58f6fb2f768f51"}


def run_checker(baseline, fresh):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, artifact in (("baseline.json", baseline),
                               ("fresh.json", fresh)):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(artifact, f)
            paths.append(path)
        env = dict(os.environ)
        env.pop("GITHUB_STEP_SUMMARY", None)
        return subprocess.run([sys.executable, CHECKER, *paths], env=env,
                              capture_output=True, text=True)


class DigestGate(unittest.TestCase):
    def test_equal_digest_passes(self):
        result = run_checker(BASELINE, dict(BASELINE))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_differing_digest_fails(self):
        fresh = dict(BASELINE, coverage_digest="0000000000000000")
        result = run_checker(BASELINE, fresh)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("coverage_digest", result.stderr)

    def test_missing_digest_fails(self):
        fresh = {"execs_per_sec": 1000.0}
        result = run_checker(BASELINE, fresh)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("coverage_digest", result.stderr)


class FleetDigestGate(unittest.TestCase):
    def test_equal_digest_passes(self):
        result = run_checker(FLEET_BASELINE, dict(FLEET_BASELINE))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_differing_digest_fails(self):
        # The stale pre-heap-class curve digest must not pass for the current
        # one, however fast the run was.
        fresh = dict(FLEET_BASELINE, fleet_curve_digest="0fd47debd3a9a904")
        result = run_checker(FLEET_BASELINE, fresh)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("fleet_curve_digest", result.stderr)

    def test_missing_digest_fails(self):
        fresh = {"fleet_victims_per_sec": 250000.0}
        result = run_checker(FLEET_BASELINE, fresh)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("fleet_curve_digest", result.stderr)


class MetadataIgnored(unittest.TestCase):
    META = {"host": "CPU A", "compiler": "GNU 12.2.0",
            "build_type": "RelWithDebInfo", "nproc": 4}

    def test_differing_metadata_passes(self):
        baseline = dict(BASELINE, **self.META)
        fresh = dict(BASELINE, host="CPU B", compiler="Clang 17.0.0",
                     build_type="Debug", nproc=64)
        result = run_checker(baseline, fresh)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_metadata_absent_from_baseline_passes(self):
        # Older baselines predate the metadata; its arrival is not a new
        # gated key.
        result = run_checker(BASELINE, dict(BASELINE, **self.META))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_metadata_missing_from_fresh_passes(self):
        result = run_checker(dict(BASELINE, **self.META), dict(BASELINE))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_repetitions_is_not_gated(self):
        # A median of more runs is not a regression, and a baseline measured
        # before repetitions existed must not fail as stale.
        baseline = dict(BASELINE, repetitions=5)
        for fresh in (dict(BASELINE, repetitions=1),
                      dict(BASELINE, repetitions=50)):
            result = run_checker(baseline, fresh)
            self.assertEqual(result.returncode, 0,
                             result.stdout + result.stderr)
        result = run_checker(BASELINE, dict(BASELINE, repetitions=3))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main()
