#!/usr/bin/env python3
"""Self-test for check_bench_regression.py's digest gate.

    python3 bench/test_check_bench_regression.py

Runs the checker on small baseline/fresh artifact pairs and asserts its
exit code: an equal coverage_digest passes, a differing one fails, and one
missing from the fresh artifact fails.
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


if __name__ == "__main__":
    unittest.main()
