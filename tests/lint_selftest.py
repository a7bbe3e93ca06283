#!/usr/bin/env python3
"""Self-test for scripts/lint.py, driven by the deliberate-violation
fixtures under tests/fixtures/lint/.

Each case copies fixtures into a synthetic tree under /tmp and runs the
real lint.py against it with --root, asserting on the exit status and
the reported rule names — so the waiver-staleness logic is tested by
executing the actual gate, not a reimplementation.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), ".."))
LINT = os.path.join(REPO, "scripts", "lint.py")
FIXTURES = os.path.join(REPO, "tests", "fixtures", "lint")


def run_lint_on(fixture_names, dest_dir="src"):
    """Copy fixtures into a temp tree and lint it; returns (exit, out)."""
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        os.makedirs(os.path.join(tmp, dest_dir), exist_ok=True)
        for name in fixture_names:
            shutil.copy(os.path.join(FIXTURES, name),
                        os.path.join(tmp, dest_dir, name))
        proc = subprocess.run(
            [sys.executable, LINT, "--root", tmp],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


class LintSelfTest(unittest.TestCase):
    def test_violation_reported(self):
        code, out = run_lint_on(["violation.cc"])
        self.assertEqual(code, 1, out)
        self.assertIn("[raw-mutex]", out)

    def test_raw_ofstream_reported(self):
        for dest in ("src", "tools"):
            code, out = run_lint_on(["raw_ofstream.cc"], dest_dir=dest)
            self.assertEqual(code, 1, out)
            self.assertIn("[raw-ofstream]", out)
        # Tests, benches and fuzz seeds may write scratch files freely.
        code, out = run_lint_on(["raw_ofstream.cc"], dest_dir="tests")
        self.assertEqual(code, 0, out)

    def test_valid_waiver_accepted(self):
        code, out = run_lint_on(["valid_waiver.cc"])
        self.assertEqual(code, 0, out)
        self.assertNotIn("stale-waiver", out)

    def test_stale_waiver_reported(self):
        code, out = run_lint_on(["stale_waiver.cc"])
        self.assertEqual(code, 1, out)
        self.assertIn("[stale-waiver]", out)
        self.assertIn("lint:allow=raw-mutex", out)

    def test_unknown_rule_waiver_reported(self):
        code, out = run_lint_on(["unknown_waiver.cc"])
        self.assertEqual(code, 1, out)
        self.assertIn("[stale-waiver]", out)
        self.assertIn("unknown rule", out)

    def test_out_of_scope_waiver_is_stale(self):
        # adhoc-atomic only applies under src/ (outside src/obs, src/util);
        # a waiver for it in tools/ is out of scope and therefore stale.
        with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
            os.makedirs(os.path.join(tmp, "tools"))
            with open(os.path.join(tmp, "tools", "t.cc"), "w") as fh:
                fh.write("#include <atomic>\n"
                         "std::atomic<int> x;  // lint:allow=adhoc-atomic\n")
            proc = subprocess.run(
                [sys.executable, LINT, "--root", tmp],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertIn("[stale-waiver]", proc.stdout)

    def test_fixtures_directories_skipped(self):
        # The same violating file under a fixtures/ directory is ignored.
        code, out = run_lint_on(["violation.cc"], dest_dir="src/fixtures")
        self.assertEqual(code, 0, out)
        self.assertIn("scanned 0 files", out)

    def test_repo_tree_is_clean(self):
        proc = subprocess.run(
            [sys.executable, LINT],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
