#!/usr/bin/env python3
"""Unit tests for tools/tc_lint.py, driven by seeded-violation fixtures.

Each directory under tests/lint_fixtures/ is a miniature repo root whose
name encodes the expectation: `<rule>_bad` must produce at least one
violation tagged [<rule>] (and exit 1), `*_allowed` and `*_clean` must
pass (exit 0). The real repo root must also pass, which doubles as a
regression test that the fixture trees themselves are excluded from the
production scan.

Registered as the ctest case `tc_lint_selftest`.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent
LINT = REPO / "tools" / "tc_lint.py"
FIXTURES = REPO / "tests" / "lint_fixtures"

# fixture directory -> rule tag expected in the output (None = clean).
EXPECTATIONS = {
    "rng_bad": "rng",
    "new_delete_bad": "new-delete",
    "float_bad": "float",
    "pragma_once_bad": "pragma-once",
    "nodiscard_bad": "nodiscard",
    # No deprecated_bad fixture while DEPRECATED_SHIMS is empty (the
    # RouteQuote cycle completed); reseed one with the next retirement.
    "net_draw_bad": "net-draw",
    "net_draw_adversary_bad": "net-draw",
    "spath_loop_bad": "spath-loop",
    "svc_graph_copy_bad": "svc-graph-copy",
    "svc_graph_copy_allowed": None,
    "svc_reservoir_bad": "svc-reservoir",
    "svc_reservoir_allowed": None,
    "literal_clean": None,
}


def run_lint(root: pathlib.Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), "--root", str(root)],
        capture_output=True, text=True, check=False)


class LintFixtureTest(unittest.TestCase):
    def test_every_fixture_is_expected(self) -> None:
        """New fixture directories must be registered in EXPECTATIONS."""
        on_disk = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
        self.assertEqual(on_disk, set(EXPECTATIONS))

    def test_fixtures(self) -> None:
        for name, rule in EXPECTATIONS.items():
            with self.subTest(fixture=name):
                proc = run_lint(FIXTURES / name)
                if rule is None:
                    self.assertEqual(
                        proc.returncode, 0,
                        f"{name} should be clean:\n{proc.stdout}{proc.stderr}")
                else:
                    self.assertEqual(
                        proc.returncode, 1,
                        f"{name} should fail:\n{proc.stdout}{proc.stderr}")
                    self.assertIn(f"[{rule}]", proc.stdout)
                    # The seeded violation is the *only* rule that fires:
                    # a fixture tripping unrelated rules is a fixture bug.
                    tags = {line.split("[", 1)[1].split("]", 1)[0]
                            for line in proc.stdout.splitlines()
                            if "[" in line and "]" in line}
                    self.assertEqual(
                        tags, {rule},
                        f"{name} tripped unexpected rules:\n{proc.stdout}")

    def test_missing_root_exits_2(self) -> None:
        proc = run_lint(REPO / "tests" / "lint_fixtures" / "no_such_dir")
        self.assertEqual(proc.returncode, 2)

    def test_real_repo_is_clean(self) -> None:
        proc = run_lint(REPO)
        self.assertEqual(
            proc.returncode, 0,
            f"repo lint must pass (fixtures excluded):\n"
            f"{proc.stdout}{proc.stderr}")


if __name__ == "__main__":
    unittest.main()
