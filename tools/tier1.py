"""Run the tier-1 test suite and gate on its known state.

usage: python tools/tier1.py

Runs `python -m pytest -q --continue-on-collection-errors` from the root
of the repository, in this process through pytest.main, with a plugin
that records every outcome.  pyproject.toml puts src/ on the path, and no
test or pytest setting is changed.  Exits 0 only when the failures,
collection errors included, are exactly KNOWN_FAILURES and at least
LEAST_PASSED tests passed; otherwise it prints what broke the gate and
exits 1.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Acceptance criterion 6 fails on genuine quasi-recurrences of the model
# (README, "Known red").
KNOWN_FAILURES = {"tests/test_acceptance.py::test_criterion_6_deformation_destroys_revivals"}
# The passed count the suite may not fall below (ROADMAP, standing constraint).
LEAST_PASSED = 318


class Outcomes:
    """pytest plugin: the passed count and the ids of failed tests and of
    modules that failed to collect."""

    def __init__(self) -> None:
        self.passed = 0
        self.failed: set[str] = set()

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.failed.add(report.nodeid)
        elif report.passed and report.when == "call":
            self.passed += 1

    def pytest_collectreport(self, report) -> None:
        if report.failed:
            self.failed.add(report.nodeid)


def main() -> int:
    os.chdir(ROOT)
    outcomes = Outcomes()
    code = pytest.main(["-q", "--continue-on-collection-errors"], plugins=[outcomes])
    problems = []
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        problems.append(f"pytest exited {int(code)}")
    problems += [f"new failure: {nodeid}" for nodeid in sorted(outcomes.failed - KNOWN_FAILURES)]
    problems += [f"no longer fails: {nodeid}" for nodeid in sorted(KNOWN_FAILURES - outcomes.failed)]
    if outcomes.passed < LEAST_PASSED:
        problems.append(f"{outcomes.passed} passed, fewer than {LEAST_PASSED}")
    for line in problems:
        print(f"tier-1 gate: {line}")
    print(f"tier-1 gate: {'FAILED' if problems else 'OK'} ({outcomes.passed} passed, {len(outcomes.failed)} failed)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
