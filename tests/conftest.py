"""Shared test configuration.

The acceptance tests record one line per criterion into CRITERIA_RESULTS;
the terminal-summary hook prints them after the run so the pass/fail status
of every criterion is visible even when pytest captures stdout.
"""

import os
from fractions import Fraction
from pathlib import Path

from hypothesis import settings

# pytest puts src/ on sys.path (pyproject's pythonpath); the CLI tests start
# `python -m bssym.cli` in child processes, which need it in PYTHONPATH too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

settings.register_profile("exact", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("exact")

# the model points (r, sigma2) of the acceptance criteria, and a negative rate
MODEL_POINTS = (
    (Fraction(1, 20), Fraction(1, 25)),
    (Fraction(0), Fraction(2)),
    (Fraction(1), Fraction(2)),
    (Fraction(3, 100), Fraction(9, 100)),
)
NEGATIVE_RATE = (Fraction(-1, 20), Fraction(1, 25))

CRITERIA_RESULTS = {}


def record_criterion(number: int, line: str) -> None:
    CRITERIA_RESULTS[number] = line


def pytest_terminal_summary(terminalreporter):
    if not CRITERIA_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(CRITERIA_RESULTS):
        terminalreporter.write_line(CRITERIA_RESULTS[number])
