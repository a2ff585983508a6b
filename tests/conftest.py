"""Shared test configuration.

The acceptance tests record one line per criterion into CRITERIA_RESULTS;
the terminal-summary hook prints them after the run so the pass/fail status
of every criterion is visible even when pytest captures stdout.
"""

import os
import subprocess
import venv
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

# pytest puts src/ on sys.path (pyproject's pythonpath); the CLI tests start
# `python -m bssym.cli` in child processes, which need it in PYTHONPATH too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

# the CLI tests' child processes treat a floating-point warning as an error,
# as pyproject's filterwarnings does in this one; the last filter wins
os.environ["PYTHONWARNINGS"] = ",".join(
    w for w in (os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning") if w
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


@pytest.fixture
def three_cpus(monkeypatch):
    """Strips run as on a machine of three CPUs, whatever this one has."""
    from bssym import grids

    monkeypatch.setattr(grids, "_cpus", lambda: 3)


@pytest.fixture
def cpu_counts(monkeypatch):
    """Strips as on one CPU (the serial loop) and then on three (the pool):
    `for n in cpu_counts:` runs its body once at each count."""
    from bssym import grids

    def each():
        for n in (1, 3):
            monkeypatch.setattr(grids, "_cpus", lambda: n)
            yield n

    return each()


@pytest.fixture(scope="session")
def stdlib_python(tmp_path_factory):
    """(interpreter, env) of a venv with nothing but the standard library,
    and src/ alone on its PYTHONPATH: the exact layer as a Python without
    numpy runs it.  An inherited PYTHONPATH could carry numpy, so it is
    replaced, and the venv is checked to have no numpy."""
    home = tmp_path_factory.mktemp("stdlib")
    venv.create(home, with_pip=False)
    python = str(home / "bin" / "python")
    env = {**os.environ, "PYTHONPATH": _SRC}
    probe = subprocess.run(
        [python, "-c", "import numpy"], env=env, capture_output=True, text=True
    )
    assert "No module named 'numpy'" in probe.stderr, probe.stderr
    return python, env


def record_criterion(number: int, line: str) -> None:
    CRITERIA_RESULTS[number] = line


def pytest_terminal_summary(terminalreporter):
    if not CRITERIA_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(CRITERIA_RESULTS):
        terminalreporter.write_line(CRITERIA_RESULTS[number])
