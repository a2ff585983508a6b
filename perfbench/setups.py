"""Set-up of each workload: what a fresh interpreter does before its first op.

Kept apart from the rest of the benchmark so that a set-up probe (a fresh
``probe.py setup`` process) imports nothing the workload itself would not:
no mpmath, no oracles.  Each function returns the state the ops need.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

CANONICAL = (Fraction(1, 20), Fraction(1, 25))  # (r, sigma^2)
CLI_COMMANDS = ("verify", "brackets", "price", "residual", "transform")
MATURITY = 1.0
TOL = 5e-4
CANONICAL_GRID = (0.0, 0.8, 801, math.log(0.5), math.log(200.0), 601)
# case (c) surfaces: canonical spacing in t, window of +-1 around log K in x
CSV_GRID_NT, CSV_GRID_NX, CSV_HALF_WIDTH = 401, 201, 1.0


def setup_cli_cold(workdir, rng):
    import bssym.cli  # noqa: F401  (the cold import is the whole set-up)

    return None


def setup_algebra_sweep(workdir, rng):
    from bssym import make_context

    make_context(*CANONICAL)  # the ops need nothing prepared beyond bssym
    return None


def np_call(T, S, strike, r, sigma2):
    """Vectorised Black-Scholes call, independent of bssym.pricing."""
    import numpy as np
    from scipy.special import ndtr

    tau = MATURITY - T
    sq = math.sqrt(sigma2) * np.sqrt(tau)
    d1 = (np.log(S / strike) + (r + sigma2 / 2) * tau) / sq
    return S * ndtr(d1) - strike * np.exp(-r * tau) * ndtr(d1 - sq)


def write_price_csv(path, t_values, x_values, values) -> None:
    """The documented "t,S,value" layout with repr floats, written here so
    that the reader is tested against the format, not against its writer."""
    import numpy as np

    s_values = [repr(s) for s in np.exp(x_values).tolist()]
    with open(path, "w") as fh:
        fh.write("t,S,value\n")
        for tv, row in zip(t_values.tolist(), values.tolist()):
            t = repr(tv)
            fh.write("".join(f"{t},{s},{v!r}\n" for s, v in zip(s_values, row)))


def setup_certify_sweep(workdir, rng):
    import numpy as np

    from bssym import ClosedFormSolution, OptionSpec, make_context, make_grid

    ctx = make_context(*CANONICAL)
    r, s2 = float(CANONICAL[0]), float(CANONICAL[1])
    csv_files = []
    for n, strike in enumerate((100.0, round(rng.uniform(80.0, 125.0), 2))):
        x_mid = math.log(strike)
        t_values = np.linspace(0.0, 0.8, CSV_GRID_NT)
        x_values = np.linspace(x_mid - CSV_HALF_WIDTH, x_mid + CSV_HALF_WIDTH, CSV_GRID_NX)
        T, X = np.meshgrid(t_values, x_values, indexing="ij")
        path = os.path.join(workdir, f"surface_{n}.csv")
        write_price_csv(path, t_values, x_values, np_call(T, np.exp(X), strike, r, s2))
        csv_files.append((path, strike, t_values, x_values))
    return {
        "ctx": ctx,
        "grid": make_grid(*CANONICAL_GRID),
        "call": ClosedFormSolution(OptionSpec(100.0, MATURITY, "call"), ctx),
        "csv_files": csv_files,
    }


SETUPS = {
    "cli-cold": setup_cli_cold,
    "algebra-sweep": setup_algebra_sweep,
    "certify-sweep": setup_certify_sweep,
}
