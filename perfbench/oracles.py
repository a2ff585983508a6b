"""Oracles that do not use the code under test.

Prices come from an mpmath Black-Scholes formula at 30 digits; finite flows
and infinitesimal actions are re-derived here from the formulas the README
and the module docstrings state; bracket tables are checked as exact
rational Lie algebras (antisymmetry, zero diagonal, Jacobi) and against the
table the acceptance suite pins, which depends on the model only through
sigma^2.  Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 30

SKIP = object()  # a node too close to a clipping edge to call either way


def mpq(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


class Model:
    """Model constants as mpmath numbers (call option, maturity T)."""

    def __init__(self, r: Fraction, sigma2: Fraction, strike: float, maturity: float):
        self.r = mpq(Fraction(r))
        self.s2 = mpq(Fraction(sigma2))
        self.sig = mpmath.sqrt(self.s2)
        self.rt = self.r - self.s2 / 2
        self.st = self.r + self.s2 / 2
        self.K = mpmath.mpf(strike)
        self.T = mpmath.mpf(maturity)

    def _d12(self, t, S):
        tau = self.T - t
        sq = self.sig * mpmath.sqrt(tau)
        d1 = (mpmath.log(S / self.K) + self.st * tau) / sq
        return tau, d1, d1 - sq

    def call(self, t, S):
        t, S = mpmath.mpf(t), mpmath.mpf(S)
        if t >= self.T:
            return max(S - self.K, 0)
        tau, d1, d2 = self._d12(t, S)
        return S * mpmath.ncdf(d1) - self.K * mpmath.exp(-self.r * tau) * mpmath.ncdf(d2)

    def call_t(self, t, S):
        """Calendar-time derivative C_t."""
        tau, d1, d2 = self._d12(mpmath.mpf(t), mpmath.mpf(S))
        decay = -S * mpmath.npdf(d1) * self.sig / (2 * mpmath.sqrt(tau))
        return decay - self.r * self.K * mpmath.exp(-self.r * tau) * mpmath.ncdf(d2)

    def call_x(self, t, S):
        """S C_S, the log-price derivative."""
        _, d1, _ = self._d12(mpmath.mpf(t), mpmath.mpf(S))
        return S * mpmath.ncdf(d1)

    # -- finite flows ------------------------------------------------------

    def flow_step(self, i: int, kappa, t, u, frame: str):
        """(prefactor, pulled-back t, pulled-back u) of exp(kappa N_i)."""
        k = mpmath.mpf(kappa)
        s2 = self.s2
        if i == 3:
            return mpmath.exp(-k * self.st**2 / (2 * s2)), t + k, u
        if i == 4:
            if frame == "log":
                pref = mpmath.exp((k / s2) * (self.rt * t - u) - k * k * t / (2 * s2))
                return pref, t, u + k * t
            pref = mpmath.exp(k * t * (2 * self.rt - k) / (2 * s2)) * u ** (-k / s2)
            return pref, t, mpmath.exp(k * t) * u
        if i == 5:
            pull = u + k if frame == "log" else mpmath.exp(k) * u
            return mpmath.exp(k * self.rt / s2), t, pull
        if i == 6:
            return mpmath.exp(k), t, u
        raise ValueError(f"no flow for generator {i}")

    def flow_value(self, stages, t, u, box, frame="price", rel_margin=1e-9):
        """Value of the pipeline applied to the call at (t, u).

        ``box`` is the (t_lo, t_hi, u_lo, u_hi) box the base surface is known
        on; returns None where the pulled-back point is outside it and SKIP
        where it is within ``rel_margin`` of an edge.  Otherwise returns
        (value, |prefactor|): an error of the base surface reaches the value
        scaled by the prefactor.
        """
        t, u = mpmath.mpf(t), mpmath.mpf(u)
        pref = mpmath.mpf(1)
        for i, kappa in reversed(stages):
            p, t, u = self.flow_step(i, kappa, t, u, frame)
            pref *= p
        t_lo, t_hi, u_lo, u_hi = (mpmath.mpf(v) for v in box)
        for value, lo, hi in ((t, t_lo, t_hi), (u, u_lo, u_hi)):
            margin = rel_margin * max(abs(lo), abs(hi), 1)
            if abs(value - lo) < margin or abs(value - hi) < margin:
                return SKIP
            if value < lo or value > hi:
                return None
        S = u if frame == "price" else mpmath.exp(u)
        return pref * self.call(t, S), abs(pref)

    # -- infinitesimal actions -------------------------------------------------

    def action_value(self, i: int, t, x):
        """(N_i phi)(t, x) = d phi_t + f phi_x + h phi for basis element i,
        with d, f, h from the family formulas of the isovector docstring."""
        C = [0] * 6
        C[i - 1] = 1
        C1, C2, C3, C4, C5, C6 = (mpmath.mpf(c) for c in C)
        t, x = mpmath.mpf(t), mpmath.mpf(x)
        s2, rt, st = self.s2, self.rt, self.st
        d = C1 * t * t + C2 * t + C3
        dp = 2 * C1 * t + C2
        dpp = 2 * C1
        mu = C4 * t + C5
        f = dp * x / 2 + mu
        k = -(st * st / (2 * s2)) * d + (rt / s2) * mu + dp / 4 + C6
        h = (rt / (2 * s2)) * dp * x - dpp / (4 * s2) * x * x - (C4 / s2) * x + k
        S = mpmath.exp(x)
        return d * self.call_t(t, S) + f * self.call_x(t, S) + h * self.call(t, S)


def close(value: float, want, rtol: float, atol: float) -> bool:
    """Float ``value`` matches mpmath ``want`` (None means NaN expected)."""
    if want is None:
        return math.isnan(value)
    if not math.isfinite(value):
        return False
    return abs(mpmath.mpf(value) - want) <= atol + rtol * abs(want)


def check_nodes(rows, expected, rng, k, rtol, atol, label):
    """Spot-check ``k`` seeded entries of ``rows`` (indexable (t, u, value)
    triples) against ``expected(t, u)``: a value, None (NaN expected), SKIP,
    or (value, scale) when the absolute tolerance scales."""
    problems = []
    n = len(rows)
    checked = 0
    for _ in range(8 * k):
        if checked == k:
            break
        t, u, value = rows[rng.randrange(n)]
        want = expected(t, u)
        if want is SKIP:
            continue
        checked += 1
        scale = 1
        if isinstance(want, tuple):
            want, scale = want
        if not close(value, want, rtol, atol * scale):
            problems.append(
                f"{label}: value {value!r} at (t={t!r}, u={u!r}), oracle "
                f"{mpmath.nstr(want, 17) if want is not None else 'clipped'}"
            )
    if checked < k:
        problems.append(f"{label}: only {checked} of {k} nodes checkable")
    return problems


class CsvRows:
    """Random access to the rows of a "t,<u>,value" CSV held in memory."""

    def __init__(self, data: bytes, header: str):
        self.lines = data.split(b"\n")
        self.ok = self.lines[0] == header.encode() and self.lines[-1] == b""

    def __len__(self):
        return len(self.lines) - 2

    def __getitem__(self, i):
        t, u, v = self.lines[1 + i].split(b",")
        return float(t), float(u), float(v)


def check_grid_csv(data: bytes, header: str, t_axis, u_axis, expected, rng, k,
                   rtol, atol, label):
    """Shape, axes and seeded values of a grid CSV written row-major by t."""
    rows = CsvRows(data, header)
    nt, nu = len(t_axis), len(u_axis)
    if not rows.ok:
        return [f"{label}: bad header or missing final newline"]
    if len(rows) != nt * nu:
        return [f"{label}: {len(rows)} rows, expected {nt}x{nu}"]
    problems = []
    for _ in range(k):
        i, j = rng.randrange(nt), rng.randrange(nu)
        t, u, _ = rows[i * nu + j]
        if abs(t - t_axis[i]) > 1e-12 or abs(u - u_axis[j]) > 1e-12 * abs(u_axis[j]):
            problems.append(f"{label}: row ({i},{j}) at ({t!r},{u!r}), grid node "
                            f"({t_axis[i]!r},{u_axis[j]!r})")
    return problems + check_nodes(rows, expected, rng, k, rtol, atol, label)


class GridRows:
    """(t, u, value) triples of a sampled GridSolution, u in its own frame."""

    def __init__(self, sol, u_axis):
        self.t, self.u, self.v = sol.grid.t_values, u_axis, sol.values
        self.nu = len(u_axis)

    def __len__(self):
        return self.v.size

    def __getitem__(self, n):
        i, j = divmod(n, self.nu)
        return float(self.t[i]), float(self.u[j]), float(self.v[i, j])


# -- bracket tables ---------------------------------------------------------------


def expected_table(sigma2: Fraction) -> dict:
    """The basis brackets pinned by the acceptance suite, {(i, j): {k: c}}."""
    upper = {
        (1, 2): {1: Fraction(1)}, (1, 3): {2: Fraction(2)}, (1, 5): {4: Fraction(1)},
        (2, 3): {3: Fraction(1)}, (2, 4): {4: Fraction(-1, 2)},
        (2, 5): {5: Fraction(1, 2)}, (3, 4): {5: Fraction(-1)},
        (4, 5): {6: -1 / Fraction(sigma2)},
    }
    table = {}
    for i, j in itertools.product(range(1, 7), repeat=2):
        if (i, j) in upper:
            table[(i, j)] = upper[(i, j)]
        elif (j, i) in upper:
            table[(i, j)] = {k: -c for k, c in upper[(j, i)].items()}
        else:
            table[(i, j)] = {}
    return table


def check_table(table: dict, sigma2: Fraction, label: str) -> list:
    """Antisymmetry, zero diagonal, Jacobi, [N2,N5] = N5/2 and the pinned
    values, for {(i, j): {k: Fraction}} with zero entries omitted."""
    problems = []
    idx = range(1, 7)
    if set(table) != set(itertools.product(idx, repeat=2)):
        return [f"{label}: table does not cover 6x6 pairs"]
    for i, j in itertools.product(idx, repeat=2):
        if any(c == 0 for c in table[(i, j)].values()):
            problems.append(f"{label}: explicit zero in [N{i},N{j}]")
        if i == j and table[(i, j)]:
            problems.append(f"{label}: [N{i},N{i}] != 0")
        neg = {k: -c for k, c in table[(j, i)].items()}
        if table[(i, j)] != neg:
            problems.append(f"{label}: [N{i},N{j}] != -[N{j},N{i}]")

    def br(u: dict, j: int) -> dict:  # [sum u_l N_l, N_j]
        out = {}
        for l, c in u.items():
            for m, d in table[(l, j)].items():
                out[m] = out.get(m, 0) + c * d
        return out

    for i, j, k in itertools.combinations(idx, 3):
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, v in br(table[(a, b)], c).items():
                total[m] = total.get(m, 0) + v
        if any(v != 0 for v in total.values()):
            problems.append(f"{label}: Jacobi fails on (N{i},N{j},N{k})")
    if table[(2, 5)] != {5: Fraction(1, 2)}:
        problems.append(f"{label}: [N2,N5] = {table[(2, 5)]}, expected N5/2")
    if table != expected_table(sigma2):
        bad = [p for p, v in expected_table(sigma2).items() if table[p] != v]
        problems.append(f"{label}: entries {bad[:3]} differ from the pinned table")
    return problems


def table_from_cli_json(obj: dict) -> dict:
    return {
        (e["i"], e["j"]): {t["k"]: Fraction(t["coeff"]) for t in e["terms"]}
        for e in obj["table"]
    }


def table_from_library(table: dict) -> dict:
    return {key: dict(terms) for key, terms in table.items()}


def parse_json(data: bytes, label: str):
    """Strict JSON (no NaN/Infinity tokens); raises ValueError."""
    def reject(token):
        raise ValueError(f"{label}: non-JSON token {token}")
    return json.loads(data, parse_constant=reject)
