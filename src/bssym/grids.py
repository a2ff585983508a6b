"""Grids, grid solutions, discrete residual operators, and the FD solver.

Grids are uniform in calendar time t and in log-price x, and every grid
solution stores its values at those nodes.  Its `frame` is a label, "price"
or "log", read only at the boundary: a CSV spells the nodes as S = e^x or
as x, and a residual report names its operator E or E2.  Under S = e^x the
price equation E is the log equation E2, so one fourth-order residual
operator on the (t, x) nodes serves both labels.  It acts
on every interior node; NaN marks a clipped node, a node near one takes an
off-centred stencil that avoids it where one fits, and a node is excluded
only where the three-point central stencil cannot be evaluated either.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
import threading
from dataclasses import asdict, dataclass

import numpy as np

# scipy is imported inside the code that calls it.  This module, and numpy
# with it, loads when a numeric name is first used: `import bssym` and the
# exact CLI subcommands load neither.

from .model import ModelContext
from .pricing import OptionSpec, _spot

_UNIFORM_RTOL = 1e-9

# the largest sum of squared residuals summed as they are, with room for
# the rounding of the sum
_SQUARES_MAX = sys.float_info.max / 2

# Whole-grid work runs in strips of whole time rows of about this many nodes,
# 256 KB per float64 array, so a strip's temporaries stay in cache.
_STRIP_NODES = 1 << 15


def _row_strips(n_rows: int, row_len: int):
    """The (lo, hi) bounds of consecutive strips of whole rows that cover
    n_rows rows of row_len nodes: _STRIP_NODES nodes each, or one row."""
    step = max(1, _STRIP_NODES // max(1, row_len))
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_in_strip = threading.local()  # .running: this thread is running strips
_pool_lock = threading.Lock()
_pool = None  # (pid, threads, executor)


def _strip_pool(n: int):
    """The process's pool of n strip threads.  A forked child, which has
    none of its parent's threads, and a new CPU count get a new pool."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[:2] != (os.getpid(), n):
            from concurrent.futures import ThreadPoolExecutor

            _pool = (os.getpid(), n, ThreadPoolExecutor(n, "bssym-strip"))
        return _pool[2]


def _each_strip(fn, strips) -> None:
    """fn(lo, hi) for every strip, on every CPU of the process.

    With W CPUs, at most one per strip, the calling thread takes strips 0,
    W, 2W, ... and a pool of W - 1 threads the rest, each under the caller's
    numpy error state.  fn must write only its own strip's part of any
    output, and compute each node from that node alone, so the result has
    the same bits as the serial loop's.  As in that loop, a failure raises
    the error of the first failing strip in row order, once every share has
    finished.  With one CPU, and inside a strip, this is the serial loop.
    """
    cpus = _cpus()
    w = min(cpus, len(strips))
    if w <= 1 or getattr(_in_strip, "running", False):
        for lo, hi in strips:
            fn(lo, hi)
        return
    errstate = {**np.geterr(), "call": np.geterrcall()}

    def share(k):
        """Strips k, k + W, ... up to the first failing one: its (index,
        error), or None."""
        _in_strip.running = True
        try:
            with np.errstate(**errstate):
                for n in range(k, len(strips), w):
                    try:
                        fn(*strips[n])
                    except Exception as exc:  # raised below, once all are done
                        return n, exc
        finally:
            _in_strip.running = False
        return None

    pool = _strip_pool(cpus - 1)
    futures = [pool.submit(share, k) for k in range(1, w)]
    failures = [f for f in (share(0), *(f.result() for f in futures)) if f]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def _check_axis(vals: np.ndarray, name: str) -> None:
    if vals.ndim != 1 or vals.size < 2:
        raise ValueError(f"{name} needs at least two nodes")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} must be finite")
    with np.errstate(over="ignore"):
        steps = np.diff(vals)
    if np.any(steps <= 0):
        raise ValueError(f"{name} must be strictly ascending")
    if not np.all(np.isfinite(steps)):
        raise ValueError(f"{name} spacing must be finite")
    h = steps[0]
    if np.max(np.abs(steps - h)) > _UNIFORM_RTOL * max(abs(h), 1e-300):
        raise ValueError(f"{name} must be uniformly spaced")


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform rectangular grid in (t, x)."""

    t_values: np.ndarray
    x_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t_values", np.asarray(self.t_values, dtype=float))
        object.__setattr__(self, "x_values", np.asarray(self.x_values, dtype=float))
        _check_axis(self.t_values, "t_values")
        _check_axis(self.x_values, "x_values")

    @property
    def nt(self) -> int:
        return self.t_values.size

    @property
    def nx(self) -> int:
        return self.x_values.size

    @property
    def dt(self) -> float:
        return float(self.t_values[1] - self.t_values[0])

    @property
    def dx(self) -> float:
        return float(self.x_values[1] - self.x_values[0])

    @property
    def s_values(self) -> np.ndarray:
        return _spot(self.x_values)

    def meshes(self):
        return np.meshgrid(self.t_values, self.x_values, indexing="ij")


def make_grid(t_lo, t_hi, nt, x_lo, x_hi, nx) -> Grid:
    with np.errstate(over="ignore", invalid="ignore"):  # Grid refuses inf nodes
        t, x = np.linspace(t_lo, t_hi, nt), np.linspace(x_lo, x_hi, nx)
    return Grid(t, x)


def _s_axis(g: Grid) -> np.ndarray:
    """The S = e^x axis of a price CSV: a ValueError unless `read_csv` can
    rebuild the grid from it, that is unless log S passes its axis check."""
    s = g.s_values
    with np.errstate(divide="ignore"):
        _check_axis(np.log(s), "log S")
    return s


def _check_stencil_nodes(g: Grid) -> None:
    """The central stencils, the residual's and the derivative's, need 3 nodes per axis."""
    if g.nt < 3 or g.nx < 3:
        raise ValueError("grid too coarse for central stencils (need 3 nodes)")


@dataclass(eq=False)
class GridSolution:
    """Values at the (t, x) nodes of a grid, labelled 'price' (written out
    at S = e^x) or 'log' (written out at x).

    NaN entries mark nodes where a transformed solution was not evaluable.
    """

    grid: Grid
    values: np.ndarray
    frame: str = "log"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nt, self.grid.nx):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.nt}, {self.grid.nx})"
            )
        if self.frame not in ("log", "price"):
            raise ValueError(f"frame must be 'log' or 'price', got {self.frame!r}")


@dataclass(frozen=True)
class ResidualReport:
    """Summary of a discrete PDE residual over the evaluable interior."""

    op: str
    max_abs_residual: float
    interior_norm: float
    stencil: str
    scale: float
    n_interior: int
    n_clipped: int

    @property
    def rel_max(self) -> float:
        if self.max_abs_residual == 0.0:
            return 0.0
        if self.scale == 0.0:
            return float("inf")
        return self.max_abs_residual / self.scale

    def to_json(self) -> dict:
        return {**asdict(self), "rel_max": self.rel_max}


def _finish_report(op: str, res: np.ndarray, values: np.ndarray, stencil: str) -> ResidualReport:
    """The report of the residual `res` of `values`; res is overwritten.

    NaN in res marks a clipped node, one whose footprint held a non-finite
    value along some axis; every other node counts, an overflowed one as
    |res| = inf.  The report holds no full-size array of its own: scale
    comes from masked reductions strip by strip, and the counted residuals
    move to the front of res itself, strip by strip in row order, so max
    |res| and the mean of the squares see the elements that `res[mask]`
    would hold, in its order, and give its bits.  The squares are taken in
    place, and on residuals scaled by a power of two near max |res| where
    max |res|^2 times the count would leave the float range, so the root
    mean square overflows only with max |res|.
    """
    scale_hi, scale_lo = -np.inf, np.inf
    for lo, hi in _row_strips(*values.shape):
        strip = values[lo:hi]
        finite = np.isfinite(strip)
        finite = True if finite.all() else finite  # unmasked is twice as fast
        scale_hi = max(scale_hi, strip.max(where=finite, initial=-np.inf))
        scale_lo = min(scale_lo, strip.min(where=finite, initial=np.inf))
    scale = float(abs(max(scale_hi, -scale_lo))) if scale_hi >= scale_lo else 0.0
    width = res.shape[1]
    flat = res.reshape(-1)  # a view: res is a fresh C-ordered array
    n_interior = 0
    for lo, hi in _row_strips(*res.shape):
        strip = flat[lo * width:hi * width]
        keep = ~np.isnan(strip)
        n = int(np.count_nonzero(keep))
        if n_interior < lo * width or n < strip.size:
            flat[n_interior:n_interior + n] = strip[keep]
        n_interior += n
    if n_interior == 0:
        raise ValueError("no evaluable interior nodes for the residual stencil")
    picked = res if n_interior == res.size else flat[:n_interior]
    max_abs = _max_abs(picked)
    if max_abs * max_abs * n_interior <= _SQUARES_MAX:
        exp = 0
    else:
        # picked * 2^-exp is exact, its squares and their mean are those of
        # the unscaled residuals times 2^-2exp, and the root times 2^exp is
        # exact again: the same bits wherever those stay in range
        exp = math.frexp(max_abs)[1]
        np.multiply(picked, math.ldexp(1.0, -exp), out=picked)
    np.multiply(picked, picked, out=picked)
    return ResidualReport(
        op=op,
        max_abs_residual=max_abs,
        interior_norm=math.ldexp(float(np.sqrt(np.mean(picked))), exp),
        stencil=stencil,
        scale=scale,
        n_interior=n_interior,
        n_clipped=int(res.size - n_interior),
    )


def _max_abs(a: np.ndarray) -> float:
    """max |a| of a nonempty array with no NaN, with no |a| temporary; 0.0,
    never -0.0, for an array of zeros."""
    return float(abs(max(a.max(), -a.min())))


# Difference weights on unit spacing, times 12, keyed by node offset
# (B. Fornberg, Math. Comp. 51, 1988).  Along each axis a node takes the
# first stencil whose footprint lies on the grid and holds no clipped (NaN)
# or other non-finite node: the five-point central one, then the
# fourth-order ones reaching one node back or one node forward (so the
# first and last interior node of an axis, and a node two steps from a
# clipped one, stay fourth order), and last the three-point central one.
# Every stencil covers the three-point footprint, so a node is excluded
# only where that one cannot be evaluated.
# The six-point second derivative is the shortest one-back formula of
# fourth order.
_D1_EDGE = {-1: -3.0, 0: -10.0, 1: 18.0, 2: -6.0, 3: 1.0}
_D2_EDGE = {-1: 10.0, 0: -15.0, 1: -4.0, 2: 14.0, 3: -6.0, 4: 1.0}
_D1_TIERS = (
    {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0},
    _D1_EDGE,
    {-k: -w for k, w in _D1_EDGE.items()},
    {-1: -6.0, 1: 6.0},
)
_D2_TIERS = (
    {-2: -1.0, -1: 16.0, 0: -30.0, 1: 16.0, 2: -1.0},
    _D2_EDGE,
    {-k: w for k, w in _D2_EDGE.items()},
    {-1: 12.0, 0: -24.0, 1: 12.0},
)

_STENCIL_4TH = "4th-order-uniform"
_STENCIL_FALLBACK = "4th-order-uniform+3-point-fallback"


def _combine(*terms) -> dict:
    """Sum of scaled stencils, given as (scale, stencil) pairs."""
    out = {}
    for scale, stencil in terms:
        for k, w in stencil.items():
            out[k] = out.get(k, 0.0) + scale * w
    return out


def _first_finite(v: np.ndarray, i, j, axis: int, tiers):
    """Value at nodes (i, j) of the first stencil along `axis` that fits and
    whose footprint holds only finite values, NaN where none does, and a mask
    of the nodes the last (three-point) one served.

    Clipping comes from the footprint, not from the stencil's sum: a served
    node whose sum overflows keeps it (inf where it is NaN), and takes no
    later stencil.
    """
    pos = (i, j)[axis]
    out = np.full(pos.shape, np.nan)
    todo = np.ones(pos.shape, dtype=bool)
    three_point = np.zeros(pos.shape, dtype=bool)
    for n, stencil in enumerate(tiers):
        fits = np.flatnonzero(
            todo & (pos + min(stencil) >= 0) & (pos + max(stencil) < v.shape[axis])
        )
        ii, jj = i[fits], j[fits]
        val = np.zeros(ii.shape)
        held = np.ones(ii.shape, dtype=bool)
        for k, w in stencil.items():
            node = v[ii + k, jj] if axis == 0 else v[ii, jj + k]
            held &= np.isfinite(node)
            val += w * node
        served = fits[held]
        out[served] = val[held]
        todo[served] = False
        if n == len(tiers) - 1:
            three_point[served] = True
    out[np.isnan(out) & ~todo] = np.inf
    return out, three_point


def _first_derivative(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Derivative of node values along `axis` (spacing h) by the residual
    operator's first-derivative tiers: fourth order wherever one fits, the
    three-point stencil where only that one does.  Every tier reaches one
    node back and one forward, so the first and last node are NaN."""
    tiers = [{k: w / (12.0 * h) for k, w in d1.items()} for d1 in _D1_TIERS]
    out = np.full(v.shape, np.nan)
    n = v.shape[axis]
    if n >= 5:
        # the bulk: the central five-point stencil on whole blocks, summed
        # in the order `_first_finite` sums it, so each value is the same
        vv, bulk = (v, out[2:-2]) if axis == 0 else (v.T, out.T[2:-2])
        bulk.fill(0.0)
        for k, w in tiers[0].items():
            bulk += w * vv[2 + k:n - 2 + k]
    # the border and the nodes near non-finite ones, node by node
    i, j = np.nonzero(~np.isfinite(out))
    out[i, j], _ = _first_finite(v, i, j, axis, tiers)
    return out


def _log_frame_residual(
    op: str, sol: GridSolution, ctx: ModelContext
) -> ResidualReport:
    g = sol.grid
    _check_stencil_nodes(g)
    v = sol.values
    nt, nx = v.shape
    t_tiers = [{k: w / (12.0 * g.dt) for k, w in d1.items()} for d1 in _D1_TIERS]
    # the x weights fold diffusion and drift into one stencil per tier
    diffusion = 0.5 * ctx.sigma2_f / (12.0 * g.dx * g.dx)
    drift = ctx.rtilde_f / (12.0 * g.dx)
    x_tiers = [
        _combine((drift, d1), (diffusion, d2))
        for d1, d2 in zip(_D1_TIERS, _D2_TIERS)
    ]
    # a stencil that passes the float range counts as |res| = inf, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.full((nt - 2, nx - 2), np.nan)
        if nt >= 5 and nx >= 5:
            # the bulk: central five-point stencils, strips of rows on every CPU,
            # each term summed in the same order as on the whole block
            inner = res[1:-1, 1:-1]

            def bulk(lo, hi):
                rows = slice(2 + lo, 2 + hi)
                strip = inner[lo:hi]
                np.multiply(v[rows, 2:-2], -ctx.r_f, out=strip)
                for k, w in t_tiers[0].items():
                    strip += w * v[2 + lo + k:2 + hi + k, 2:-2]
                for k, w in x_tiers[0].items():
                    strip += w * v[rows, 2 + k:nx - 2 + k]

            _each_strip(bulk, _row_strips(nt - 4, nx - 4))
        # the border ring and nodes near clipped ones, node by node.  A node
        # whose own value is NaN is no candidate: that value enters its x
        # stencil and its -r phi term, so its residual is NaN whatever stencil
        # it takes.  The candidates are found strip by strip, with no full-size
        # mask.
        width = nx - 2
        bad = []
        for lo, hi in _row_strips(nt - 2, width):
            done = np.isfinite(res[lo:hi])
            done |= np.isnan(v[1 + lo:1 + hi, 1:-1])
            bad.append(np.flatnonzero(~done) + lo * width)
        bad = np.concatenate(bad)
        i = bad // width + 1
        j = bad % width + 1
        t_term, t_three = _first_finite(v, i, j, 0, t_tiers)
        x_term, x_three = _first_finite(v, i, j, 1, x_tiers)
        ring = t_term + x_term - ctx.r_f * v[i, j]
        # clipped where an axis has no stencil; any other non-finite residual
        # has overflowed and counts as inf.  Only a served node names its stencil
        served = ~np.isnan(t_term) & ~np.isnan(x_term)
        ring[~np.isfinite(ring) & served] = np.inf
        res.ravel()[bad] = ring
        stencil = _STENCIL_FALLBACK if np.any((t_three | x_three) & served) else _STENCIL_4TH
        return _finish_report(op, res, v, stencil)


def residual_e2(sol: GridSolution, ctx: ModelContext) -> ResidualReport:
    """Discrete residual of phi_t + (sigma2/2) phi_xx + rtilde phi_x - r phi.

    Fourth-order stencils on the uniform (t, x) grid at every interior node:
    five-point central ones inside, off-centred ones on the first and last
    interior row and column and next to clipped (NaN) nodes.  Along an axis
    where no fourth-order stencil fits (too few nodes, or clipped nodes on
    both sides) a node takes the three-point central one, and the report's
    `stencil` then reads "4th-order-uniform+3-point-fallback".  The nodes
    excluded as clipped are those where the three-point stencil cannot be
    evaluated.  Clipping comes from the footprint's values, not from the
    stencil's sum: a node whose stencils all reach a non-finite value is
    clipped, and one whose stencil overflows counts with |res| = inf, so
    that it fails any tolerance, with no floating-point warning.  The root
    mean square `interior_norm` is taken on residuals scaled by a power of
    two where their squares would overflow, so it is finite whenever max
    |res| is.
    """
    if sol.frame != "log":
        raise ValueError("residual_e2 expects a log-frame solution")
    return _log_frame_residual("E2", sol, ctx)


def residual_e(sol: GridSolution, ctx: ModelContext) -> ResidualReport:
    """Discrete residual of C_t + (sigma2/2) S^2 C_SS + r S C_S - r C.

    The grid stores log-price nodes, and E(C)(t, e^x) = E2(phi)(t, x)
    identically for phi(t, x) = C(t, e^x), so the price-frame residual is
    the log-frame operator of `residual_e2` applied to the same node values.
    """
    if sol.frame != "price":
        raise ValueError("residual_e expects a price-frame solution")
    return _log_frame_residual("E", sol, ctx)


# -- finite differences --------------------------------------------------------


def _fd_boundaries(spec: OptionSpec, ctx: ModelContext, t: np.ndarray, grid: Grid):
    """Dirichlet boundary values from the deep in/out-of-the-money asymptotics."""
    tau = spec.maturity - t
    disc = spec.strike * np.exp(-ctx.r_f * tau)
    s_lo = float(np.exp(grid.x_values[0]))
    s_hi = float(np.exp(grid.x_values[-1]))
    if spec.kind == "call":
        lo = np.zeros_like(t)
        hi = s_hi - disc
    else:
        lo = disc - s_lo
        hi = np.zeros_like(t)
    return lo, hi


def fd_solve(spec: OptionSpec, ctx: ModelContext, grid: Grid) -> GridSolution:
    """Crank-Nicolson solve of the log-frame equation, backward from payoff.

    The grid must end at the option maturity (the terminal slice is the
    payoff exactly).  The first step from the payoff is split into two
    backward-Euler half steps to damp the kink at the strike.

    Each step's tridiagonal system is solved by LAPACK's elimination with
    partial pivoting, as `scipy.linalg.solve_banded` solves it (its ?gtsv is
    ?gttrf then ?gttrs), but each step matrix, keyed by the exact (dt,
    theta) of the step, is factored once.  A non-finite matrix or right-hand
    side is a ValueError, and a singular matrix a LinAlgError, as there;
    dx^2 underflowing to 0.0 is the ValueError of an infinite matrix.  The
    solve is quiet: a boundary value or right-hand side past the float
    range raises that ValueError with no floating-point warning.
    """
    from scipy.linalg import LinAlgError
    from scipy.linalg.lapack import dgttrf, dgttrs

    T = spec.maturity
    t = grid.t_values
    if abs(t[-1] - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(
            f"grid must end at maturity {T}, last t node is {t[-1]}"
        )
    if grid.nx < 3:
        raise ValueError("fd_solve needs at least 3 space nodes")
    nt, nx = grid.nt, grid.nx
    dx = grid.dx
    # where dx^2 underflows to 0.0 the matrix is infinite, which the first step reports
    a = 0.5 * ctx.sigma2_f / (dx * dx) if dx * dx else math.inf
    b = ctx.rtilde_f / (2.0 * dx)
    lower = a - b
    diag = -2.0 * a - ctx.r_f
    upper = a + b

    # the steps as (row it ends on or None, dt, theta): two backward-Euler
    # half steps off the payoff kink (Rannacher), the first ending
    # mid-interval, then one Crank-Nicolson step per row
    half = 0.5 * float(t[-1] - t[-2])
    plan = [(None, half, 1.0), (nt - 2, half, 1.0)]
    plan += [(n, float(t[n + 1] - t[n]), 0.5) for n in range(nt - 3, -1, -1)]
    n_in = nx - 2
    # the LAPACK wrappers take at least 3 unknowns: the rows past n_in are
    # identity rows with a zero right-hand side, coupled to no other row
    n_sys = max(n_in, 3)
    factors = {}  # (dt, theta) -> the LU factors of that step's matrix
    values = np.empty((nt, nx))
    # past the float range a boundary value or a right-hand side is not
    # finite, which the checks below report
    with np.errstate(over="ignore", invalid="ignore"):
        # the boundary values at maturity, then at the end of each step
        times = np.concatenate(([t[-1], t[-2] + half], t[-2::-1]))
        lo, hi = _fd_boundaries(spec, ctx, times, grid)
        v = values[-1]
        v[:] = spec.payoff(grid.s_values)
        v[0], v[-1] = lo[0], hi[0]
        for (row, dt, theta), lo_new, hi_new in zip(plan, lo[1:], hi[1:]):
            rhs = np.zeros(n_sys)
            rhs[:n_in] = v[1:-1] + (1.0 - theta) * dt * (
                lower * v[:-2] + diag * v[1:-1] + upper * v[2:]
            )
            rhs[0] += theta * dt * lower * lo_new
            rhs[n_in - 1] += theta * dt * upper * hi_new
            if (dt, theta) not in factors:
                weights = (
                    -theta * dt * lower, 1.0 - theta * dt * diag, -theta * dt * upper
                )
                if not np.isfinite(weights).all():
                    raise ValueError("array must not contain infs or NaNs")
                dl, d, du = np.zeros(n_sys - 1), np.ones(n_sys), np.zeros(n_sys - 1)
                dl[:n_in - 1], d[:n_in], du[:n_in - 1] = weights
                factors[dt, theta] = dgttrf(dl, d, du)
            if not np.isfinite(rhs).all():
                raise ValueError("array must not contain infs or NaNs")
            *lu, info = factors[dt, theta]
            if info > 0:
                raise LinAlgError("singular matrix")
            v = np.empty(nx) if row is None else values[row]
            v[1:-1] = dgttrs(*lu, rhs)[0][:n_in]
            v[0], v[-1] = lo_new, hi_new
    return GridSolution(grid, values, frame="log")


# -- CSV interchange -----------------------------------------------------------


def csv_chunks(sol: GridSolution):
    """Yield the CSV text of a grid solution: the header, then one chunk per
    time row.

    This is the one CSV format of bssym; `write_csv` and the CLI's price
    output both write it.  The header is "t,x,value" (log frame) or
    "t,S,value" (price frame), rows are row-major by time, lines end in
    "\n", and every float is spelled by `repr`, so it round-trips exactly
    (``nan``, ``inf``, ``-0.0`` and subnormals included).  A price label
    whose S axis `read_csv` could not rebuild is a ValueError, not a header.
    """
    if sol.frame == "log":
        col, axis = "x", sol.grid.x_values
    else:
        col, axis = "S", _s_axis(sol.grid)
    yield f"t,{col},value\n"
    us = [repr(u) for u in axis.tolist()]
    for tv, row in zip(sol.grid.t_values.tolist(), sol.values.tolist()):
        head = f"{tv!r},"
        yield "".join([f"{head}{u},{v!r}\n" for u, v in zip(us, row)])


def write_csv(sol: GridSolution, path) -> None:
    """Write `csv_chunks(sol)` to path, one time row per write; a grid that
    `csv_chunks` refuses is a ValueError before the file is created."""
    chunks = csv_chunks(sol)
    header = next(chunks)
    with open(path, "w", newline="") as fh:
        fh.write(header)
        fh.writelines(chunks)


def read_csv(path) -> GridSolution:
    """Inverse of write_csv; the label is recovered from the header, and an
    S column is read as x = log S.

    The rows must be a full rectangle in the order write_csv gives them:
    row k sits at (t[k // nx], u[k % nx]) of the ascending axes.  Anything
    else, a node out of order, duplicated or missing, or an S that is not a
    finite positive float, is a ValueError.
    """
    with open(path, "rb") as fh:
        header = next(csv.reader([fh.readline().decode()]))
        body = fh.read()
    if header == ["t", "x", "value"]:
        frame = "log"
    elif header == ["t", "S", "value"]:
        frame = "price"
    else:
        raise ValueError(f"unrecognized grid CSV header: {header}")
    if not body or body.isspace():
        raise ValueError("empty grid CSV")
    rows = np.loadtxt(io.BytesIO(body), delimiter=",", comments=None, ndmin=2)
    if rows.shape[1] != 3:
        raise ValueError(f"grid CSV rows must have 3 fields, got {rows.shape[1]}")
    t_vals, u_vals = np.unique(rows[:, 0]), np.unique(rows[:, 1])
    nt, nx = t_vals.size, u_vals.size
    if nt * nx != len(rows):
        raise ValueError("grid CSV is not a full rectangular grid")
    if not (np.array_equal(rows[:, 0], np.repeat(t_vals, nx))
            and np.array_equal(rows[:, 1], np.tile(u_vals, nt))):
        raise ValueError("grid CSV rows are not t-major with ascending u")
    values = np.ascontiguousarray(rows[:, 2]).reshape(nt, nx)
    if frame == "price":
        with np.errstate(divide="ignore", invalid="ignore"):
            u_vals = np.log(u_vals)
    return GridSolution(Grid(t_vals, u_vals), values, frame=frame)
