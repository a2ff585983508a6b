"""One-parameter symmetry flows and their action on solutions.

Four of the basis isovectors integrate to closed-form flows; index them by
their basis number.  In the log frame each flow reads

    psi(t, x) = e^(p(t, x)) phi(t', x')

for a point map (t, x) -> (t', x') and a log prefactor p, one row of
`model._LOG_FLOWS`, which `FiniteTransform` evaluates on floats and arrays.
Under S = e^x the Black-Scholes equation is this constant-coefficient one,
so the row is each flow's only formula.  Each flow maps solutions to
solutions; `certify_transform` machine-checks that claim with the discrete
residual operator.

Solutions are "surfaces" (`pricing.Surface`): a vectorized `at(t, x)` that
returns NaN outside the domain, and a `frame` label, "price" or "log", that
changes no number.  It says how the public `value(t, u)` spells u (S or x)
and how sampled grids are written, and a transform's label must match its
surface's.  Closed forms evaluate exactly at pulled-back points; grid
solutions are interpolated with a cubic spline, and the certificate records
that interpolation took place so a failed verdict can be attributed.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from operator import index
from typing import TYPE_CHECKING, Union

import numpy as np

# This module imports no scipy, and the exact layer's `gh_of` only inside
# the code that calls it.  It loads, and numpy with it, when a numeric name
# is first used: `import bssym` and the exact CLI subcommands load neither,
# and of the exact layer the numeric subcommands load only `model`.

from .grids import (
    Grid,
    GridSolution,
    ResidualReport,
    _check_stencil_nodes,
    _each_strip,
    _first_derivative,
    _row_strips,
    residual_e,
    residual_e2,
)
from .model import _LOG_FLOWS, ModelContext
from .pricing import ClosedFormSolution, Surface, _box, _finite_float, _masked, _out, _spot

if TYPE_CHECKING:
    from .isovectors import Isovector

FLOW_GENERATORS = tuple(_LOG_FLOWS)

class TransformDomainError(ValueError):
    """The pulled-back solution is nowhere evaluable on the requested grid."""

    def __init__(self, message, n_clipped=None, n_total=None):
        super().__init__(message)
        self.n_clipped = n_clipped
        self.n_total = n_total


@dataclass(frozen=True)
class FiniteTransform:
    """Finite flow exp(kappa * N_i) for an integer i in {3, 4, 5, 6} and a
    finite real kappa, kept as a float; labelled for the surfaces it acts on."""

    generator: int
    kappa: float
    frame: str = "price"

    def __post_init__(self):
        # index, not int: a generator of 4.0 is a TypeError, not a 4
        object.__setattr__(self, "generator", index(self.generator))
        if self.generator not in FLOW_GENERATORS:
            raise ValueError(
                f"no closed-form flow for generator {self.generator}; "
                f"available: {FLOW_GENERATORS}"
            )
        if self.frame not in ("price", "log"):
            raise ValueError(f"frame must be 'price' or 'log', got {self.frame!r}")
        object.__setattr__(self, "kappa", _finite_float("kappa", self.kappa))

    def pullback(self, ctx: ModelContext, t, x):
        """Map evaluation points (t, x) to base-solution points."""
        return _LOG_FLOWS[self.generator][0](self.kappa, t, x)

    def prefactor(self, ctx: ModelContext, t, x):
        log_p = _LOG_FLOWS[self.generator][1]
        return np.exp(log_p(self.kappa, ctx.rtilde_f, ctx.sigma2_f, ctx.stilde_f, t, x))

    def to_json(self) -> dict:
        return asdict(self)


def compose(*flows: FiniteTransform) -> tuple:
    """The pipeline that applies `flows` left to right: their tuple."""
    if not flows:
        raise ValueError("empty transform pipeline")
    return flows


class TransformedSurface(Surface):
    """Lazy application of a finite flow, or a pipeline of them (the tuple
    `compose` returns), to a base surface.

    The pipeline acts left to right, so a point is pulled back through its
    last stage first.  The base is evaluated once, at the fully pulled-back
    points; then each stage's prefactor multiplies in at the point that
    stage saw, innermost first: the stage-by-stage product, in the same
    order and so bit for bit, quiet where it passes the float range.  Every
    stage's label must be the base's, which the result carries.
    """

    def __init__(self, base, pipeline, ctx: ModelContext):
        if isinstance(pipeline, FiniteTransform):
            pipeline = (pipeline,)
        pipeline = compose(*pipeline)
        labels = [tr.frame for tr in pipeline]
        if set(labels) != {base.frame}:
            raise ValueError(
                f"frame labels differ: surface is {base.frame!r}, "
                f"transforms are {labels}"
            )
        self.base = base
        self.pipeline = pipeline
        self.ctx = ctx
        self.frame = base.frame

    def _pull_back(self, t, x):
        """(t, x) pulled back through every stage, and each stage with the points it saw."""
        seen = []
        # quiet where a point leaves the float range: the base masks it
        with np.errstate(over="ignore", invalid="ignore"):
            for tr in reversed(self.pipeline):
                seen.append((tr, t, x))
                t, x = tr.pullback(self.ctx, t, x)
        return t, x, seen

    def at(self, t, x):
        t, x, seen = self._pull_back(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
        out = self.base.at(t, x)
        with np.errstate(over="ignore", invalid="ignore"):
            for tr, t, x in reversed(seen):
                out = tr.prefactor(self.ctx, t, x) * out
        return _out(out)


def _knots(nodes):
    """(knots, k): FITPACK's knots of the interpolating spline (s = 0) of
    degree k = min(3, n - 1) through n ascending nodes.  Each end node is
    repeated k + 1 times; at degree 3 the interior knots are the nodes
    without the second and the second to last ("not-a-knot"), and at
    degrees 1 and 2 (two or three nodes) there are none."""
    k = min(3, nodes.size - 1)
    ends = [np.repeat(nodes[0], k + 1), np.repeat(nodes[-1], k + 1)]
    return np.concatenate([ends[0], nodes[2:-2], ends[1]]), k


def _bsplines(knots, k, x):
    """(first, [B_first(x), ..., B_first+k(x)]): the k + 1 B-splines of
    degree k that can be nonzero at each point x, by de Boor's recurrence
    (C. de Boor, *A Practical Guide to Splines*, 1978), elementwise in the
    shape of x.  A point's interval is the knot span that holds it, clamped
    to the first and last spans; a point past the knots extrapolates, and
    NaN stays NaN."""
    l = np.clip(np.searchsorted(knots, x, side="right") - 1, k, knots.size - k - 2)
    right = [knots[l + i] - x for i in range(1, k + 1)]
    left = [x - knots[l + 1 - i] for i in range(1, k + 1)]
    b = [np.ones(np.shape(x))]
    for j in range(k):
        saved = 0.0
        for r in range(j + 1):
            term = b[r] / (right[r] + left[j - r])
            b[r] = saved + right[r] * term
            saved = left[j - r] * term
        b.append(saved)
    return l - k, b


def _weighted_sum(weights, terms):
    """sum_a weights[a] * terms[a], added in index order."""
    out = weights[0] * terms[0]
    for w, term in zip(weights[1:], terms[1:]):
        out += w * term
    return out


def _solve_collocation(nodes, knots, k, rhs):
    """rhs (n rows) overwritten by the coefficients c of the splines that
    interpolate it at the nodes: the solution of A c = rhs for the
    collocation matrix A[i, j] = B_j(nodes[i]), every column of rhs at once.

    A is banded, each row's k + 1 entries starting at its first B-spline,
    and totally positive, so Gaussian elimination without pivoting is
    backward stable on it (C. de Boor and A. Pinkus, Numer. Math. 27, 1977).
    Each row keeps its band as {column: entry}: one loop down the rows
    eliminates to the left of the diagonal, one loop up substitutes back.
    """
    first, b = _bsplines(knots, k, nodes)
    rows = list(rhs)  # views: each step updates a whole row of right-hand sides
    pivots, uppers = [], []
    for i, (lo, entries) in enumerate(zip(first.tolist(), np.stack(b, axis=1).tolist())):
        band = dict(zip(range(lo, lo + k + 1), entries))
        for j in range(lo, i):
            f = band.pop(j) / pivots[j]
            if f:
                rows[i] -= f * rows[j]
                for col, u in uppers[j]:
                    band[col] -= f * u
        pivots.append(band.pop(i))
        uppers.append([(col, u) for col, u in band.items() if u])
    for i in range(len(rows) - 1, -1, -1):
        for col, u in uppers[i]:
            rows[i] -= u * rows[col]
        rows[i] /= pivots[i]
    return rhs


class GridSurface(Surface):
    """The interpolating tensor-product spline of a fully evaluable grid
    solution: FITPACK's s = 0 spline (scipy's `RectBivariateSpline` at
    degree min(3, n - 1) per axis), fitted with numpy alone.

    The coefficients C solve the collocation systems along t and then
    along x (`_solve_collocation`).  Once built, the spline only reads its
    arrays, so it runs on every strip thread at once, with no lock.
    """

    def __init__(self, sol: GridSolution):
        if not np.all(np.isfinite(sol.values)):
            raise ValueError("cannot interpolate a grid solution with gaps")
        g = sol.grid
        self._t, self._x = _knots(g.t_values), _knots(g.x_values)
        coef = _solve_collocation(g.t_values, *self._t, sol.values.copy())
        coef = _solve_collocation(g.x_values, *self._x, np.ascontiguousarray(coef.T))
        self._coef = np.ascontiguousarray(coef.T)
        self.frame = sol.frame
        self._inside = _box(g.t_values[0], g.t_values[-1], g.x_values[0], g.x_values[-1])

    def at(self, t, x):
        return _masked(t, x, self._rows, self._inside)

    # bound here, not only inherited: perfbench's tracer wraps `value` from
    # this class's own namespace
    value = Surface.value

    def _rows(self, t, x):
        """The spline at the points (t, x), broadcast together, each by one
        formula: with the B-splines N_t,a at t and N_x,b at x,

            sum_b N_x,b * (sum_a N_t,a * C[i_t + a, i_x + b]),

        each sum in index order.  The shapes decide only what is shared.  A
        t column, one t per row (a grid, a translation, the boost), takes
        the inner sum once per row, over the coefficient columns its x
        reach, and each point then gathers from its row; any other point
        set gathers per point.  Every route gives the same bits.
        """
        (t_knots, kt), (x_knots, kx), coef = self._t, self._x, self._coef
        if t.ndim == x.ndim == 2 and t.shape[1] == 1:
            it, wt = _bsplines(t_knots, kt, t)
            ix, wx = _bsplines(x_knots, kx, x)
            lo, hi = int(ix.min()), int(ix.max()) + kx + 1
            rows = _weighted_sum(wt, [coef[it[:, 0] + a, lo:hi] for a in range(kt + 1)])
            if x.shape[0] == 1:  # an x row: every row gathers the same columns
                cols = ix[0] - lo
                return _weighted_sum(wx, [rows.take(cols + b, axis=1) for b in range(kx + 1)])
            at = ix - lo + np.arange(t.shape[0])[:, None] * (hi - lo)
            flat = rows.ravel()
            return _weighted_sum(wx, [flat.take(at + b) for b in range(kx + 1)])
        t, x = np.broadcast_arrays(t, x)
        it, wt = _bsplines(t_knots, kt, t)
        ix, wx = _bsplines(x_knots, kx, x)
        width, flat = coef.shape[1], coef.ravel()
        at = it * width + ix
        return _weighted_sum(wx, [
            _weighted_sum(wt, [flat.take(at + (a * width + b)) for a in range(kt + 1)])
            for b in range(kx + 1)])


class BoxRestrictedSurface(Surface):
    """A surface clipped to the (t, x) bounding box of a grid; outside it
    evaluates to NaN.

    Certification treats a base that would evaluate anywhere, a closed form
    or a foreign surface, as known on the certification grid's box only;
    this wrapper realizes that clipping.  A grid base needs none: its
    spline is known on its own grid's box.  The box is widened by 1e-12 of
    its largest bound on each axis, so nodes on its edge stay in.
    """

    def __init__(self, base, grid: Grid):
        self.base = base
        self.frame = base.frame
        t_lo, t_hi = float(grid.t_values[0]), float(grid.t_values[-1])
        x_lo, x_hi = float(grid.x_values[0]), float(grid.x_values[-1])
        eps_t = 1e-12 * max(abs(t_lo), abs(t_hi), 1.0)
        eps_x = 1e-12 * max(abs(x_lo), abs(x_hi), 1.0)
        self._inside = _box(t_lo - eps_t, t_hi + eps_t, x_lo - eps_x, x_hi + eps_x)

    def at(self, t, x):
        return _masked(t, x, self.base.at, self._inside)


class _ForeignSurface(Surface):
    """A surface from outside bssym with only a total `value(t, u)`, in the
    spelling of its label: read at S = e^x when it is labelled "price".
    Nothing says that code is thread-safe, so it is called one at a time."""

    def __init__(self, sol):
        self.sol = sol
        self.frame = sol.frame
        self._lock = threading.Lock()

    def at(self, t, x):
        u = _spot(x) if self.frame == "price" else x
        # foreign code gets whole (t, u) arrays of one shape, as from meshes
        tu = [np.array(a) for a in np.broadcast_arrays(t, u)]
        with self._lock:
            out = self.sol.value(*tu)
        if np.shape(out) != tu[0].shape:  # checked: a prefactor would broadcast it
            raise ValueError(f"foreign values of shape {np.shape(out)} at points {tu[0].shape}")
        return out


def as_surface(sol):
    """Wrap a GridSolution as an interpolating surface and a foreign surface
    (one with `frame` and `value` only) as one evaluated in x; pass bssym
    surfaces through."""
    if isinstance(sol, GridSolution):
        return GridSurface(sol)
    if isinstance(sol, Surface):
        return sol
    if not hasattr(sol, "value") or not hasattr(sol, "frame"):
        raise TypeError(f"not a solution surface: {sol!r}")
    return _ForeignSurface(sol)


def apply_transform(transform: Union[FiniteTransform, tuple], sol, ctx: ModelContext):
    """Apply a finite flow, or a pipeline of them, to a solution surface (or
    GridSolution).  A single flow is the one-stage pipeline compose(flow)."""
    return TransformedSurface(as_surface(sol), transform, ctx)


def sample_surface(surface, grid: Grid) -> GridSolution:
    """Evaluate a bssym surface at all grid nodes (t, x); the samples keep
    its label.  Others go through `as_surface` first.

    The grid goes in as strips of whole time rows, each a t column against
    the x row and small enough that its temporaries stay in cache, and the
    strips run on every CPU of the process (`grids._each_strip`); there is
    no option.  Every surface computes node by node, so the values are the
    same bits as from one call on the whole grid.  The only code from
    outside bssym, a foreign surface's `value`, is called one strip at a
    time; bssym's surfaces run on every strip at once.
    """
    surface = as_surface(surface)
    t, x = grid.t_values[:, None], grid.x_values[None, :]
    values = np.empty((grid.nt, grid.nx))

    def sample(lo, hi):
        values[lo:hi] = surface.at(t[lo:hi], x)

    _each_strip(sample, _row_strips(grid.nt, grid.nx))
    return GridSolution(grid, values, frame=surface.frame)


@dataclass(frozen=True)
class CertificationResult:
    """Residual-based verdict for a transformed solution on a grid."""

    report: ResidualReport
    tol: float
    verdict: bool
    n_clipped_nodes: int
    used_interpolation: bool
    samples: GridSolution = None  # the transformed values on the grid

    def to_json(self) -> dict:
        return {
            "verdict": "pass" if self.verdict else "fail",
            "tol": self.tol,
            "rel_max_residual": self.report.rel_max,
            "report": self.report.to_json(),
            "n_clipped_nodes": self.n_clipped_nodes,
            "used_interpolation": self.used_interpolation,
        }


def _non_finite_nodes(surface, base, sampled: GridSolution):
    """(n_bad, n_over): the samples' non-finite nodes, and those of them
    whose pulled-back point the base evaluates to a finite value, which the
    transform has overflowed.  A strip at a time, with no full-size mask,
    and nothing of it outlives the call."""
    grid = sampled.grid
    n_bad = n_over = 0
    for lo, hi in _row_strips(grid.nt, grid.nx):
        nodes = np.flatnonzero(~np.isfinite(sampled.values[lo:hi]))
        if nodes.size:
            n_bad += nodes.size
            t, x, _ = surface._pull_back(
                grid.t_values[lo + nodes // grid.nx], grid.x_values[nodes % grid.nx])
            n_over += np.count_nonzero(np.isfinite(base.at(t, x)))
    return n_bad, n_over


def certify_transform(
    transform: Union[FiniteTransform, tuple],
    sol,
    grid: Grid,
    ctx: ModelContext,
    tol: float,
) -> CertificationResult:
    """Apply a transform (or pipeline) and residual-check the result.

    The verdict compares the max interior relative residual against tol; a
    surface that is zero on every evaluable node (scale 0) fails, since its
    residual says nothing about the flow.
    A base that evaluates anywhere (a closed form, a foreign surface) is
    known on the certification grid's box only, a grid base on its own
    grid's box; pullbacks that leave that box mark their nodes as clipped.
    Clipped nodes are excluded and counted, and if nothing remains
    evaluable the transform has left the domain entirely and a
    TransformDomainError is raised; a grid too coarse for the stencils is
    a ValueError.  A node whose pulled-back point the base evaluates, but
    whose value is not finite, is an OverflowError.
    """
    _check_stencil_nodes(grid)
    base = as_surface(sol)
    if not isinstance(base, GridSurface):
        base = BoxRestrictedSurface(base, grid)
    surface = apply_transform(transform, base, ctx)
    sampled = sample_surface(surface, grid)
    n_bad, n_over = _non_finite_nodes(surface, base, sampled)
    if n_over:
        raise OverflowError(f"{n_over} of {sampled.values.size} nodes overflow")
    # one operator on the node values; the label names it E (price) or E2 (log)
    residual = residual_e if sampled.frame == "price" else residual_e2
    try:
        report = residual(sampled, ctx)
    except ValueError as exc:
        raise TransformDomainError(
            f"transformed solution is not evaluable on the grid interior "
            f"({n_bad} of {sampled.values.size} nodes clipped)",
            n_clipped=n_bad,
            n_total=int(sampled.values.size),
        ) from exc
    return CertificationResult(
        report=report,
        tol=float(tol),
        verdict=bool(report.scale > 0 and report.rel_max <= tol),
        n_clipped_nodes=n_bad,
        used_interpolation=isinstance(base, GridSurface),
        samples=sampled,
    )


# -- infinitesimal actions ------------------------------------------------------


def _action_of(N: Isovector) -> tuple:
    """(-N^t, -N^x, g, h) of an isovector, the coefficients of its first-order
    action on solutions phi(t, x):

        (N~ phi)(t, x) = -N^t phi_t - N^x phi_x + g + h phi
    """
    for var in ("phi", "A", "B"):
        if N.Nt.depends_on(var) or N.Nx.depends_on(var):
            raise ValueError(f"N^t and N^x must depend only on (t, x); found {var}")
    from .isovectors import gh_of

    pair = gh_of(N)
    return -N.Nt, -N.Nx, pair.g, pair.h


def _act(action: tuple, t, x, phi, phi_t, phi_x):
    """The action at points (t, x) where the solution is phi, with
    derivatives phi_t and phi_x there; pass None for a derivative whose
    coefficient, N^t or N^x, is zero."""
    minus_nt, minus_nx, g, h = action
    out = g.eval_grid(t, x) + h.eval_grid(t, x) * phi
    if phi_t is not None:
        out = out + minus_nt.eval_grid(t, x) * phi_t
    if phi_x is not None:
        out = out + minus_nx.eval_grid(t, x) * phi_x
    return out


class ActionSurface(Surface):
    """Surface N~(phi) of an isovector N on a closed-form solution, from the
    value and derivatives in x of one closed-form pass
    (`ClosedFormSolution.value_and_derivatives`).  It is NaN outside the
    closed form's domain and carries its label.  A foreign `value` is the
    only code from outside bssym, and an action never calls one."""

    def __init__(self, N: Isovector, base):
        if not isinstance(base, ClosedFormSolution):
            raise ValueError(
                "base solution does not expose derivatives; sample it on a "
                "grid and use the stencil route instead"
            )
        self.action = _action_of(N)
        self._needs = [not c.is_zero() for c in self.action[:2]]
        self.base = base
        self.frame = base.frame

    def at(self, t, x):
        return _masked(t, x, self._acted, self.base.inside)

    def _acted(self, t, x):
        jet = self.base.value_and_derivatives(t, x, *self._needs)
        return _act(self.action, t, x, *jet)

    # bound here, not only inherited: perfbench's tracer wraps `value` from
    # this class's own namespace
    value = Surface.value


def infinitesimal_action(N: Isovector, sol):
    """Build N~(phi) for a solution, in x; the result keeps its label.

    Closed-form solutions use their analytic derivatives and return an
    `ActionSurface`; grid solutions use the fourth-order stencils of the
    residual operator (`grids._first_derivative`) and return a
    GridSolution.  No stencil is one-sided, so where N^t (or N^x) is not
    zero the first and last time rows (or space columns) are NaN, and a
    value past the float range is inf or NaN, with no floating-point
    warning.  Any other solution, a foreign one too, is a ValueError.
    """
    if not isinstance(sol, GridSolution):
        return ActionSurface(N, sol)
    action = _action_of(N)
    g = sol.grid
    _check_stencil_nodes(g)
    v = sol.values
    with np.errstate(over="ignore", invalid="ignore"):
        out = _act(
            action, g.t_values[:, None], g.x_values[None, :], v,
            None if action[0].is_zero() else _first_derivative(v, g.dt, axis=0),
            None if action[1].is_zero() else _first_derivative(v, g.dx, axis=1),
        )
    return GridSolution(g, out, frame=sol.frame)
