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

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

# scipy, and the exact layer's `gh_of`, are imported inside the code that
# calls them.  This module, and numpy with it, loads when a numeric name is
# first used: `import bssym` and the exact CLI subcommands load neither, and
# of the exact layer the numeric subcommands load only `model`.

from .grids import (
    Grid,
    GridSolution,
    ResidualReport,
    _first_derivative,
    _row_strips,
    residual_e,
    residual_e2,
)
from .model import _LOG_FLOWS, ModelContext
from .pricing import Surface, _box, _masked, _out, _spot

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
    """Finite flow exp(kappa * N_i) for i in {3, 4, 5, 6} and a finite real
    kappa, kept as a float; labelled for the surfaces it acts on."""

    generator: int
    kappa: float
    frame: str = "price"

    def __post_init__(self):
        if self.generator not in FLOW_GENERATORS:
            raise ValueError(
                f"no closed-form flow for generator {self.generator}; "
                f"available: {FLOW_GENERATORS}"
            )
        if self.frame not in ("price", "log"):
            raise ValueError(f"frame must be 'price' or 'log', got {self.frame!r}")
        try:
            finite = math.isfinite(self.kappa)
        except OverflowError:  # an int or a Fraction past the float range
            finite = False
        if not finite:
            raise ValueError(f"kappa must be finite, got {self.kappa!r}")
        object.__setattr__(self, "kappa", float(self.kappa))

    def pullback(self, ctx: ModelContext, t, x):
        """Map evaluation points (t, x) to base-solution points."""
        return _LOG_FLOWS[self.generator][0](self.kappa, t, x)

    def prefactor(self, ctx: ModelContext, t, x):
        log_p = _LOG_FLOWS[self.generator][1]
        return np.exp(log_p(self.kappa, ctx.rtilde_f, ctx.sigma2_f, ctx.stilde_f, t, x))

    def to_json(self) -> dict:
        return {"generator": self.generator, "kappa": self.kappa, "frame": self.frame}


@dataclass(frozen=True)
class Pipeline:
    """A sequence of finite transforms applied left to right."""

    transforms: tuple

    def __post_init__(self):
        if not self.transforms:
            raise ValueError("empty transform pipeline")

    def to_json(self) -> list:
        return [tr.to_json() for tr in self.transforms]


def compose(*transforms: FiniteTransform) -> Pipeline:
    return Pipeline(tuple(transforms))


class TransformedSurface(Surface):
    """Lazy application of a pipeline to a base surface.

    The pipeline acts left to right, so a point is pulled back through its
    last stage first.  The base is evaluated once, at the fully pulled-back
    points; then each stage's prefactor multiplies in at the point that
    stage saw, innermost first: the stage-by-stage product, in the same
    order and so bit for bit, quiet where it passes the float range.  Every
    stage's label must be the base's, which the result carries.
    """

    def __init__(self, base, pipeline: Pipeline, ctx: ModelContext):
        labels = [tr.frame for tr in pipeline.transforms]
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
        for tr in reversed(self.pipeline.transforms):
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


class GridSurface(Surface):
    """Cubic-spline interpolant over a fully evaluable grid solution."""

    def __init__(self, sol: GridSolution):
        from scipy.interpolate import RectBivariateSpline

        if not np.all(np.isfinite(sol.values)):
            raise ValueError("cannot interpolate a grid solution with gaps")
        g = sol.grid
        self._spline = RectBivariateSpline(
            g.t_values, g.x_values, sol.values, kx=min(3, g.nt - 1), ky=min(3, g.nx - 1)
        )
        self.frame = sol.frame
        self._inside = _box(g.t_values[0], g.t_values[-1], g.x_values[0], g.x_values[-1])

    def at(self, t, x):
        return _masked(t, x, self._rows, self._inside)

    # bound here, not only inherited: perfbench's tracer wraps `value` from
    # this class's own namespace
    value = Surface.value

    def _rows(self, t, x):
        """The spline at the points (t, x), broadcast together.

        FITPACK's grid evaluator gives the same values as the pointwise `ev`
        at a fraction of the cost, and needs ascending axes.  A t column
        against an x row, both ascending, is one grid call.  Otherwise each
        run of equal t with ascending x is one grid call, since every flow
        maps a grid row to points at one time; a point set with no run of
        two points, or whose x descends or is NaN in a run, is one `ev` call.
        """
        if t.ndim == x.ndim == 2 and t.shape[1] == x.shape[0] == 1:
            tf, xf = t[:, 0], x[0]
            if np.all(np.diff(tf) >= 0) and np.all(np.diff(xf) >= 0):
                return self._spline(tf, xf)
        t, x = np.broadcast_arrays(t, x)
        tf, xf = t.ravel(), x.ravel()
        starts = np.flatnonzero(tf[1:] != tf[:-1]) + 1
        descends = ~(np.diff(xf) >= 0)
        descends[starts - 1] = False
        if starts.size == tf.size - 1 or np.any(descends):
            return self._spline.ev(t, x)
        out = np.empty(tf.size)
        bounds = [0, *starts.tolist(), tf.size]
        for lo, hi in zip(bounds, bounds[1:]):
            out[lo:hi] = self._spline(tf[lo], xf[lo:hi])[0]
        return out.reshape(t.shape)


class BoxRestrictedSurface(Surface):
    """A surface clipped to the (t, x) bounding box of a grid; outside it
    evaluates to NaN.

    Certification treats the base solution as known on the certification
    grid only, so pulled-back points must stay inside the grid's bounding
    box; this wrapper realizes that clipping for closed forms, which would
    otherwise evaluate anywhere before maturity.  The box is widened by
    1e-12 of its largest bound on each axis, so nodes on its edge stay in.
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
    spelling of its label: read at S = e^x when it is labelled "price"."""

    def __init__(self, sol):
        self.sol = sol
        self.frame = sol.frame

    def at(self, t, x):
        u = _spot(x) if self.frame == "price" else x
        # foreign code gets whole (t, u) arrays of one shape, as from meshes
        return self.sol.value(*(np.array(a) for a in np.broadcast_arrays(t, u)))


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


def apply_transform(transform: Union[FiniteTransform, Pipeline], sol, ctx: ModelContext):
    """Apply a finite flow, or a pipeline of them, to a solution surface (or
    GridSolution).  A single flow is the one-stage pipeline compose(flow)."""
    if not isinstance(transform, Pipeline):
        transform = compose(transform)
    return TransformedSurface(as_surface(sol), transform, ctx)


def sample_surface(surface, grid: Grid) -> GridSolution:
    """Evaluate a bssym surface at all grid nodes (t, x); the samples keep
    its label.  Others go through `as_surface` first.

    The grid goes in as strips of whole time rows, each a t column against
    the x row and small enough that its temporaries stay in cache.  Every
    surface computes node by node, so the values are the same bits as from
    one call on the whole grid.
    """
    surface = as_surface(surface)
    t, x = grid.t_values[:, None], grid.x_values[None, :]
    values = np.empty((grid.nt, grid.nx))
    for lo, hi in _row_strips(grid.nt, grid.nx):
        strip = surface.at(t[lo:hi], x)
        # checked, not broadcast: a foreign surface's value could be any shape
        if np.shape(strip) != (hi - lo, grid.nx):
            raise ValueError(
                f"surface values of shape {np.shape(strip)} for a strip of "
                f"{hi - lo} x {grid.nx} nodes"
            )
        values[lo:hi] = strip
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


def certify_transform(
    transform: Union[FiniteTransform, Pipeline],
    sol,
    grid: Grid,
    ctx: ModelContext,
    tol: float,
) -> CertificationResult:
    """Apply a transform (or pipeline) and residual-check the result.

    The verdict compares the max interior relative residual against tol; a
    surface that is zero on every evaluable node (scale 0) fails, since its
    residual says nothing about the flow.
    The base solution is treated as known on the certification grid only,
    so pullbacks that leave the grid's bounding box mark their nodes as
    clipped; clipped nodes are excluded and counted, and if nothing remains
    evaluable the transform has left the domain entirely and a
    TransformDomainError is raised.  A node whose pulled-back point the base
    evaluates, but whose value is not finite, is an OverflowError.
    """
    base = as_surface(sol)
    if not isinstance(base, GridSurface):
        base = BoxRestrictedSurface(base, grid)
    surface = apply_transform(transform, base, ctx)
    sampled = sample_surface(surface, grid)
    bad = ~np.isfinite(sampled.values)
    n_bad, n_over = int(bad.sum()), 0
    # the base at the non-finite nodes' pulled-back points, a strip at a time
    for lo, hi in _row_strips(grid.nt, grid.nx) if n_bad else ():
        nodes = np.flatnonzero(bad[lo:hi])
        t, x, _ = surface._pull_back(
            grid.t_values[lo + nodes // grid.nx], grid.x_values[nodes % grid.nx])
        n_over += np.count_nonzero(np.isfinite(base.at(t, x)))
    if n_over:
        raise OverflowError(f"{n_over} of {bad.size} nodes overflow")
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
    """Surface N~(phi) of an isovector N on a base solution with derivatives
    in x, that is, with a `value_and_derivatives(t, x, dt, dx)` method and an
    `inside(t, x)` domain predicate, as the closed form has.  It is NaN
    outside the base's domain and carries the base's label."""

    def __init__(self, N: Isovector, base):
        if not hasattr(base, "value_and_derivatives"):
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

    Closed-form solutions use their analytic derivatives and return a
    surface; grid solutions use the fourth-order stencils of the residual
    operator (`grids._first_derivative`) and return a GridSolution.  No
    stencil is one-sided, so where N^t (or N^x) is not zero the first and
    last time rows (or space columns) are NaN.
    """
    if not isinstance(sol, GridSolution):
        return ActionSurface(N, sol)
    action = _action_of(N)
    g = sol.grid
    if g.nt < 3 or g.nx < 3:
        raise ValueError("grid too coarse for derivative stencils")
    v = sol.values
    out = _act(
        action, g.t_values[:, None], g.x_values[None, :], v,
        None if action[0].is_zero() else _first_derivative(v, g.dt, axis=0),
        None if action[1].is_zero() else _first_derivative(v, g.dx, axis=1),
    )
    return GridSolution(g, out, frame=sol.frame)
