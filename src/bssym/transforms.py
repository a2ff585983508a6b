"""One-parameter symmetry flows and their action on solutions.

Four of the basis isovectors integrate to closed-form flows; index them by
their basis number.  In the log frame each flow reads

    psi(t, x) = e^(a + b x) phi(t + dt, x + dx)

with
    3: time translation    dt = kappa,   a = -kappa stilde^2/(2 sigma2)
    4: boost               dx = kappa t, a = kappa t (2 rtilde - kappa)/(2 sigma2),
                           b = -kappa/sigma2
    5: space translation   dx = kappa,   a = kappa rtilde/sigma2
    6: scaling             a = kappa
and every other part zero: under S = e^x the Black-Scholes equation is this
constant-coefficient one, so the table is each flow's only formula.  Each
flow maps solutions to solutions; `certify_transform` machine-checks that
claim with the discrete residual operator.

Solutions are "surfaces" (`pricing.Surface`): a vectorized `at(t, x)` that
returns NaN outside the domain, and a `frame` label, "price" or "log", that
changes no number.  It says how the public `value(t, u)` spells u (S or x)
and how sampled grids are written, and a transform's label must match its
surface's.  Closed forms evaluate exactly at pulled-back points; grid
solutions are interpolated with a cubic spline, and the certificate records
that interpolation took place so a failed verdict can be attributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

# scipy is imported inside the code that calls it, so that importing
# bssym (and the exact CLI subcommands) costs about an `import numpy`.

from .exppoly import ExpPoly
from .grids import (
    Grid,
    GridSolution,
    ResidualReport,
    _first_derivative,
    residual_e,
    residual_e2,
)
from .isovectors import Isovector, gh_of
from .model import ModelContext
from .pricing import Surface, _box, _masked

# (dt, dx, a, b) of exp(kappa N_i), as functions of
# (kappa, ctx, t); None marks a part that is the identity, so it costs nothing.
_LOG_FLOWS = {
    3: lambda k, c, t: (k, None, -k * c.stilde_f**2 / (2.0 * c.sigma2_f), None),
    4: lambda k, c, t: (
        None, k * t, k * t * (2.0 * c.rtilde_f - k) / (2.0 * c.sigma2_f), -k / c.sigma2_f
    ),
    5: lambda k, c, t: (None, k, k * c.rtilde_f / c.sigma2_f, None),
    6: lambda k, c, t: (None, None, k, None),
}
FLOW_GENERATORS = tuple(_LOG_FLOWS)

class TransformDomainError(ValueError):
    """The pulled-back solution is nowhere evaluable on the requested grid."""

    def __init__(self, message, n_clipped=None, n_total=None):
        super().__init__(message)
        self.n_clipped = n_clipped
        self.n_total = n_total


@dataclass(frozen=True)
class FiniteTransform:
    """Finite flow exp(kappa * N_i) for i in {3, 4, 5, 6}, labelled for the
    surfaces it acts on."""

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

    def pullback(self, ctx: ModelContext, t, x):
        """Map evaluation points (t, x) to base-solution points."""
        dt, dx, _, _ = _LOG_FLOWS[self.generator](self.kappa, ctx, t)
        if dt is not None:
            t = t + dt
        if dx is not None:
            x = x + dx
        return t, x

    def prefactor(self, ctx: ModelContext, t, x):
        _, _, a, b = _LOG_FLOWS[self.generator](self.kappa, ctx, t)
        return np.exp(a) if b is None else np.exp(a + b * x)

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
    order and so bit for bit, in one masked call.  Every stage's label must
    be the base's, which the result carries.
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

    def at(self, t, x):
        def flowed(t, x):
            seen = []
            for tr in reversed(self.pipeline.transforms):
                seen.append((tr, t, x))
                t, x = tr.pullback(self.ctx, t, x)
            out = self.base.at(t, x)
            for tr, t, x in reversed(seen):
                out = tr.prefactor(self.ctx, t, x) * out
            return out

        return _masked(t, x, flowed)


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
        """The spline at the points (t, x), one grid call per run of equal t
        with ascending x.

        Every flow maps a grid row to points at one time, and FITPACK's grid
        evaluator gives the same values as the pointwise `ev` at a fraction of
        the cost.  FITPACK's grid call needs ascending x, so a point set
        whose x descends within a run goes to `ev`.
        """
        tf, xf = t.ravel(), x.ravel()
        starts = np.flatnonzero(tf[1:] != tf[:-1]) + 1
        descends = np.diff(xf) < 0
        descends[starts - 1] = False
        if np.any(descends):
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
    """A surface from outside bssym, which has only `value(t, u)` in the
    spelling of its label: read at S = e^x when it is labelled "price"."""

    def __init__(self, sol):
        self.sol = sol
        self.frame = sol.frame

    def at(self, t, x):
        return self.sol.value(t, np.exp(x) if self.frame == "price" else x)


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
    its label.  Others go through `as_surface` first."""
    T, X = grid.meshes()
    return GridSolution(grid, surface.at(T, X), frame=surface.frame)


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
    TransformDomainError is raised.
    """
    base = as_surface(sol)
    if not isinstance(base, GridSurface):
        base = BoxRestrictedSurface(base, grid)
    surface = apply_transform(transform, base, ctx)
    sampled = sample_surface(surface, grid)
    n_bad = int(np.sum(~np.isfinite(sampled.values)))
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


@dataclass(frozen=True)
class InfinitesimalAction:
    """First-order action of an isovector on solutions phi(t, x):

        (N~ phi)(t, x) = -N^t phi_t - N^x phi_x + g + h phi
    """

    minus_nt: ExpPoly
    minus_nx: ExpPoly
    g: ExpPoly
    h: ExpPoly

    @staticmethod
    def from_isovector(N: Isovector) -> "InfinitesimalAction":
        for var in ("phi", "A", "B"):
            if N.Nt.depends_on(var) or N.Nx.depends_on(var):
                raise ValueError(
                    f"N^t and N^x must depend only on (t, x); found {var}"
                )
        pair = gh_of(N)
        return InfinitesimalAction(
            minus_nt=-N.Nt, minus_nx=-N.Nx, g=pair.g, h=pair.h
        )

    @property
    def needs_dt(self) -> bool:
        return not self.minus_nt.is_zero()

    @property
    def needs_dx(self) -> bool:
        return not self.minus_nx.is_zero()

    def apply(self, t, x, phi, phi_t=None, phi_x=None):
        """The action at points (t, x) where the solution is phi, with
        derivatives phi_t and phi_x there; each is read only if its
        coefficient, N^t or N^x, is not zero (`needs_dt`, `needs_dx`)."""
        out = self.g.eval_grid(t, x) + self.h.eval_grid(t, x) * phi
        if self.needs_dt:
            out = out + self.minus_nt.eval_grid(t, x) * phi_t
        if self.needs_dx:
            out = out + self.minus_nx.eval_grid(t, x) * phi_x
        return out


class ActionSurface(Surface):
    """Surface N~(phi) for a base solution with derivatives in x, that is,
    with a `value_and_derivatives(t, x, dt, dx)` method as the closed form
    has; it carries the base's label."""

    def __init__(self, action: InfinitesimalAction, base):
        if not hasattr(base, "value_and_derivatives"):
            raise ValueError(
                "base solution does not expose derivatives; sample it on a "
                "grid and use the stencil route instead"
            )
        self.action = action
        self.base = base
        self.frame = base.frame

    def at(self, t, x):
        a = self.action

        def acted(t, x):
            jet = self.base.value_and_derivatives(t, x, a.needs_dt, a.needs_dx)
            return a.apply(t, x, *jet)

        return _masked(t, x, acted)

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
    action = InfinitesimalAction.from_isovector(N)
    if isinstance(sol, GridSolution):
        g = sol.grid
        if g.nt < 3 or g.nx < 3:
            raise ValueError("grid too coarse for derivative stencils")
        v = sol.values
        T, X = g.meshes()
        out = action.apply(
            T, X, v,
            _first_derivative(v, g.dt, axis=0) if action.needs_dt else None,
            _first_derivative(v, g.dx, axis=1) if action.needs_dx else None,
        )
        return GridSolution(g, out, frame=sol.frame)
    return ActionSurface(action, sol)
