"""Closed-form option pricing and the solution surfaces built on it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy is imported inside the code that calls it.  This module, and numpy
# with it, loads when a numeric name is first used: `import bssym` and the
# exact CLI subcommands load neither.

from .model import ModelContext

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def _finite_float(name: str, value) -> float:
    """A real parameter read once as a float: anything past the float range,
    an int or a Fraction too, is the "must be finite" ValueError, and a
    non-number is a TypeError."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int or a Fraction past the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")
    return float(value)


@dataclass(frozen=True)
class OptionSpec:
    """Vanilla European option parameters; strike and maturity are read
    once as floats."""

    strike: float
    maturity: float
    kind: str = "call"

    def __post_init__(self):
        for name in ("strike", "maturity"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, _finite_float(name, value))
        if self.kind not in ("call", "put"):
            raise ValueError(f"kind must be 'call' or 'put', got {self.kind!r}")

    def payoff(self, S):
        S = np.asarray(S, dtype=float)
        if self.kind == "call":
            out = np.maximum(S - self.strike, 0.0)
        else:
            out = np.maximum(self.strike - S, 0.0)
        return _out(out)


def _normal_pdf(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _in_domain(spec: OptionSpec, t, S):
    """The closed form's one domain, broadcast: 0 < S < inf and t at or
    before maturity.  NaN is outside it."""
    return (S > 0) & (S < np.inf) & (spec.maturity - t >= 0)


def _closed_form(spec: OptionSpec, ctx: ModelContext, t, S, theta=False, delta=False):
    """(C, C_t, C_S) at calendar time t and spot S, broadcast together, from
    one d1/d2, one discount and one Phi pass; a derivative not asked for is
    None.

    This is the one home of the Black-Scholes formulas.  At maturity C is
    the payoff and C_t, C_S are NaN, where the payoff's kink has none;
    outside `_in_domain` all three are NaN, and no floating-point warning
    leaks.  The work of t alone (tau, its square root, the discount) runs on
    t as given and log(S/K) on S as given: against an S row, a t column
    pays per point only for d1, d2, the two Phi and their combination.  A
    put takes Phi(-d) by its own calls, because 1 - Phi(d) would change bits.
    """
    from scipy.special import ndtr

    call = spec.kind == "call"
    tau = spec.maturity - t
    # a spot of 0 or inf or a tau of 0 or below divides by zero, makes
    # inf * 0 or takes a negative root: masked.  At r < 0 a t far before
    # maturity overflows the discount
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sig, sq = ctx.sigma_f, np.sqrt(tau)
        d1 = (np.log(S / spec.strike) + ctx.stilde_f * tau) / (sig * sq)
        d2 = d1 - sig * sq
        nd1 = ndtr(d1) if delta or call else None
        disc = spec.strike * np.exp(-ctx.r_f * tau)
        nd2 = ndtr(d2) if call else ndtr(-d2)
        kd = disc * nd2
        rkd = ctx.r_f * disc * nd2 if theta else None
        # only r < 0 overflows the discount inside the domain; K e^(-r tau)
        # Phi(+-d2) may still be a float there, so those rows form it in logs
        if ctx.r_f < 0 and (over := np.isinf(disc)).any():
            from scipy.special import log_ndtr

            kd_log = spec.strike * np.exp(-ctx.r_f * tau + log_ndtr(d2 if call else -d2))
            kd = np.where(over, kd_log, kd)
            if theta:
                rkd = np.where(over, ctx.r_f * kd_log, rkd)
        c = S * nd1 - kd if call else kd - S * ndtr(-d1)
        c_t = c_s = None
        if theta:
            decay = -S * _normal_pdf(d1) * sig / (2.0 * sq)
            c_t = decay - rkd if call else decay + rkd
        if delta:
            c_s = nd1 if call else nd1 - 1.0
    ok = _in_domain(spec, t, S)
    live = ok & (tau > 0)
    if np.all(live):
        return c, c_t, c_s
    c = np.where(live, c, np.where(ok, spec.payoff(S), np.nan))
    return (c, *(None if v is None else np.where(live, v, np.nan) for v in (c_t, c_s)))


def bs_price(spec: OptionSpec, ctx: ModelContext, t, S):
    """Closed-form price at calendar time t and spot S (scalar or array,
    broadcast together).

    At t = maturity the payoff is returned exactly; t beyond maturity, a
    nonpositive spot, or a t or spot that is not a finite number is a
    domain error.
    """
    t, S = np.asarray(t, dtype=float), np.asarray(S, dtype=float)
    if np.any(S <= 0):
        raise ValueError("spot must be positive")
    if np.any(t > spec.maturity):
        raise ValueError("t is beyond maturity")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(S))):
        raise ValueError("t and spot must be finite numbers")
    return _out(_closed_form(spec, ctx, t, S)[0])


def _out(a):
    """a as a float array, or as a float if it is 0-d."""
    a = np.asarray(a, dtype=float)
    return a if a.ndim else float(a)


def _masked(t, u, fn, inside):
    """fn at the points (t, u), broadcast together, and NaN wherever
    `inside(t, u)` is false; a float for scalar input.

    fn runs at most once: on the points as given if all are inside (a t
    column and an x row stay axes), else on the smallest block, an index
    range per axis, that holds the inside points (a 1-D point set is one
    range).  It must return their broadcast shape and be total; its values
    at the block's outside points, and its floating-point warnings, are dropped.
    """
    t, u = np.asarray(t, dtype=float), np.asarray(u, dtype=float)
    with np.errstate(all="ignore"):
        ok = np.broadcast_to(inside(t, u), np.broadcast_shapes(t.shape, u.shape))
        if ok.all() and ok.size:
            return _out(fn(t, u))
        out = np.full(ok.shape, np.nan)
        if ok.any():
            block = _block(ok)
            out[block] = np.where(ok[block], fn(_cut(t, block), _cut(u, block)), np.nan)
    return _out(out)


def _block(ok):
    """The slices of the smallest block, one index range per axis, that
    holds every true point of ok; it must have one."""
    axes = range(ok.ndim)
    hits = [np.flatnonzero(ok.any(axis=tuple(a for a in axes if a != i))) for i in axes]
    return tuple(slice(hit[0], hit[-1] + 1) for hit in hits)


def _cut(a, block):
    """The part of a that broadcasts onto `block`, contiguous, so
    transcendental ufuncs run the same loop as on a whole axis."""
    a = a.reshape((1,) * (len(block) - a.ndim) + a.shape)
    part = tuple(s if n > 1 else slice(None) for s, n in zip(block, a.shape))
    return np.ascontiguousarray(a[part])


def _box(t_lo, t_hi, u_lo, u_hi):
    """The predicate of the closed box [t_lo, t_hi] x [u_lo, u_hi]."""
    return lambda t, u: (t >= t_lo) & (t <= t_hi) & (u >= u_lo) & (u <= u_hi)


class Surface:
    """A solution surface: `at(t, x)` evaluates it in the log frame x = log S
    at any broadcastable t and x, with NaN outside its domain; the result
    has their broadcast shape.  A grid is best passed as a t column and an
    x row, as `transforms.sample_surface` does, one strip of time rows at a
    time: work that needs one coordinate alone then runs once per row or
    column, not once per node, a strip's temporaries stay in cache, and the
    values are the same bits as at the grid's full meshes.  So `at` must
    compute each point from that point alone, and be total and quiet: NaN,
    with no warning or raise, anywhere off its domain, where `_masked` may
    evaluate it.  The strips run on every CPU of the process, so `at` is
    called from several threads at once and must be safe to: bssym's
    surfaces, a spline's too, only read their own arrays, and call code
    from outside bssym (a foreign `value`, an action's base) one at a
    time.

    Every surface computes in (t, x) and evaluates another one through `at`.
    Its `frame`, "price" or "log", is only a label: it says how `value`
    spells the space argument and how a grid sampled from it is written.
    """

    def value(self, t, u):
        """The surface at (t, u): u is the spot S under the "price" label and
        x = log S under the "log" label."""
        if self.frame == "price":
            with np.errstate(divide="ignore", invalid="ignore"):
                u = np.log(u)
        return self.at(t, u)


class ClosedFormSolution(Surface):
    """Solution surface backed by the closed form, labelled "price".

    It evaluates at S = e^x through the kernel `_closed_form`, whose one
    mask reads NaN, quietly, off the domain 0 < e^x < inf and t <= maturity.
    """

    frame = "price"

    def __init__(self, spec: OptionSpec, ctx: ModelContext):
        # the kernel's scipy.special loads here, on the caller's thread.  First
        # imported inside a strip, it would load on a pool thread, into that
        # thread's fresh malloc arena: 8% slower in a new process
        import scipy.special  # noqa: F401

        self.spec = spec
        self.ctx = ctx

    def value(self, t, u):
        # under the "price" label the kernel reads S itself: no log, then exp
        S = _spot(u) if self.frame == "log" else np.asarray(u, dtype=float)
        return _out(_closed_form(self.spec, self.ctx, np.asarray(t, dtype=float), S)[0])

    def at(self, t, x):
        return _out(self.value_and_derivatives(t, x, False, False)[0])

    def inside(self, t, x):
        """Whether (t, x) is in the domain, broadcast together."""
        return _in_domain(self.spec, t, _spot(x))

    def value_and_derivatives(self, t, x, dt, dx):
        """(phi, phi_t, phi_x) at the points (t, x), broadcast together, from
        one closed-form pass; phi_t = C_t and phi_x = S C_S at S = e^x.

        A derivative not asked for is None.  phi is what `at` gives, the
        payoff at maturity included; the derivatives are NaN at maturity,
        where the payoff's kink has none.
        """
        t, S = np.asarray(t, dtype=float), _spot(x)
        phi, phi_t, delta = _closed_form(self.spec, self.ctx, t, S, theta=dt, delta=dx)
        return phi, phi_t, S * delta if dx else None


def _spot(x):
    """S = e^x; an x past the float range reads as S = 0 or inf, outside
    every surface's domain, without an overflow warning."""
    with np.errstate(over="ignore"):
        return np.exp(np.asarray(x, dtype=float))


class LogClosedForm(ClosedFormSolution):
    """The closed form labelled "log": `value(t, x)` reads x = log S."""

    frame = "log"
