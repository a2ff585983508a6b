"""Closed-form option pricing and the solution surfaces built on it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# scipy is imported inside the code that calls it, so that importing
# bssym (and the exact CLI subcommands) costs about an `import numpy`.

from .model import ModelContext

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class OptionSpec:
    """Vanilla European option parameters."""

    strike: float
    maturity: float
    kind: str = "call"

    def __post_init__(self):
        if not self.strike > 0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if not self.maturity > 0:
            raise ValueError(f"maturity must be positive, got {self.maturity}")
        if self.kind not in ("call", "put"):
            raise ValueError(f"kind must be 'call' or 'put', got {self.kind!r}")

    def payoff(self, S):
        S = np.asarray(S, dtype=float)
        if self.kind == "call":
            out = np.maximum(S - self.strike, 0.0)
        else:
            out = np.maximum(self.strike - S, 0.0)
        return out if out.ndim else float(out)


def normal_pdf(z):
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z) / _SQRT_2PI
    return out if out.ndim else float(out)


def _closed_form(spec: OptionSpec, ctx: ModelContext, tau, S, theta=False, delta=False):
    """(C, C_t, C_S) at time to expiry tau > 0 and spot S, from one d1/d2,
    one discount and one Phi pass; a derivative not asked for is None.

    This is the one home of the Black-Scholes formulas.  A put takes
    Phi(-d) by its own calls, because 1 - Phi(d) would change bits.
    """
    from scipy.special import ndtr

    call = spec.kind == "call"
    sig, sq = ctx.sigma_f, np.sqrt(tau)
    d1 = (np.log(S / spec.strike) + ctx.stilde_f * tau) / (sig * sq)
    d2 = d1 - sig * sq
    nd1 = ndtr(d1) if delta or call else None
    disc = spec.strike * np.exp(-ctx.r_f * tau)
    nd2 = ndtr(d2) if call else ndtr(-d2)
    c = S * nd1 - disc * nd2 if call else disc * nd2 - S * ndtr(-d1)
    c_t = c_s = None
    if theta:
        decay = -S * normal_pdf(d1) * sig / (2.0 * sq)
        c_t = decay - ctx.r_f * disc * nd2 if call else decay + ctx.r_f * disc * nd2
    if delta:
        c_s = nd1 if call else nd1 - 1.0
    return c, c_t, c_s


def bs_price(spec: OptionSpec, ctx: ModelContext, t, S):
    """Closed-form price at calendar time t and spot S (scalar or array,
    broadcast together).

    At t = maturity the payoff is returned exactly; t beyond maturity or a
    nonpositive spot is a domain error.  The checks and the work of t alone
    (tau, its square root, the discount) run on t as given, and log(S/K) on
    S as given: against an S row, a t column pays per point only for d1,
    d2, the two Phi and their combination.
    """
    t, S = np.asarray(t, dtype=float), np.asarray(S, dtype=float)
    if np.any(S <= 0):
        raise ValueError("spot must be positive")
    tau = spec.maturity - t
    if np.any(tau < 0):
        raise ValueError("t is beyond maturity")
    if not np.any(tau == 0):
        out = np.asarray(_closed_form(spec, ctx, tau, S)[0])
    else:
        tau, S = np.broadcast_arrays(tau, S)
        out = np.asarray(spec.payoff(S), dtype=float)
        live = tau != 0
        if np.any(live):
            out[live] = _closed_form(spec, ctx, tau[live], S[live])[0]
    return out if out.ndim else float(out)


def _masked(t, u, fn, inside=None):
    """fn at the points (t, u), broadcast together, and NaN wherever
    `inside(t, u)` is false; a float for scalar input.  fn must return the
    broadcast shape of the points it is given.

    This is how every solution surface evaluates: points outside its domain
    read NaN instead of raising, so pulled-back sampling can count clipped
    nodes.  fn sees the points as given (a t column and an x row stay axes)
    where all are inside; the block's slices where the inside points of a
    2-D input form one block, as a box clips a translated grid; and the
    inside points gathered otherwise (a sheared clip, a 1-D point set).
    """
    t, u = np.asarray(t, dtype=float), np.asarray(u, dtype=float)
    shape = np.broadcast_shapes(t.shape, u.shape)
    ok = True
    if inside is not None:
        with np.errstate(invalid="ignore"):
            ok = np.broadcast_to(inside(t, u), shape)
    if np.all(ok):
        out = np.asarray(fn(t, u), dtype=float)
        return out if out.ndim else float(out)
    out = np.full(shape, np.nan)
    block = _block(ok)
    if block is not None:
        out[block] = fn(_cut(t, block), _cut(u, block))
    elif np.any(ok):
        t, u = np.broadcast_arrays(t, u)
        out[ok] = fn(t[ok], u[ok])
    return out if out.ndim else float(out)


def _block(ok):
    """The slices of the one rows-by-columns block a 2-D mask is true on,
    or None if it is not 2-D, is nowhere true or is true on another shape."""
    if ok.ndim != 2 or not ok.any():
        return None
    rows, cols = np.flatnonzero(ok.any(axis=1)), np.flatnonzero(ok.any(axis=0))
    block = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    return block if ok[block].all() else None


def _cut(a, block):
    """The part of a (at most 2-D) that broadcasts onto `block`, contiguous,
    so transcendental ufuncs run the same loop as on a whole axis."""
    a = a.reshape((1,) * (2 - a.ndim) + a.shape)
    part = tuple(s if n > 1 else slice(None) for s, n in zip(block, a.shape))
    return np.ascontiguousarray(a[part])


def _box(t_lo, t_hi, u_lo, u_hi):
    """The predicate of the closed box [t_lo, t_hi] x [u_lo, u_hi]."""
    return lambda t, u: (t >= t_lo) & (t <= t_hi) & (u >= u_lo) & (u <= u_hi)


class Surface:
    """A solution surface: `at(t, x)` evaluates it in the log frame x = log S
    at any broadcastable t and x, with NaN outside its domain; the result
    has their broadcast shape.  A grid is best passed as a t column and an
    x row, as `transforms.sample_surface` does: work that needs one
    coordinate alone then runs once per row or column, not once per node,
    and the values are the same bits as at the grid's full meshes.

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

    It evaluates at S = e^x, on the one domain 0 < e^x < inf and t at or
    before maturity; outside it every value and derivative is NaN, with no
    floating-point warning.
    """

    frame = "price"

    def __init__(self, spec: OptionSpec, ctx: ModelContext):
        self.spec = spec
        self.ctx = ctx

    def value(self, t, u):
        # under the "price" label, bs_price reads S itself: no log, then exp
        if self.frame == "log":
            return self.at(t, u)
        return _masked(t, u, self._price, self._inside)

    def at(self, t, x):
        return _masked(t, _spot(x), self._price, self._inside)

    def _price(self, t, S):
        return bs_price(self.spec, self.ctx, t, S)

    def _inside(self, t, S):
        return (S > 0) & (S < np.inf) & (self.spec.maturity - t >= 0)

    def value_and_derivatives(self, t, x, dt, dx):
        """(phi, phi_t, phi_x) at the points (t, x), broadcast together, from
        one closed-form pass; phi_t = C_t and phi_x = S C_S at S = e^x.

        A derivative not asked for is None.  Asking for one needs t strictly
        before maturity everywhere; phi is what `at` gives.  As in
        `bs_price`, work of t alone runs on t as given, e^x on x as given.
        """
        if not (dt or dx):
            return self.at(t, x), None, None
        t, S = np.asarray(t, dtype=float), _spot(x)
        tau = self.spec.maturity - t
        if np.any(tau <= 0):
            raise ValueError("derivatives need t strictly before maturity")
        # a spot of 0 or inf divides by zero or makes inf * 0 before it is masked
        with np.errstate(divide="ignore", invalid="ignore"):
            phi, phi_t, delta = _closed_form(self.spec, self.ctx, tau, S, theta=dt, delta=dx)
            jet = (phi, phi_t, S * delta if dx else None)
        ok = self._inside(t, S)
        if np.all(ok):
            return jet
        return tuple(None if v is None else np.where(ok, v, np.nan) for v in jet)


def _spot(x):
    """S = e^x; an x past the float range reads as S = 0 or inf, outside
    every surface's domain, without an overflow warning."""
    with np.errstate(over="ignore"):
        return np.exp(np.asarray(x, dtype=float))


class LogClosedForm(ClosedFormSolution):
    """The closed form labelled "log": `value(t, x)` reads x = log S."""

    frame = "log"
