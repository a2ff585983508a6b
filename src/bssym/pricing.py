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
    """Closed-form price at calendar time t and spot S (scalar or array).

    At t = maturity the payoff is returned exactly; t beyond maturity or a
    nonpositive spot is a domain error.
    """
    t, S = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(S, dtype=float))
    if np.any(S <= 0):
        raise ValueError("spot must be positive")
    tau = spec.maturity - t
    if np.any(tau < 0):
        raise ValueError("t is beyond maturity")
    at_expiry = tau == 0
    if not np.any(at_expiry):
        out = np.asarray(_closed_form(spec, ctx, tau, S)[0])
    else:
        out = np.asarray(spec.payoff(S), dtype=float)
        live = ~at_expiry
        if np.any(live):
            out[live] = _closed_form(spec, ctx, tau[live], S[live])[0]
    return out if out.ndim else float(out)


def _masked(t, u, fn, inside=None):
    """fn at the points (t, u), broadcast together, and NaN wherever
    `inside(t, u)` is false; a float for scalar input.

    This is how every solution surface evaluates: points outside its domain
    read NaN instead of raising, so pulled-back sampling can count clipped
    nodes.  Where every point is inside (or there is no `inside`), fn sees
    the points as given, with no gather and scatter.
    """
    t, u = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(u, dtype=float))
    ok = True
    if inside is not None:
        with np.errstate(invalid="ignore"):
            ok = inside(t, u)
    if np.all(ok):
        out = np.asarray(fn(t, u), dtype=float)
    else:
        out = np.full(t.shape, np.nan)
        if np.any(ok):
            out[ok] = fn(t[ok], u[ok])
    return out if out.ndim else float(out)


def _box(t_lo, t_hi, u_lo, u_hi):
    """The predicate of the closed box [t_lo, t_hi] x [u_lo, u_hi]."""
    return lambda t, u: (t >= t_lo) & (t <= t_hi) & (u >= u_lo) & (u <= u_hi)


class Surface:
    """A solution surface: `at(t, x)` evaluates it in the log frame x = log S,
    vectorized, with NaN outside its domain.

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

    It evaluates at S = e^x; points past maturity, or where e^x is not a
    positive spot, evaluate to NaN.
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
        return _masked(t, np.exp(x), self._price, self._inside)

    def _price(self, t, S):
        return bs_price(self.spec, self.ctx, t, S)

    def _inside(self, t, S):
        return (S > 0) & (self.spec.maturity - t >= 0)

    def value_and_derivatives(self, t, x, dt, dx):
        """(phi, phi_t, phi_x) at the points (t, x), broadcast together, from
        one closed-form pass; phi_t = C_t and phi_x = S C_S at S = e^x.

        A derivative not asked for is None.  Asking for one needs t strictly
        before maturity everywhere; phi is what `at` gives.
        """
        if not (dt or dx):
            return self.at(t, x), None, None
        t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
        tau = self.spec.maturity - t
        if np.any(tau <= 0):
            raise ValueError("derivatives need t strictly before maturity")
        S = np.exp(x)
        phi, phi_t, delta = _closed_form(self.spec, self.ctx, tau, S, theta=dt, delta=dx)
        with np.errstate(invalid="ignore"):
            phi = np.where(self._inside(t, S), phi, np.nan)
        return phi, phi_t, (S * delta if dx else None)


class LogClosedForm(ClosedFormSolution):
    """The closed form labelled "log": `value(t, x)` reads x = log S."""

    frame = "log"
