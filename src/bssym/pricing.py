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


def _d12(spec: OptionSpec, ctx: ModelContext, tau, S):
    sig = ctx.sigma_f
    sq = np.sqrt(tau)
    d1 = (np.log(S / spec.strike) + ctx.stilde_f * tau) / (sig * sq)
    d2 = d1 - sig * sq
    return d1, d2


def bs_price(spec: OptionSpec, ctx: ModelContext, t, S):
    """Closed-form price at calendar time t and spot S (scalar or array).

    At t = maturity the payoff is returned exactly; t beyond maturity or a
    nonpositive spot is a domain error.
    """
    from scipy.special import ndtr

    t = np.asarray(t, dtype=float)
    S = np.asarray(S, dtype=float)
    if np.any(S <= 0):
        raise ValueError("spot must be positive")
    tau = spec.maturity - t
    if np.any(tau < 0):
        raise ValueError("t is beyond maturity")
    t, S = np.broadcast_arrays(t, S)
    tau = spec.maturity - t
    out = np.empty(tau.shape, dtype=float)
    at_expiry = tau == 0
    if np.any(at_expiry):
        out[at_expiry] = np.asarray(spec.payoff(S))[at_expiry]
    live = ~at_expiry
    if np.any(live):
        tl = tau[live]
        Sl = S[live]
        d1, d2 = _d12(spec, ctx, tl, Sl)
        disc = spec.strike * np.exp(-ctx.r_f * tl)
        if spec.kind == "call":
            out[live] = Sl * ndtr(d1) - disc * ndtr(d2)
        else:
            out[live] = disc * ndtr(-d2) - Sl * ndtr(-d1)
    return out if out.ndim else float(out)


def bs_delta(spec: OptionSpec, ctx: ModelContext, t, S):
    """dC/dS for t strictly before maturity."""
    from scipy.special import ndtr

    t = np.asarray(t, dtype=float)
    S = np.asarray(S, dtype=float)
    tau = spec.maturity - t
    if np.any(tau <= 0):
        raise ValueError("delta needs t strictly before maturity")
    d1, _ = _d12(spec, ctx, tau, S)
    out = ndtr(d1) if spec.kind == "call" else ndtr(d1) - 1.0
    out = np.asarray(out)
    return out if out.ndim else float(out)


def bs_theta(spec: OptionSpec, ctx: ModelContext, t, S):
    """dC/dt (calendar time) for t strictly before maturity."""
    from scipy.special import ndtr

    t = np.asarray(t, dtype=float)
    S = np.asarray(S, dtype=float)
    tau = spec.maturity - t
    if np.any(tau <= 0):
        raise ValueError("theta needs t strictly before maturity")
    d1, d2 = _d12(spec, ctx, tau, S)
    decay = -S * normal_pdf(d1) * ctx.sigma_f / (2.0 * np.sqrt(tau))
    disc = spec.strike * np.exp(-ctx.r_f * tau)
    if spec.kind == "call":
        out = decay - ctx.r_f * disc * ndtr(d2)
    else:
        out = decay + ctx.r_f * disc * ndtr(-d2)
    out = np.asarray(out)
    return out if out.ndim else float(out)


def _masked(t, u, fn, inside=None):
    """fn at the points (t, u), broadcast together, and NaN wherever
    `inside(t, u)` is false; a float for scalar input.

    This is how every solution surface evaluates: points outside its domain
    read NaN instead of raising, so pulled-back sampling can count clipped
    nodes.  Without `inside`, fn sees every point.
    """
    t, u = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(u, dtype=float))
    if inside is None:
        out = np.asarray(fn(t, u), dtype=float)
    else:
        with np.errstate(invalid="ignore"):
            ok = inside(t, u)
        out = np.full(t.shape, np.nan)
        if np.any(ok):
            out[ok] = fn(t[ok], u[ok])
    return out if out.ndim else float(out)


def _box(t_lo, t_hi, u_lo, u_hi):
    """The predicate of the closed box [t_lo, t_hi] x [u_lo, u_hi]."""
    return lambda t, u: (t >= t_lo) & (t <= t_hi) & (u >= u_lo) & (u <= u_hi)


class ClosedFormSolution:
    """Price-frame solution surface backed by the closed form.

    Points past maturity or at nonpositive spot evaluate to NaN.
    """

    frame = "price"

    def __init__(self, spec: OptionSpec, ctx: ModelContext):
        self.spec = spec
        self.ctx = ctx

    def value(self, t, S):
        return _masked(
            t, S, lambda t, S: bs_price(self.spec, self.ctx, t, S),
            lambda t, S: (S > 0) & (self.spec.maturity - t >= 0),
        )

    def to_log(self) -> "LogClosedForm":
        return LogClosedForm(self.spec, self.ctx)


class LogClosedForm(ClosedFormSolution):
    """Log-frame view phi(t, x) = C(t, e^x), with analytic derivatives."""

    frame = "log"
    has_derivatives = True

    def value(self, t, x):
        return super().value(t, np.exp(x))

    def dt(self, t, x):
        """phi_t = C_t; needs t strictly before maturity."""
        return bs_theta(self.spec, self.ctx, t, np.exp(np.asarray(x, dtype=float)))

    def dx(self, t, x):
        """phi_x = S C_S at S = e^x; needs t strictly before maturity."""
        S = np.exp(np.asarray(x, dtype=float))
        return S * bs_delta(self.spec, self.ctx, t, S)
