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


def _closed_form(spec: OptionSpec, ctx: ModelContext, tau, S, price=True,
                 theta=False, delta=False):
    """(C, C_t, C_S) at time to expiry tau > 0 and spot S, from one d1/d2,
    one discount and one Phi pass; a part not asked for is None.

    This is the one home of the Black-Scholes formulas.  A put takes
    Phi(-d) by its own calls, because 1 - Phi(d) would change bits.
    """
    from scipy.special import ndtr

    call = spec.kind == "call"
    d1, d2 = _d12(spec, ctx, tau, S)
    nd1 = ndtr(d1) if delta or (price and call) else None
    if price or theta:
        disc = spec.strike * np.exp(-ctx.r_f * tau)
        nd2 = ndtr(d2) if call else ndtr(-d2)
    c = c_t = c_s = None
    if price:
        c = S * nd1 - disc * nd2 if call else disc * nd2 - S * ndtr(-d1)
    if theta:
        decay = -S * normal_pdf(d1) * ctx.sigma_f / (2.0 * np.sqrt(tau))
        c_t = decay - ctx.r_f * disc * nd2 if call else decay + ctx.r_f * disc * nd2
    if delta:
        c_s = nd1 if call else nd1 - 1.0
    return c, c_t, c_s


def bs_price(spec: OptionSpec, ctx: ModelContext, t, S):
    """Closed-form price at calendar time t and spot S (scalar or array).

    At t = maturity the payoff is returned exactly; t beyond maturity or a
    nonpositive spot is a domain error.
    """
    t = np.asarray(t, dtype=float)
    S = np.asarray(S, dtype=float)
    if np.any(S <= 0):
        raise ValueError("spot must be positive")
    tau = spec.maturity - t
    if np.any(tau < 0):
        raise ValueError("t is beyond maturity")
    t, S = np.broadcast_arrays(t, S)
    tau = spec.maturity - t
    at_expiry = tau == 0
    if not np.any(at_expiry):
        out = np.asarray(_closed_form(spec, ctx, tau, S)[0])
    else:
        out = np.asarray(spec.payoff(S), dtype=float)
        live = ~at_expiry
        if np.any(live):
            out[live] = _closed_form(spec, ctx, tau[live], S[live])[0]
    return out if out.ndim else float(out)


def _before_maturity(spec: OptionSpec, t, what: str):
    """Time to expiry at t, which must be strictly before maturity."""
    tau = spec.maturity - np.asarray(t, dtype=float)
    if np.any(tau <= 0):
        raise ValueError(f"{what} needs t strictly before maturity")
    return tau


def bs_delta(spec: OptionSpec, ctx: ModelContext, t, S):
    """dC/dS for t strictly before maturity."""
    tau = _before_maturity(spec, t, "delta")
    out = np.asarray(_closed_form(spec, ctx, tau, np.asarray(S, dtype=float),
                                  price=False, delta=True)[2])
    return out if out.ndim else float(out)


def bs_theta(spec: OptionSpec, ctx: ModelContext, t, S):
    """dC/dt (calendar time) for t strictly before maturity."""
    tau = _before_maturity(spec, t, "theta")
    out = np.asarray(_closed_form(spec, ctx, tau, np.asarray(S, dtype=float),
                                  price=False, theta=True)[1])
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
            t, S, lambda t, S: bs_price(self.spec, self.ctx, t, S), self._inside
        )

    def _inside(self, t, S):
        return (S > 0) & (self.spec.maturity - t >= 0)

    def to_log(self) -> "LogClosedForm":
        return LogClosedForm(self.spec, self.ctx)


class LogClosedForm(ClosedFormSolution):
    """Log-frame view phi(t, x) = C(t, e^x), with analytic derivatives."""

    frame = "log"

    def value(self, t, x):
        return super().value(t, np.exp(x))

    def value_and_derivatives(self, t, x, dt, dx):
        """(phi, phi_t, phi_x) at the points (t, x), broadcast together, from
        one closed-form pass; phi_t = C_t and phi_x = S C_S at S = e^x.

        A derivative not asked for is None.  Asking for one needs t strictly
        before maturity everywhere; phi is what `value` gives.
        """
        if not (dt or dx):
            return self.value(t, x), None, None
        t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
        tau = _before_maturity(self.spec, t, "theta" if dt else "delta")
        S = np.exp(x)
        phi, phi_t, delta = _closed_form(self.spec, self.ctx, tau, S, theta=dt, delta=dx)
        with np.errstate(invalid="ignore"):
            phi = np.where(self._inside(t, S), phi, np.nan)
        return phi, phi_t, (S * delta if dx else None)
