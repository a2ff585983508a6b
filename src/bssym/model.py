"""Model parameters of the pricing equation, kept as exact rationals.

The equation  C_t + (sigma^2/2) S^2 C_SS + r S C_S - r C = 0  is determined by
the pair (r, sigma^2).  Everything downstream needs the two derived constants

    rtilde = r - sigma^2/2      (drift of the log-price frame)
    stilde = r + sigma^2/2

which satisfy  rtilde^2/(2 sigma^2) + r = stilde^2/(2 sigma^2)  identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from numbers import Rational

_RATIONAL_RE = re.compile(r"[+-]?\d+(\s*/\s*\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from a "p/q" or "p" string.

    Decimal or float notation is rejected; exactness is the point.
    """
    body = text.strip()
    if not _RATIONAL_RE.fullmatch(body):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(re.sub(r"\s+", "", body))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def _as_fraction(value) -> Fraction:
    """The exact-layer scalar check: an int (a numpy integer too), a Fraction
    or a "p/q" string (read by `parse_rational`) is read as a Fraction, and a
    float is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, (int, Rational)):
        return Fraction(value)
    raise TypeError(f"exact scalar required, got {type(value).__name__}")


@dataclass(frozen=True)
class ModelContext:
    """Exact model parameters (r, sigma2), read as Fractions (an int, a
    Fraction or a "p/q" string; a float is a TypeError), plus the constants
    derived from them, which are computed here, never passed in."""

    r: Fraction
    sigma2: Fraction
    rtilde: Fraction = field(init=False)
    stilde: Fraction = field(init=False)

    def __post_init__(self):
        r, sigma2 = _as_fraction(self.r), _as_fraction(self.sigma2)
        if sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {sigma2}")
        for name, value in (("r", r), ("sigma2", sigma2),
                            ("rtilde", r - sigma2 / 2), ("stilde", r + sigma2 / 2)):
            object.__setattr__(self, name, value)

    @cached_property
    def family_rates(self) -> tuple:
        """(D, s, r, h, j): the rationals S = stilde^2 / 2 sigma2,
        R = rtilde / sigma2, H = rtilde / 2 sigma2 and J = 1 / 2 sigma2 of
        the isovector family's h(t, x) as integer numerators over one
        denominator D that 4 divides, computed once per context."""
        J = 1 / (2 * self.sigma2)
        R = 2 * self.rtilde * J
        rates = (self.stilde * self.stilde * J, R, R / 2, J)
        D = lcm(4, *(q.denominator for q in rates))
        return (D, *(q.numerator * (D // q.denominator) for q in rates))

    @cached_property
    def _derived(self) -> dict:
        """Exact data the exact layer derives from this context (its basis
        fields and structural forms), each built on first use.  It
        lives and dies with this instance: an equal context has its own."""
        return {}

    @property
    def r_f(self) -> float:
        return float(self.r)

    @property
    def sigma2_f(self) -> float:
        return float(self.sigma2)

    @property
    def sigma_f(self) -> float:
        return float(self.sigma2) ** 0.5

    @property
    def rtilde_f(self) -> float:
        return float(self.rtilde)

    @property
    def stilde_f(self) -> float:
        return float(self.stilde)

    def to_json(self) -> dict:
        return {k: str(getattr(self, k)) for k in ("r", "sigma2", "rtilde", "stilde")}


def make_context(r, sigma2) -> ModelContext:
    """Build a ModelContext from rationals; sigma2 must be positive."""
    return ModelContext(r=r, sigma2=sigma2)
