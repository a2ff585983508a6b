"""Exact coefficient ring for the symmetry computations.

An ExpPoly is a finite sum of terms

    c * t^i x^j phi^k A^l B^m * exp(a*t + b*x)

with rational c, a, b and nonnegative integer exponents.  The ring is closed
under addition, multiplication and differentiation in all five jet variables
(t, x, phi, A, B), which is exactly what the structural forms and the
isovector algebra need.  Exponentials only ever involve t and x: they enter
through solution modes of the constant-coefficient equation.

All arithmetic is exact (fractions.Fraction); floats are rejected so that a
zero really is a zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

VARS = ("t", "x", "phi", "A", "B")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

Scalar = Union[int, Fraction]

_ZERO_EXPS = (0, 0, 0, 0, 0)
_ZERO_SIG = (Fraction(0), Fraction(0))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact scalar required, got {type(value).__name__}")


def var_index(name: str) -> int:
    try:
        return _VAR_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown variable {name!r}; expected one of {VARS}") from None


class ExpPoly:
    """Immutable exact polynomial-exponential expression in (t, x, phi, A, B)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        if terms:
            for (exps, sig), coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != 5 or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps}")
                sig = (_as_fraction(sig[0]), _as_fraction(sig[1]))
                key = (exps, sig)
                acc = clean.get(key)
                if acc is None:
                    clean[key] = coeff
                else:
                    acc = acc + coeff
                    if acc == 0:
                        del clean[key]
                    else:
                        clean[key] = acc
        object.__setattr__(self, "_terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly()

    @staticmethod
    def one() -> "ExpPoly":
        return ExpPoly.constant(1)

    @staticmethod
    def constant(value) -> "ExpPoly":
        value = _as_fraction(value)
        if value == 0:
            return ExpPoly()
        return ExpPoly({(_ZERO_EXPS, _ZERO_SIG): value})

    @staticmethod
    def var(name: str) -> "ExpPoly":
        exps = [0, 0, 0, 0, 0]
        exps[var_index(name)] = 1
        return ExpPoly({(tuple(exps), _ZERO_SIG): Fraction(1)})

    @staticmethod
    def exp_factor(a, b) -> "ExpPoly":
        """exp(a*t + b*x) with rational a, b."""
        sig = (_as_fraction(a), _as_fraction(b))
        return ExpPoly({(_ZERO_EXPS, sig): Fraction(1)})

    @staticmethod
    def term(coeff, exps: Sequence[int] = _ZERO_EXPS, a=0, b=0) -> "ExpPoly":
        sig = (_as_fraction(a), _as_fraction(b))
        return ExpPoly({(tuple(exps), sig): _as_fraction(coeff)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        if not self._terms:
            return True
        if len(self._terms) != 1:
            return False
        (exps, sig), _ = next(iter(self._terms.items()))
        return exps == _ZERO_EXPS and sig == _ZERO_SIG

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return next(iter(self._terms.values()))

    def depends_on(self, name: str) -> bool:
        i = var_index(name)
        for exps, sig in self._terms:
            if exps[i] > 0:
                return True
            if i == 0 and sig[0] != 0:
                return True
            if i == 1 and sig[1] != 0:
                return True
        return False

    def degree_in(self, name: str) -> int:
        """Largest power of the variable (exponential content not counted)."""
        i = var_index(name)
        return max((exps[i] for exps, _ in self._terms), default=0)

    def is_polynomial(self) -> bool:
        """True when no term carries an exponential factor."""
        return all(sig == _ZERO_SIG for _, sig in self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExpPoly.constant(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = terms.get(key, Fraction(0)) + coeff
            if acc == 0:
                terms.pop(key, None)
            else:
                terms[key] = acc
        out = ExpPoly()
        object.__setattr__(out, "_terms", terms)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = ExpPoly()
        object.__setattr__(out, "_terms", {k: -c for k, c in self._terms.items()})
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExpPoly.constant(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if other == 0:
                return ExpPoly()
            out = ExpPoly()
            object.__setattr__(
                out, "_terms", {k: c * other for k, c in self._terms.items()}
            )
            return out
        if not isinstance(other, ExpPoly):
            return NotImplemented
        terms: dict = {}
        for (e1, s1), c1 in self._terms.items():
            for (e2, s2), c2 in other._terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                sig = (s1[0] + s2[0], s1[1] + s2[1])
                key = (exps, sig)
                acc = terms.get(key, Fraction(0)) + c1 * c2
                if acc == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = acc
        out = ExpPoly()
        object.__setattr__(out, "_terms", terms)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ExpPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExpPoly.constant(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "ExpPoly":
        """Exact partial derivative in one of the five variables."""
        i = var_index(name)
        terms: dict = {}

        def _bump(key, coeff):
            if coeff == 0:
                return
            acc = terms.get(key, Fraction(0)) + coeff
            if acc == 0:
                terms.pop(key, None)
            else:
                terms[key] = acc

        for (exps, sig), coeff in self._terms.items():
            if exps[i] > 0:
                lowered = list(exps)
                lowered[i] -= 1
                _bump((tuple(lowered), sig), coeff * exps[i])
            if i == 0 and sig[0] != 0:
                _bump((exps, sig), coeff * sig[0])
            elif i == 1 and sig[1] != 0:
                _bump((exps, sig), coeff * sig[1])
        out = ExpPoly()
        object.__setattr__(out, "_terms", terms)
        return out

    def substitute(self, name: str, value) -> "ExpPoly":
        """Replace a variable by an exact value or another ExpPoly.

        Only allowed when no exponential factor involves the variable
        (exponentials are restricted to t and x and are never substituted).
        """
        i = var_index(name)
        if isinstance(value, (int, Fraction)):
            value = ExpPoly.constant(value)
        if not isinstance(value, ExpPoly):
            raise TypeError("substitute expects an exact scalar or ExpPoly")
        out = ExpPoly()
        for (exps, sig), coeff in self._terms.items():
            if (i == 0 and sig[0] != 0) or (i == 1 and sig[1] != 0):
                raise ValueError(
                    f"cannot substitute {name}: it appears in an exponential factor"
                )
            rest = list(exps)
            k = rest[i]
            rest[i] = 0
            base = ExpPoly({(tuple(rest), sig): coeff})
            out = out + base * value**k
        return out

    def evaluate_exact(self, **values) -> Fraction:
        """Exact evaluation at rational points.

        Exponential factors are only accepted when their exponent evaluates
        to exactly zero (so the factor is exactly 1).
        """
        total = Fraction(0)
        for (exps, sig), coeff in self._terms.items():
            factor = coeff
            for i, e in enumerate(exps):
                if e:
                    factor *= _as_fraction(values[VARS[i]]) ** e
            if sig[0] != 0 or sig[1] != 0:
                arg = sig[0] * _as_fraction(values["t"]) + sig[1] * _as_fraction(
                    values["x"]
                )
                if arg != 0:
                    raise ValueError(
                        "exact evaluation with a nonzero exponential argument"
                    )
            total += factor
        return total

    def eval_grid(self, t, x, phi=None, A=None, B=None) -> np.ndarray:
        """Vectorized evaluation on numpy arrays (broadcast together)."""
        arrays = {"t": np.asarray(t, dtype=float), "x": np.asarray(x, dtype=float)}
        for name, arr in (("phi", phi), ("A", A), ("B", B)):
            if arr is not None:
                arrays[name] = np.asarray(arr, dtype=float)
        shape = np.broadcast_shapes(*(a.shape for a in arrays.values()))
        total = np.zeros(shape)
        for (exps, sig), coeff in self._terms.items():
            factor = np.full(shape, float(coeff))
            for i, e in enumerate(exps):
                if e:
                    name = VARS[i]
                    if name not in arrays:
                        raise ValueError(f"eval_grid needs an array for {name!r}")
                    factor = factor * arrays[name] ** e
            if sig[0] != 0 or sig[1] != 0:
                factor = factor * np.exp(
                    float(sig[0]) * arrays["t"] + float(sig[1]) * arrays["x"]
                )
            total = total + factor
        return total

    # -- structure access --------------------------------------------------

    def coeff_of(self, name: str, power: int) -> "ExpPoly":
        """Collect the coefficient of var^power (the variable is stripped)."""
        i = var_index(name)
        terms = {}
        for (exps, sig), coeff in self._terms.items():
            if exps[i] != power:
                continue
            if (i == 0 and sig[0] != 0) or (i == 1 and sig[1] != 0):
                raise ValueError(
                    f"coefficient extraction in {name}: exponential dependence"
                )
            rest = list(exps)
            rest[i] = 0
            terms[(tuple(rest), sig)] = coeff
        return ExpPoly(terms)

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order (deterministic)."""
        return sorted(
            self._terms.items(),
            key=lambda item: (sum(item[0][0]), item[0][0], item[0][1]),
            reverse=True,
        )

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def _monomial_str(exps, sig) -> str:
        parts = []
        for i, e in enumerate(exps):
            if e == 1:
                parts.append(VARS[i])
            elif e > 1:
                parts.append(f"{VARS[i]}^{e}")
        if sig[0] != 0 or sig[1] != 0:
            pieces = []
            if sig[0] != 0:
                pieces.append("t" if sig[0] == 1 else f"{sig[0]}*t")
            if sig[1] != 0:
                pieces.append("x" if sig[1] == 1 else f"{sig[1]}*x")
            arg = " + ".join(pieces).replace("+ -", "- ")
            parts.append(f"exp({arg})")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for (exps, sig), coeff in self.sorted_terms():
            mono = self._monomial_str(exps, sig)
            if mono:
                if coeff == 1:
                    body = mono
                elif coeff == -1:
                    body = f"-{mono}"
                else:
                    body = f"{coeff}*{mono}"
            else:
                body = str(coeff)
            if not chunks:
                chunks.append(body)
            elif body.startswith("-"):
                chunks.append("- " + body[1:])
            else:
                chunks.append("+ " + body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"ExpPoly({self})"

    def to_json(self) -> list:
        out = []
        for (exps, sig), coeff in self.sorted_terms():
            entry = {"coeff": str(coeff), "exps": list(exps)}
            if sig[0] != 0 or sig[1] != 0:
                entry["exp"] = [str(sig[0]), str(sig[1])]
            out.append(entry)
        return out
