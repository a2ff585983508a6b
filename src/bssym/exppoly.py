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

Terms are grouped by exponential signature: `_terms` maps the small int id
of an interned (a, b) pair (id 0 is exp(0)) to a dict {exps: coeff}, so no
lookup hashes the Fractions a and b.  Zero coefficients and empty groups are
never stored, so equal expressions have equal `_terms`.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from operator import add as _add
from typing import Sequence, Union

import numpy as np

VARS = ("t", "x", "phi", "A", "B")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

Scalar = Union[int, Fraction]

_ZERO_EXPS = (0, 0, 0, 0, 0)
_ZERO = Fraction(0)
_ZERO_SIG = (_ZERO, _ZERO)

# interned signatures: _SIGS[sid] is the (a, b) pair named by sid
_SIGS = [_ZERO_SIG]
_SIG_IDS = {_ZERO_SIG: 0}
_SIG_LOCK = threading.Lock()


def _sig_id(sig) -> int:
    with _SIG_LOCK:
        if sig not in _SIG_IDS:
            _SIGS.append(sig)
            _SIG_IDS[sig] = len(_SIGS) - 1
        return _SIG_IDS[sig]


def _sig_sum(s1: int, s2: int) -> int:
    """Id of the signature of a product."""
    if not s1 or not s2:
        return s1 or s2
    (a1, b1), (a2, b2) = _SIGS[s1], _SIGS[s2]
    return _sig_id((a1 + a2, b1 + b2))


def _acc(mono: dict, exps: tuple, coeff: Fraction) -> None:
    """Add a nonzero coeff to the exps entry of one signature group."""
    acc = mono.get(exps)
    if acc is None:
        mono[exps] = coeff
        return
    acc += coeff
    if acc:
        mono[exps] = acc
    else:
        del mono[exps]


def _wrap(terms: dict) -> "ExpPoly":
    """An ExpPoly around clean grouped terms; groups are shared, never changed."""
    out = object.__new__(ExpPoly)
    out._terms = terms
    return out


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact scalar required, got {type(value).__name__}")


def _signed_sum(bodies) -> str:
    """Join rendered terms as "a + b - c"; an empty sum is "0"."""
    out = ""
    for body in bodies:
        if not out:
            out = body
        elif body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out or "0"


def var_index(name: str) -> int:
    try:
        return _VAR_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown variable {name!r}; expected one of {VARS}") from None


class ExpPoly:
    """Immutable exact polynomial-exponential expression in (t, x, phi, A, B)."""

    __slots__ = ("_terms",)

    def __init__(self):
        """The zero polynomial; the constructors below build the others."""
        self._terms = {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly()

    @staticmethod
    def one() -> "ExpPoly":
        return ExpPoly.constant(1)

    @staticmethod
    def constant(value) -> "ExpPoly":
        return ExpPoly.term(value)

    @staticmethod
    def var(name: str) -> "ExpPoly":
        exps = [0, 0, 0, 0, 0]
        exps[var_index(name)] = 1
        return ExpPoly.term(1, exps)

    @staticmethod
    def exp_factor(a, b) -> "ExpPoly":
        """exp(a*t + b*x) with rational a, b."""
        return ExpPoly.term(1, a=a, b=b)

    @staticmethod
    def term(coeff, exps: Sequence[int] = _ZERO_EXPS, a=_ZERO, b=_ZERO) -> "ExpPoly":
        """The single term coeff * t^i x^j phi^k A^l B^m * exp(a*t + b*x)."""
        coeff = _as_fraction(coeff)
        exps = tuple(map(int, exps))
        if len(exps) != 5 or min(exps) < 0:
            raise ValueError(f"bad exponent tuple {exps}")
        a, b = _as_fraction(a), _as_fraction(b)
        if not coeff:
            return ExpPoly()
        # exp(0) is id 0 without a trip through the interning lock
        sid = _sig_id((a, b)) if a or b else 0
        return _wrap({sid: {exps: coeff}})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        terms = self._terms
        return not terms or terms.keys() == {0} and terms[0].keys() == {_ZERO_EXPS}

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self._terms[0][_ZERO_EXPS]

    def depends_on(self, name: str) -> bool:
        i = var_index(name)
        for sid, mono in self._terms.items():
            if i < 2 and _SIGS[sid][i] != 0:
                return True
            if any(exps[i] > 0 for exps in mono):
                return True
        return False

    def degree_in(self, name: str) -> int:
        """Largest power of the variable (exponential content not counted)."""
        i = var_index(name)
        return max((e[i] for mono in self._terms.values() for e in mono), default=0)

    def is_polynomial(self) -> bool:
        """True when no term carries an exponential factor."""
        return self._terms.keys() <= {0}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ExpPoly.constant(other)
        terms = dict(self._terms)
        for sid, mono in other._terms.items():
            mine = terms.get(sid)
            if mine is None:
                terms[sid] = mono
                continue
            mine = dict(mine)
            for exps, coeff in mono.items():
                _acc(mine, exps, coeff)
            if mine:
                terms[sid] = mine
            else:
                del terms[sid]
        return _wrap(terms)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({sid: {e: -c for e, c in mono.items()}
                      for sid, mono in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ExpPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ExpPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ExpPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _as_fraction(other)
            if other == 0:
                return ExpPoly()
            return _wrap({sid: {e: c * other for e, c in mono.items()}
                          for sid, mono in self._terms.items()})
        terms: dict = {}
        for s1, m1 in self._terms.items():
            for s2, m2 in other._terms.items():
                mono = terms.setdefault(_sig_sum(s1, s2), {})
                for e1, c1 in m1.items():
                    for e2, c2 in m2.items():
                        _acc(mono, tuple(map(_add, e1, e2)), c1 * c2)
        return _wrap({sid: mono for sid, mono in terms.items() if mono})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = ExpPoly.constant(other)
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._items()))

    def _items(self):
        """The terms as ((exps, (a, b)), coeff) pairs."""
        for sid, mono in self._terms.items():
            sig = _SIGS[sid]
            for exps, coeff in mono.items():
                yield (exps, sig), coeff

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "ExpPoly":
        """Exact partial derivative in one of the five variables."""
        i = var_index(name)
        terms: dict = {}
        for sid, mono in self._terms.items():
            rate = _SIGS[sid][i] if i < 2 else 0
            out: dict = {}
            for exps, coeff in mono.items():
                if exps[i] > 0:
                    lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                    _acc(out, lowered, coeff * exps[i])
                if rate != 0:
                    _acc(out, exps, coeff * rate)
            if out:
                terms[sid] = out
        return _wrap(terms)

    def evaluate_exact(self, **values) -> Fraction:
        """Exact evaluation at rational points.

        Exponential factors are only accepted when their exponent evaluates
        to exactly zero (so the factor is exactly 1).
        """
        total = Fraction(0)
        for (exps, sig), coeff in self._items():
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
        for (exps, sig), coeff in self._items():
            factor = float(coeff)
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
        for sid, mono in self._terms.items():
            group = {}
            for exps, coeff in mono.items():
                if exps[i] != power:
                    continue
                if i < 2 and _SIGS[sid][i] != 0:
                    raise ValueError(
                        f"coefficient extraction in {name}: exponential dependence"
                    )
                group[exps[:i] + (0,) + exps[i + 1:]] = coeff
            if group:
                terms[sid] = group
        return _wrap(terms)

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order (deterministic)."""
        return sorted(
            self._items(),
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
            parts.append(f"exp({_signed_sum(pieces)})")
        return "*".join(parts)

    def __str__(self) -> str:
        bodies = []
        for (exps, sig), coeff in self.sorted_terms():
            mono = self._monomial_str(exps, sig)
            if not mono:
                bodies.append(str(coeff))
            elif coeff == 1:
                bodies.append(mono)
            elif coeff == -1:
                bodies.append(f"-{mono}")
            else:
                bodies.append(f"{coeff}*{mono}")
        return _signed_sum(bodies)

    def __repr__(self) -> str:
        return f"ExpPoly({self})"
