"""Exact coefficient ring for the symmetry computations.

An ExpPoly is a finite sum of terms

    c * t^i x^j phi^k A^l B^m * exp(a*t + b*x)

with rational c, a, b and nonnegative integer exponents.  The ring is closed
under addition, multiplication and differentiation in all five jet variables
(t, x, phi, A, B), which is exactly what the structural forms and the
isovector algebra need.  Exponentials only ever involve t and x: they enter
through solution modes of the constant-coefficient equation.

All arithmetic is exact; floats are rejected so that a zero really is a
zero.

Storage is integers.  An ExpPoly holds integer numerators over one positive
denominator `_den`.  `_terms` maps the small int id of an interned
signature (a, b) (id 0 is exp(0)) to a dict {key: numerator}, where a key
packs the five exponents into one int of six bits per variable, t in the
top field, so that every key fits in 30 bits.  A product of two monomials
adds their keys, and a derivative subtracts one unit from a field.  The top
bit of every field is a guard: an exponent is at most `_EXP_MAX` (31), so
the sum of two never carries into the next field, and a product whose
exponent would pass `_EXP_MAX` raises instead of aliasing another monomial.

The storage is canonical: no zero numerator and no empty group is stored,
and gcd(_den, *numerators) is 1, with the zero stored as {} over 1.  Equal
expressions have equal storage and equal hashes.  Every sum, `+` and `-`
too, is one `_sum_of_products`; a scalar `*` only rescales.  A derivative
lowers each group in one pass, and `_grad`, the five partials in VARS
order, is the one gradient of fields, forms and the prolongation.
Fractions appear only at the boundary: scalar operands, `constant_value`,
`sorted_terms` and rendering.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import index, or_
from typing import TYPE_CHECKING, Sequence

from .model import _as_fraction

if TYPE_CHECKING:
    import numpy as np

VARS = ("t", "x", "phi", "A", "B")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

_ZERO_EXPS = (0, 0, 0, 0, 0)
_ZERO = Fraction(0)
_ZERO_SIG = (_ZERO, _ZERO)

# packed exponent keys: field i holds the exponent of VARS[i], t on top
_FIELD_BITS = 6
_EXP_MAX = (1 << (_FIELD_BITS - 1)) - 1
_SHIFTS = tuple(_FIELD_BITS * (4 - i) for i in range(5))
_GUARD = sum(1 << (shift + _FIELD_BITS - 1) for shift in _SHIFTS)

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


def _pack(exps) -> int:
    return sum(e << shift for e, shift in zip(exps, _SHIFTS))


def _unpack(key: int) -> tuple:
    return tuple(key >> shift & _EXP_MAX for shift in _SHIFTS)


def _wrap(terms: dict, den: int) -> "ExpPoly":
    """An ExpPoly around canonical terms; groups are shared, never changed."""
    out = object.__new__(ExpPoly)
    out._terms = terms
    out._den = den
    return out


def _reduce(terms: dict, den: int) -> "ExpPoly":
    """An ExpPoly around clean terms over den, with gcd(den, *numerators)
    divided out; with no terms that leaves den = 1."""
    if den != 1:
        g = den
        for mono in terms.values():
            g = gcd(g, *mono.values())
            if g == 1:
                break
        if g != 1:
            den //= g
            terms = {sid: {key: num // g for key, num in mono.items()}
                     for sid, mono in terms.items()}
    return _wrap(terms, den)


def _sum_of_products(plus, minus=()) -> "ExpPoly":
    """Sum of p*q over the pairs (p, q) in plus, minus the same over minus.

    One pass: every product adds its terms straight into one term dict over
    one common denominator, with no partial sum copied or negated.
    """
    pairs = [(p, q, 1) for p, q in plus if p._terms and q._terms]
    pairs += [(p, q, -1) for p, q in minus if p._terms and q._terms]
    den = lcm(*[p._den * q._den for p, q, _ in pairs])
    terms: dict = {}
    for p, q, sign in pairs:
        scale = sign * (den // (p._den * q._den))
        for s1, m1 in p._terms.items():
            for s2, m2 in q._terms.items():
                sid = _sig_sum(s1, s2)
                mono = terms.get(sid)
                if mono is None:
                    mono = terms[sid] = {}
                get = mono.get
                for k1, n1 in m1.items():
                    n1 *= scale
                    for k2, n2 in m2.items():
                        key = k1 + k2
                        mono[key] = get(key, 0) + n1 * n2
    return _settle(terms, den)


def _settle(terms: dict, den: int) -> "ExpPoly":
    """An ExpPoly around summed terms over den: zero numerators and empty
    groups dropped, the exponent guard checked, and the gcd divided out."""
    out = {}
    for sid, mono in terms.items():
        if 0 in mono.values():
            mono = {key: num for key, num in mono.items() if num}
        if mono:
            if reduce(or_, mono) & _GUARD:
                raise ValueError(f"a product has an exponent above {_EXP_MAX}")
            out[sid] = mono
    return _reduce(out, den)


def _from_terms(terms, den: int = 1, modes=()) -> "ExpPoly":
    """The sum of (num/den) * t^i x^j phi^k A^l B^m over the integer
    (num, (i, j, k, l, m)) in terms, exponents in 0.._EXP_MAX, plus
    c * exp(a*t + b*x) over the exact (c, a, b) in modes, built in one pass
    over one common denominator."""
    modes = [tuple(map(_as_fraction, mode)) for mode in modes]
    full = lcm(den, *[c.denominator for c, _, _ in modes])
    items = [(num * (full // den), _pack(exps), 0) for num, exps in terms]
    items += [(c.numerator * (full // c.denominator), 0, _sig_id((a, b)) if a or b else 0)
              for c, a, b in modes]
    out: dict = {}
    for num, key, sid in items:
        mono = out.setdefault(sid, {})
        mono[key] = mono.get(key, 0) + num
    return _settle(out, full)


def _operand(other):
    """The operand check of +, - and ==: other as an ExpPoly, or None."""
    if isinstance(other, ExpPoly):
        return other
    if isinstance(other, (int, Fraction)):
        return ExpPoly.constant(other)
    return None


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

    __slots__ = ("_terms", "_den")

    def __init__(self):
        """The zero polynomial; the constructors below build the others."""
        self._terms = {}
        self._den = 1

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
    def term(coeff, exps: Sequence[int] = _ZERO_EXPS, a=_ZERO, b=_ZERO) -> "ExpPoly":
        """The single term coeff * t^i x^j phi^k A^l B^m * exp(a*t + b*x).

        Each exponent must be an integer in 0.._EXP_MAX (31)."""
        coeff = _as_fraction(coeff)
        # index, not int: an exponent of 1.5 is a TypeError, not a 1
        exps = tuple(map(index, exps))
        if len(exps) != 5 or min(exps) < 0:
            raise ValueError(f"bad exponent tuple {exps}")
        if max(exps) > _EXP_MAX:
            raise ValueError(f"exponent above {_EXP_MAX} in {exps}")
        a, b = _as_fraction(a), _as_fraction(b)
        if not coeff:
            return ExpPoly()
        # exp(0) is id 0 without a trip through the interning lock
        sid = _sig_id((a, b)) if a or b else 0
        return _wrap({sid: {_pack(exps): coeff.numerator}}, coeff.denominator)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        terms = self._terms
        return not terms or terms.keys() == {0} and terms[0].keys() == {0}

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._terms[0][0], self._den)

    def depends_on(self, name: str) -> bool:
        i = var_index(name)
        field = _EXP_MAX << _SHIFTS[i]
        for sid, mono in self._terms.items():
            if i < 2 and _SIGS[sid][i] != 0:
                return True
            if any(key & field for key in mono):
                return True
        return False

    def degree_in(self, name: str) -> int:
        """Largest power of the variable (exponential content not counted)."""
        shift = _SHIFTS[var_index(name)]
        return max((key >> shift & _EXP_MAX
                    for mono in self._terms.values() for key in mono), default=0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _sum_of_products(((self, _ONE), (other, _ONE)))

    __radd__ = __add__

    def __neg__(self):
        return _wrap({sid: {key: -num for key, num in mono.items()}
                      for sid, mono in self._terms.items()}, self._den)

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _sum_of_products(((self, _ONE),), ((other, _ONE),))

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _sum_of_products(((other, _ONE),), ((self, _ONE),))

    def __mul__(self, other):
        if not isinstance(other, ExpPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            num = other.numerator
            if not num:
                return ExpPoly()
            return _reduce({sid: {key: n * num for key, n in mono.items()}
                            for sid, mono in self._terms.items()},
                           self._den * other.denominator)
        return _sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self._den, frozenset(
            (sid, frozenset(mono.items())) for sid, mono in self._terms.items())))

    def _items(self):
        """The terms as ((exps, (a, b)), coeff) pairs, with Fraction coeff."""
        den = self._den
        for sid, mono in self._terms.items():
            sig = _SIGS[sid]
            for key, num in mono.items():
                yield (_unpack(key), sig), Fraction(num, den)

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "ExpPoly":
        """Exact partial derivative in one of the five variables."""
        i = var_index(name)
        shift = _SHIFTS[i]
        unit = 1 << shift
        # a group exp(a*t + b*x) also yields its rate a (or b) times itself;
        # the result is over den times the lcm of those rates' denominators
        rates = {} if i > 1 else {
            sid: rate for sid in self._terms if (rate := _SIGS[sid][i])}
        scale = lcm(*[rate.denominator for rate in rates.values()])
        terms: dict = {}
        for sid, mono in self._terms.items():
            rate = rates.get(sid)
            mult = rate.numerator * (scale // rate.denominator) if rate else 0
            out: dict = {}
            get = out.get
            # one pass in storage order; lowering is one-to-one, so a key
            # meets at most one rate term, and only those can cancel
            for key, num in mono.items():
                if e := key >> shift & _EXP_MAX:
                    low = key - unit
                    out[low] = get(low, 0) + num * e * scale
                if mult:
                    out[key] = get(key, 0) + num * mult
            if mult and 0 in out.values():
                out = {key: num for key, num in out.items() if num}
            if out:
                terms[sid] = out
        return _reduce(terms, self._den * scale)

    def _grad(self) -> tuple:
        """The five partials, in VARS order."""
        return tuple(map(self.diff, VARS))

    def eval_grid(self, t, x) -> np.ndarray:
        """Float evaluation at arrays t and x, broadcast together.  A term in
        phi, A or B is a ValueError: the numeric layer's coefficients are
        functions of (t, x) alone."""
        # the exact layer's only numpy user: imported here, so that the exact
        # layer and the exact CLI subcommands load no numpy
        import numpy as np

        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        total = np.zeros(np.broadcast_shapes(t.shape, x.shape))
        for (exps, sig), coeff in self._items():
            if any(exps[2:]):
                raise ValueError(f"eval_grid takes no term in phi, A or B: {self}")
            factor = float(coeff)
            for arr, e in zip((t, x), exps):
                if e:
                    factor = factor * arr ** e
            if any(sig):
                factor = factor * np.exp(float(sig[0]) * t + float(sig[1]) * x)
            total = total + factor
        return total

    # -- structure access --------------------------------------------------

    def coeff_of(self, name: str, power: int) -> "ExpPoly":
        """Collect the coefficient of var^power (the variable is stripped)."""
        i = var_index(name)
        shift = _SHIFTS[i]
        strip = power << shift
        terms = {}
        for sid, mono in self._terms.items():
            group = {key - strip: num for key, num in mono.items()
                     if (key >> shift & _EXP_MAX) == power}
            if group:
                if i < 2 and _SIGS[sid][i] != 0:
                    raise ValueError(
                        f"coefficient extraction in {name}: exponential dependence"
                    )
                terms[sid] = group
        return _reduce(terms, self._den)

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


_ONE = ExpPoly.one()
