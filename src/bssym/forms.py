"""Differential forms on the 5-jet manifold with ExpPoly coefficients.

Coordinates are (t, x, phi, A, B) where A stands for phi_x and B for phi_t.
A DiffForm of degree k stores its coefficients against the canonical basis
dz_{i1} ^ ... ^ dz_{ik} with strictly increasing indices i1 < ... < ik in the
variable order above.

The contact structure of the pricing equation is generated by

    alpha = dphi - A dx - B dt
    dalpha
    beta  = (B + rtilde*A - r*phi) dx^dt + (sigma2/2) dA^dt

and `structural_forms` builds the triple for a given model context, the
one place that writes the equation: the ideal solve and `pde_defect` read
it off beta.  `_forms_of` keeps the triple on the context.

The Lie derivative along a vector field N with components N^j is computed
slot by slot from the coordinate formula: for omega = sum_K omega_K dz^K,

    (L_N omega)_K = sum_j N^j d_j omega_K
                    + sum_m sum_c omega_K' d_c N^{k_m}

where the second sum runs over the keys K' and slots m whose index k_m,
replaced by c, gives K, signed by the permutation that sorts the result.
Each output slot is one sum of products over N's derivative table, so the
Cartan formula L_N = N _| d(.) + d(N _| .) is its test oracle, not its route.
"""

from __future__ import annotations

from operator import index
from typing import Mapping, Sequence

from .exppoly import VARS, ExpPoly, _ONE, _signed_sum, _sum_of_products, var_index
from .model import ModelContext

COVARS = ("dt", "dx", "dphi", "dA", "dB")
NVARS = len(VARS)
_COVAR_INDEX = {name: i for i, name in enumerate(COVARS)}

# the jet coordinates phi, A = phi_x and B = phi_t as functions
_PHI, _A, _B = (ExpPoly.var(name) for name in VARS[2:])


def _sorted_sign(idx: tuple):
    """(sorted idx, (-1)^inversions), or None when an index repeats."""
    if len(set(idx)) != len(idx):
        return None
    inversions = sum(a > b for i, a in enumerate(idx) for b in idx[i + 1 :])
    return tuple(sorted(idx)), -1 if inversions % 2 else 1


def _summed(degree: int, signed: dict) -> "DiffForm":
    """The form whose coefficient on each key is the one-pass sum of the
    (plus pairs, minus pairs) of products stored under it."""
    return DiffForm._canonical(
        degree, {key: _sum_of_products(*pairs) for key, pairs in signed.items()}
    )


class DiffForm:
    """Exterior form with exact coefficients; immutable by convention."""

    __slots__ = ("degree", "_coeffs")

    def __init__(self, degree: int, coeffs: Mapping | None = None):
        if degree < 0:
            raise ValueError("negative degree")
        clean = {}
        if coeffs:
            for key, poly in coeffs.items():
                key = tuple(key)
                if len(key) != degree:
                    raise ValueError(f"key {key} does not match degree {degree}")
                if list(key) != sorted(set(key)):
                    raise ValueError(f"key {key} must be strictly increasing")
                if key and (key[0] < 0 or key[-1] >= NVARS):
                    raise ValueError(f"key {key} out of range")
                if not isinstance(poly, ExpPoly):
                    poly = ExpPoly.constant(poly)
                clean[key] = clean[key] + poly if key in clean else poly
        clean = {k: p for k, p in clean.items() if not p.is_zero()}
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_coeffs", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _canonical(cls, degree: int, coeffs: dict) -> "DiffForm":
        """A form around strictly increasing in-range keys the library built
        itself, one ExpPoly each: nothing is checked or re-summed, and zero
        coefficients are dropped."""
        out = object.__new__(cls)
        object.__setattr__(out, "degree", degree)
        object.__setattr__(out, "_coeffs", {k: p for k, p in coeffs.items() if p._terms})
        return out

    @staticmethod
    def covector(name: str) -> "DiffForm":
        """Basis 1-form: one of dt, dx, dphi, dA, dB."""
        if not name.startswith("d"):
            raise ValueError(f"covector name must start with 'd': {name!r}")
        return DiffForm(1, {(var_index(name[1:]),): ExpPoly.one()})

    # -- structure ---------------------------------------------------------

    def coeff(self, key) -> ExpPoly:
        """Signed coefficient against a basis wedge.

        The key is a tuple of covector names such as ("dx", "dA") or of
        variable indices; permuted keys pick up the permutation sign, keys
        with a repeated covector have coefficient zero.  A key of the wrong
        length, an unknown name or an index outside 0..4 is a ValueError,
        and an index that is not an integer (0.9, say) is a TypeError.
        """
        # an unknown name reads as index -1, out of range
        idx = tuple(
            _COVAR_INDEX.get(k, -1) if isinstance(k, str) else index(k) for k in key
        )
        if len(idx) != self.degree or not all(0 <= i < NVARS for i in idx):
            raise ValueError(f"key {tuple(key)} names no slot of a {self.degree}-form")
        merged = _sorted_sign(idx)
        if merged is None:
            return ExpPoly.zero()
        canon, sign = merged
        value = self._coeffs.get(canon, ExpPoly.zero())
        return value if sign == 1 else -value

    def items(self):
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return self.degree == other.degree and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.degree, frozenset(self._coeffs.items())))

    # -- linear algebra ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add forms of degree {self.degree} and {other.degree}"
            )
        coeffs = dict(self._coeffs)
        for key, poly in other._coeffs.items():
            coeffs[key] = coeffs[key] + poly if key in coeffs else poly
        return DiffForm._canonical(self.degree, coeffs)

    def __neg__(self):
        return DiffForm._canonical(
            self.degree, {k: -p for k, p in self._coeffs.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        """Multiply by an ExpPoly or exact scalar (a 0-form factor)."""
        if isinstance(scalar, DiffForm):
            return NotImplemented
        if not isinstance(scalar, ExpPoly):
            scalar = ExpPoly.constant(scalar)
        return DiffForm._canonical(
            self.degree, {k: p * scalar for k, p in self._coeffs.items()}
        )

    __rmul__ = __mul__

    # -- exterior calculus ---------------------------------------------------

    def wedge(self, other: "DiffForm") -> "DiffForm":
        """Exterior product; beyond top degree the result is the zero form."""
        if not isinstance(other, DiffForm):
            raise TypeError("wedge expects a DiffForm")
        degree = self.degree + other.degree
        if degree > NVARS:
            return DiffForm(degree)
        signed: dict = {}
        for k1, p1 in self._coeffs.items():
            for k2, p2 in other._coeffs.items():
                merged = _sorted_sign(k1 + k2)
                if merged is None:
                    continue
                key, sign = merged
                signed.setdefault(key, ([], []))[sign < 0].append((p1, p2))
        return _summed(degree, signed)

    def d(self) -> "DiffForm":
        """Exterior derivative."""
        signed: dict = {}
        for key, poly in self._coeffs.items():
            for i, dpoly in enumerate(poly._grad()):
                merged = _sorted_sign((i,) + key)
                if merged is None:
                    continue
                new_key, sign = merged
                signed.setdefault(new_key, ([], []))[sign < 0].append((_ONE, dpoly))
        return _summed(self.degree + 1, signed)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self.degree == 0:
            return str(self._coeffs.get((), ExpPoly.zero()))
        # display each basis wedge with covariables in descending order, terms
        # sorted by that display tuple
        rendered = []
        for key, poly in self._coeffs.items():
            disp = tuple(reversed(key))
            k = len(key)
            if (k * (k - 1) // 2) % 2 == 1:
                poly = -poly
            rendered.append((disp, poly))
        rendered.sort(key=lambda item: item[0])
        pieces = []
        for disp, poly in rendered:
            basis = "^".join(COVARS[i] for i in disp)
            terms = poly.sorted_terms()
            if len(terms) == 1:
                body = str(poly)
                if body == "1":
                    pieces.append(basis)
                elif body == "-1":
                    pieces.append(f"-{basis}")
                else:
                    pieces.append(f"{body}*{basis}")
            else:
                pieces.append(f"({poly})*{basis}")
        return _signed_sum(pieces)

    def __repr__(self) -> str:
        return f"DiffForm<{self.degree}>({self})"


def _components_of(N) -> Sequence[ExpPoly]:
    comps = getattr(N, "components", N)
    comps = tuple(comps)
    if len(comps) != NVARS:
        raise ValueError("expected 5 vector-field components (t, x, phi, A, B)")
    return tuple(
        c if isinstance(c, ExpPoly) else ExpPoly.constant(c) for c in comps
    )


def contract(N, u: DiffForm) -> DiffForm:
    """Interior product N _| u for a vector field with components in VARS order.

    Contracting a 0-form is a domain error.
    """
    if u.degree == 0:
        raise ValueError("cannot contract a 0-form with a vector field")
    comps = _components_of(N)
    # rest -> (pairs entering with +, pairs entering with -)
    signed: dict = {}
    for key, poly in u._coeffs.items():
        for pos, idx in enumerate(key):
            rest = key[:pos] + key[pos + 1 :]
            signed.setdefault(rest, ([], []))[pos % 2].append((comps[idx], poly))
    return _summed(u.degree - 1, signed)


def lie_derivative(N, u: DiffForm) -> DiffForm:
    """Lie derivative along N by the coordinate formula of the module
    docstring, each slot summed in one pass over N's derivative table (an
    Isovector's cached one, or one computed here for bare components)."""
    comps = _components_of(N)
    jacobian = getattr(N, "_jacobian", None) or tuple(comp._grad() for comp in comps)
    signed: dict = {}
    for key, poly in u._coeffs.items():
        signed.setdefault(key, ([], []))[0].extend(zip(comps, poly._grad()))
        for m, k in enumerate(key):
            for c, dN in enumerate(jacobian[k]):
                if not dN._terms:
                    continue
                moved = _sorted_sign(key[:m] + (c,) + key[m + 1 :])
                if moved is None:
                    continue
                new_key, sign = moved
                signed.setdefault(new_key, ([], []))[sign < 0].append((poly, dN))
    return _summed(u.degree, signed)


def structural_forms(ctx: ModelContext):
    """The contact 1-form alpha, its differential, and the equation 2-form beta."""
    # alpha = dphi - A dx - B dt, so dalpha = dt^dB + dx^dA
    alpha = DiffForm._canonical(1, {(0,): -_B, (1,): -_A, (2,): _ONE})
    dalpha = DiffForm._canonical(2, {(0, 4): _ONE, (1, 3): _ONE})
    # beta = eq dx^dt + (sigma2/2) dA^dt = -eq dt^dx - (sigma2/2) dt^dA
    minus_eq = ctx.r * _PHI - ctx.rtilde * _A - _B
    beta = DiffForm._canonical(
        2, {(0, 1): minus_eq, (0, 3): ExpPoly.constant(-ctx.sigma2 / 2)}
    )
    return alpha, dalpha, beta


def _forms_of(ctx: ModelContext) -> tuple:
    """(alpha, dalpha, beta) of the context, built on first use through the
    module attribute `structural_forms` and kept on the context."""
    derived = ctx._derived
    forms = derived.get("forms")
    if forms is None:
        forms = derived["forms"] = structural_forms(ctx)
    return forms
