"""Differential forms on the 5-jet manifold with ExpPoly coefficients.

Coordinates are (t, x, phi, A, B) where A stands for phi_x and B for phi_t.
A DiffForm of degree k stores its coefficients against the canonical basis
dz_{i1} ^ ... ^ dz_{ik} with strictly increasing indices i1 < ... < ik in the
variable order above.

The contact structure of the pricing equation is generated by

    alpha = dphi - A dx - B dt
    dalpha
    beta  = (B + rtilde*A - r*phi) dx^dt + (sigma2/2) dA^dt

and `structural_forms` builds the triple for a given model context.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .exppoly import VARS, ExpPoly, _signed_sum, _sum_of_products, var_index
from .model import ModelContext

COVARS = ("dt", "dx", "dphi", "dA", "dB")
NVARS = len(VARS)


def _merge_indices(left: tuple, right: tuple):
    """Concatenate two increasing index tuples; return (sorted, sign) or None."""
    combined = list(left) + list(right)
    if len(set(combined)) != len(combined):
        return None
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(combined)):
        j = i
        while j > 0 and combined[j - 1] > combined[j]:
            combined[j - 1], combined[j] = combined[j], combined[j - 1]
            sign = -sign
            j -= 1
    return tuple(combined), sign


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
                if not poly.is_zero():
                    clean[key] = clean.get(key, ExpPoly.zero()) + poly
        clean = {k: p for k, p in clean.items() if not p.is_zero()}
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_coeffs", clean)

    # -- constructors ------------------------------------------------------

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
        with a repeated covector have coefficient zero.
        """
        idx = tuple(
            var_index(k[1:]) if isinstance(k, str) else int(k) for k in key
        )
        merged = _merge_indices(idx, ())
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
            coeffs[key] = coeffs.get(key, ExpPoly.zero()) + poly
        return DiffForm(self.degree, coeffs)

    def __neg__(self):
        return DiffForm(self.degree, {k: -p for k, p in self._coeffs.items()})

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
        return DiffForm(
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
        coeffs: dict = {}
        for k1, p1 in self._coeffs.items():
            for k2, p2 in other._coeffs.items():
                merged = _merge_indices(k1, k2)
                if merged is None:
                    continue
                key, sign = merged
                term = p1 * p2 if sign > 0 else -(p1 * p2)
                coeffs[key] = coeffs.get(key, ExpPoly.zero()) + term
        return DiffForm(degree, coeffs)

    def d(self) -> "DiffForm":
        """Exterior derivative."""
        coeffs: dict = {}
        for key, poly in self._coeffs.items():
            for i in range(NVARS):
                dp = poly.diff(VARS[i])
                if dp.is_zero():
                    continue
                merged = _merge_indices((i,), key)
                if merged is None:
                    continue
                new_key, sign = merged
                term = dp if sign > 0 else -dp
                coeffs[new_key] = coeffs.get(new_key, ExpPoly.zero()) + term
        return DiffForm(self.degree + 1, coeffs)

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


def wedge(u: DiffForm, v: DiffForm) -> DiffForm:
    return u.wedge(v)


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
    pairs: dict = {}
    for key, poly in u._coeffs.items():
        for pos, idx in enumerate(key):
            rest = key[:pos] + key[pos + 1 :]
            signed = pairs.setdefault(rest, ([], []))
            signed[pos % 2].append((comps[idx], poly))
    coeffs = {rest: _sum_of_products(*signed) for rest, signed in pairs.items()}
    return DiffForm(u.degree - 1, coeffs)


def lie_derivative(N, u: DiffForm) -> DiffForm:
    """Lie derivative along N via the Cartan formula L_N = N _| d(.) + d(N _| .)."""
    comps = _components_of(N)
    if u.degree == 0:
        return contract(comps, u.d())
    return contract(comps, u.d()) + contract(comps, u).d()


def structural_forms(ctx: ModelContext):
    """The contact 1-form alpha, its differential, and the equation 2-form beta."""
    dt = DiffForm.covector("dt")
    dx = DiffForm.covector("dx")
    dphi = DiffForm.covector("dphi")
    dA = DiffForm.covector("dA")
    A = ExpPoly.var("A")
    B = ExpPoly.var("B")
    phi = ExpPoly.var("phi")

    alpha = dphi + dx * (-A) + dt * (-B)
    dalpha = alpha.d()
    eq = B + ctx.rtilde * A - ctx.r * phi
    beta = wedge(dx, dt) * eq + wedge(dA, dt) * (ctx.sigma2 / 2)
    return alpha, dalpha, beta
