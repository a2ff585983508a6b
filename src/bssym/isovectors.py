"""Isovectors of the pricing equation: construction, verification, brackets.

An isovector is a vector field N on the 5-jet manifold whose Lie derivative
preserves the structural ideal I = <alpha, dalpha, beta>.  Verification is
split exactly as the theory dictates:

  * L_N alpha = lambda * alpha with lambda = F_phi, where F = N _| alpha is
    the generator function (this also settles L_N dalpha = d(lambda alpha));
  * L_N beta is decided by the ideal membership solver.

The full solution family is parametrized by six exact constants C1..C6 and a
set of exponential solution modes g; `isovector_from_constants` encodes that
parametrization literally, and `decompose` inverts it by reading C1..C6 and
the modes off F.

Derived exact data is built once and kept with what it derives from: a
context's basis fields on the `ModelContext` instance (its structural forms
too, through `forms._forms_of`), a field's derivative table and g/h split
on the `Isovector`.  Nothing is shared between two objects, however equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import index
from typing import Sequence, Tuple

from .exppoly import (
    VARS, ExpPoly, _ONE, _SIGS, _from_terms, _pack, _signed_sum, _sum_of_products,
)
from .forms import _A, _B, DiffForm, _forms_of, lie_derivative
from .ideal import MembershipCertificate, ideal_membership
from .model import ModelContext, _as_fraction


class DispersionError(ValueError):
    """A solution mode violates the dispersion relation of the equation."""

    def __init__(self, mode, value):
        coeff, a, b = mode
        super().__init__(
            f"mode {coeff}*exp({a}*t + {b}*x) violates the dispersion "
            f"relation: a + (sigma2/2) b^2 + rtilde b - r = {value} != 0"
        )
        self.mode = mode
        self.value = value


class NotInFamilyError(ValueError):
    """A vector field is outside the C1..C6 + solution-mode family."""


def _dispersion(ctx: ModelContext, a, b) -> Fraction:
    """a + (sigma2/2) b^2 + rtilde b - r, zero iff exp(a t + b x) solves the
    log-frame equation."""
    return a + ctx.sigma2 / 2 * b * b + ctx.rtilde * b - ctx.r


@dataclass(frozen=True)
class SolutionSpec:
    """Exponential solution modes sum(c * exp(a t + b x)) with exact data."""

    modes: Tuple[Tuple[Fraction, Fraction, Fraction], ...] = ()

    @staticmethod
    def single(coeff, a, b) -> "SolutionSpec":
        return SolutionSpec((tuple(map(_as_fraction, (coeff, a, b))),))

    @staticmethod
    def mode_for(b, ctx: ModelContext, coeff=1) -> "SolutionSpec":
        """The mode with spatial rate b whose time rate solves the dispersion."""
        b = _as_fraction(b)
        return SolutionSpec.single(coeff, -_dispersion(ctx, 0, b), b)

    def __add__(self, other: "SolutionSpec") -> "SolutionSpec":
        return SolutionSpec(self.modes + other.modes)

    def is_zero(self) -> bool:
        return all(c == 0 for c, _, _ in self.modes)

    def to_exppoly(self) -> ExpPoly:
        return _from_terms((), modes=self.modes)

    def check_dispersion(self, ctx: ModelContext) -> None:
        for mode in self.modes:
            value = _dispersion(ctx, *mode[1:])
            if value != 0:
                raise DispersionError(mode, value)


def pde_defect(g: ExpPoly, ctx: ModelContext) -> ExpPoly:
    """Exact defect g_t + (sigma2/2) g_xx + rtilde g_x - r g of a candidate
    solution of the log-frame equation; zero iff g solves it.  The operator
    is read off beta = -eq dt^dx - (sigma2/2) dt^dA in one pass."""
    _, _, beta = _forms_of(ctx)
    minus_eq = beta.coeff(("dt", "dx"))
    gx = g.diff("x")
    return _sum_of_products((), (
        (minus_eq.coeff_of("B", 1), g.diff("t")),
        (minus_eq.coeff_of("A", 1), gx),
        (minus_eq.coeff_of("phi", 1), g),
        (beta.coeff(("dt", "dA")), gx.diff("x")),
    ))


def in_solution_ideal(N: Isovector, ctx: ModelContext) -> bool:
    """True when N is a pure solution-mode field: N^t = N^x = 0, h = 0, and
    the inhomogeneity g solves the equation exactly."""
    if not (N.Nt.is_zero() and N.Nx.is_zero()):
        return False
    pair = gh_of(N)
    if not pair.h.is_zero():
        return False
    return pde_defect(pair.g, ctx).is_zero()


@dataclass(frozen=True)
class Isovector:
    """Vector field on the jet manifold, components in (t, x, phi, A, B) order."""

    components: Tuple[ExpPoly, ExpPoly, ExpPoly, ExpPoly, ExpPoly]
    name: str = field(default="", compare=False)  # a label: == and hash read components

    @property
    def Nt(self) -> ExpPoly:
        return self.components[0]

    @property
    def Nx(self) -> ExpPoly:
        return self.components[1]

    @property
    def Nphi(self) -> ExpPoly:
        return self.components[2]

    @property
    def NA(self) -> ExpPoly:
        return self.components[3]

    @property
    def NB(self) -> ExpPoly:
        return self.components[4]

    @cached_property
    def _jacobian(self) -> tuple:
        """Row v holds the derivatives dN^v/dw, computed once per field."""
        return tuple(comp._grad() for comp in self.components)

    @cached_property
    def _gh(self) -> "GHPair":
        """The split N^phi = g + h*phi of `gh_of`, computed once per field;
        a field with no split raises ValueError and caches nothing."""
        nphi = self.Nphi
        if nphi.degree_in("phi") > 1:
            raise ValueError("N^phi is not affine in phi")
        g = nphi.coeff_of("phi", 0)
        h = nphi.coeff_of("phi", 1)
        for var in ("A", "B"):
            if g.depends_on(var) or h.depends_on(var):
                raise ValueError(f"N^phi involves {var}; no g/h split exists")
        return GHPair(g=g, h=h)

    @cached_property
    def _gh_grad(self) -> tuple:
        """(g_t, g_x, h_t, h_x) of the split, for `bracket_gh`, computed
        once per field."""
        g, h = self._gh.g, self._gh.h
        return g.diff("t"), g.diff("x"), h.diff("t"), h.diff("x")

    def __add__(self, other: "Isovector") -> "Isovector":
        comps = tuple(a + b for a, b in zip(self.components, other.components))
        return Isovector(comps)

    def __rmul__(self, scalar) -> "Isovector":
        return Isovector(tuple(scalar * c for c in self.components))

    __mul__ = __rmul__

    def __str__(self) -> str:
        label = self.name or "N"
        parts = [
            f"{label}^{var} = {comp}"
            for var, comp in zip(VARS, self.components)
        ]
        return "; ".join(parts)


@dataclass(frozen=True)
class GHPair:
    """The inhomogeneous and homogeneous parts of N^phi = g + h*phi."""

    g: ExpPoly
    h: ExpPoly


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking L_N(I) subset I for one candidate isovector."""

    name: str
    generator: ExpPoly
    lam: ExpPoly
    alpha_ok: bool
    alpha_defect: DiffForm
    certificate: MembershipCertificate

    @property
    def passed(self) -> bool:
        return self.alpha_ok and self.certificate.in_ideal

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "generator": str(self.generator),
            "lambda": str(self.lam),
            "alpha_ok": self.alpha_ok,
            "alpha_defect": str(self.alpha_defect),
            "beta_in_ideal": self.certificate.in_ideal,
            "certificate": self.certificate.to_json(),
            "passed": self.passed,
        }


# -- generator correspondence ----------------------------------------------


def generator_of(N: Isovector) -> ExpPoly:
    """The generating function F = N _| alpha = N^phi - A N^x - B N^t,
    summed in one pass."""
    return _sum_of_products(((_ONE, N.Nphi),), ((_A, N.Nx), (_B, N.Nt)))


def isovector_from_generator(F: ExpPoly, name: str = "") -> Isovector:
    """The prolongation of any generating function F, each component summed
    in one pass:

        N^t = -F_B     N^x = -F_A     N^phi = F - A F_A - B F_B
        N^A = F_x + A F_phi           N^B = F_t + B F_phi

    Every such N is a contact field, L_N alpha = F_phi alpha, whose own
    generator is F again; whether it is an isovector, that is whether L_N
    beta lies in the ideal, is what `verify_isovector` decides.
    """
    Ft, Fx, Fphi, FA, FB = F._grad()
    Nphi = _sum_of_products(((_ONE, F),), ((_A, FA), (_B, FB)))
    NA = _sum_of_products(((_ONE, Fx), (_A, Fphi)))
    NB = _sum_of_products(((_ONE, Ft), (_B, Fphi)))
    return Isovector((-FB, -FA, Nphi, NA, NB), name=name)


# -- the exact solution family ----------------------------------------------


def isovector_from_constants(
    constants: Sequence, modes: SolutionSpec, ctx: ModelContext, name: str = ""
) -> Isovector:
    """Isovector with parameters C1..C6 and solution modes g.

    Writing d(t) = C1 t^2 + C2 t + C3 and mu(t) = C4 t + C5, the components
    are built from

        f(t,x) = (1/2) d'(t) x + mu(t)
        k(t)   = -(stilde^2 / 2 sigma2) d(t) + (rtilde/sigma2) mu(t)
                 + d'(t)/4 + C6
        h(t,x) = (rtilde / 2 sigma2) d'(t) x - (d''(t) / 4 sigma2) x^2
                 - (mu'(t)/sigma2) x + k(t)

    as the prolongation (`isovector_from_generator`) of the generator
    F = N _| alpha = g + h*phi + A*f + B*d, which gives N^t = -d, N^x = -f,
    N^phi = g + h*phi, N^A = g_x + h_x phi + A f_x + A h and
    N^B = g_t + h_t phi + A f_t + B d' + B h.  So C1..C5 are F's
    coefficients of B t^2, B t, B, A t and A, and C6 enters only its phi
    coefficient.  F is one ExpPoly straight from its rational coefficients,
    which are linear in C1..C6 (`_member_terms`).
    """
    constants = tuple(constants)
    if len(constants) != 6:
        raise ValueError("expected six constants C1..C6")
    constants = tuple(map(_as_fraction, constants))
    modes.check_dispersion(ctx)
    return isovector_from_generator(_family_generator(constants, modes, ctx), name=name)


def _member_terms(constants, ctx: ModelContext) -> tuple:
    """(den, h, f, d): h(t, x), f(t, x) and d(t) of the family member with
    constants C1..C6, expanded from `isovector_from_constants`, each a tuple
    of terms (n, i, j) that stand for (n/den) t^i x^j.  The rates
    S = stilde^2 / 2 sigma2, R = rtilde / sigma2, H = rtilde / 2 sigma2 and
    J = 1 / 2 sigma2 are integer numerators over D
    (`ModelContext.family_rates`), the constants over their lcm."""
    D, s, r, h, j = ctx.family_rates
    common = lcm(*(c.denominator for c in constants))
    c1, c2, c3, c4, c5, c6 = (c.numerator * (common // c.denominator) for c in constants)
    return (
        common * D,
        (
            (-s * c1, 2, 0),
            (D // 2 * c1 - s * c2 + r * c4, 1, 0),
            (D // 4 * c2 - s * c3 + r * c5 + D * c6, 0, 0),
            (r * c1, 1, 1),
            (h * c2 - 2 * j * c4, 0, 1),
            (-j * c1, 0, 2),
        ),
        ((D * c1, 1, 1), (D // 2 * c2, 0, 1), (D * c4, 1, 0), (D * c5, 0, 0)),
        ((D * c1, 2, 0), (D * c2, 1, 0), (D * c3, 0, 0)),
    )


def _family_generator(constants, modes: SolutionSpec, ctx: ModelContext) -> ExpPoly:
    """F = g + h*phi + A*f + B*d of the family member, built in one pass."""
    den, h, f, d = _member_terms(constants, ctx)
    terms = [(n, (i, j, 1, 0, 0)) for n, i, j in h]
    terms += [(n, (i, j, 0, 1, 0)) for n, i, j in f]
    terms += [(n, (i, j, 0, 0, 1)) for n, i, j in d]
    return _from_terms(terms, den, modes.modes)


def basis_isovector(i: int, ctx: ModelContext) -> Isovector:
    """Basis element N_i (g = 0, C_j = delta_ij), i in 1..6: the context's
    own field, built on its first call, so that every caller with this
    context shares it and its cached derivative table."""
    i = index(i)
    if not 1 <= i <= 6:
        raise ValueError(f"basis index must be 1..6, got {i}")
    basis = ctx._derived.setdefault("basis", {})
    N = basis.get(i)
    if N is None:
        constants = [0] * 6
        constants[i - 1] = 1
        N = basis[i] = isovector_from_constants(
            constants, SolutionSpec(), ctx, name=f"N{i}"
        )
    return N


def solution_isovector(
    modes: SolutionSpec, ctx: ModelContext, name: str = "N_g"
) -> Isovector:
    """Pure solution-mode isovector (all C_i = 0)."""
    return isovector_from_constants([0] * 6, modes, ctx, name=name)


# -- verification ------------------------------------------------------------


def verify_isovector(N: Isovector, ctx: ModelContext) -> VerificationReport:
    """Machine check of L_N(I) subset I with exact arithmetic."""
    alpha, _, beta = _forms_of(ctx)
    F = generator_of(N)
    lam = F.diff("phi")
    alpha_defect = lie_derivative(N, alpha) - alpha * lam
    L_beta = lie_derivative(N, beta)
    certificate = ideal_membership(L_beta, ctx)
    return VerificationReport(
        name=N.name,
        generator=F,
        lam=lam,
        alpha_ok=alpha_defect.is_zero(),
        alpha_defect=alpha_defect,
        certificate=certificate,
    )


# -- Lie algebra --------------------------------------------------------------


def bracket(M: Isovector, N: Isovector) -> Isovector:
    """Commutator [M, N] acting componentwise:

        [M, N]^v = sum_w M^w d_w N^v - N^w d_w M^v,

    read off the two cached derivative tables, each component summed in one
    pass over its ten products."""
    comps = tuple(
        _sum_of_products(zip(M.components, n_grad), zip(N.components, m_grad))
        for m_grad, n_grad in zip(M._jacobian, N._jacobian)
    )
    name = ""
    if M.name and N.name:
        name = f"[{M.name},{N.name}]"
    return Isovector(comps, name=name)


def gh_of(N: Isovector) -> GHPair:
    """Split N^phi = g + h*phi; requires N^phi affine in phi, free of A, B.
    The split is computed once per field."""
    return N._gh


def bracket_gh(M: Isovector, N: Isovector) -> GHPair:
    """g/h data of [M, N] computed directly from the first-order parts.

        g_[M,N] = M^t g_N,t + M^x g_N,x + g_M h_N
                  - N^t g_M,t - N^x g_M,x - g_N h_M
        h_[M,N] = M^t h_N,t + M^x h_N,x - N^t h_M,t - N^x h_M,x
    """
    gm, gn = M._gh, N._gh
    gm_t, gm_x, hm_t, hm_x = M._gh_grad
    gn_t, gn_x, hn_t, hn_x = N._gh_grad
    g = _sum_of_products(
        ((M.Nt, gn_t), (M.Nx, gn_x), (gm.g, gn.h)),
        ((N.Nt, gm_t), (N.Nx, gm_x), (gn.g, gm.h)),
    )
    h = _sum_of_products(
        ((M.Nt, hn_t), (M.Nx, hn_x)),
        ((N.Nt, hm_t), (N.Nx, hm_x)),
    )
    return GHPair(g=g, h=h)


# -- decomposition back into the family ---------------------------------------


# packed keys of B t^2, B t, B, A t, A and phi: the monomials of F, with no
# exponential, that carry C1..C5 and k
_CONSTANT_KEYS = tuple(map(_pack, (
    (2, 0, 0, 0, 1), (1, 0, 0, 0, 1), (0, 0, 0, 0, 1),
    (1, 0, 0, 1, 0), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0),
)))


def decompose(N: Isovector, ctx: ModelContext):
    """Invert the family parametrization: N -> (C1..C6, SolutionSpec).

    C1..C5 and C6 are read off F = N _| alpha (see
    `isovector_from_constants`), C6 as F's phi coefficient less that of the
    member with C6 = 0, and the modes are F's terms with no power of any
    variable.  The one membership check is the rebuild-and-compare: a
    NotInFamilyError names the first component that differs.
    """
    F = generator_of(N)
    # read off F's integer storage: group 0 holds the terms with no
    # exponential, key 0 the term with no power of any variable
    den, groups = F._den, F._terms
    plain = groups.get(0, {})
    C1, C2, C3, C4, C5, k = (Fraction(plain.get(key, 0), den) for key in _CONSTANT_KEYS)
    hden, h, _, _ = _member_terms((C1, C2, C3, C4, C5, Fraction(0)), ctx)
    k0 = next(Fraction(n, hden) for n, i, j in h if (i, j) == (0, 0))
    constants = (C1, C2, C3, C4, C5, k - k0)
    # in `sorted_terms` order: descending (a, b)
    spec = SolutionSpec(tuple(sorted(
        ((Fraction(mono[0], den), *_SIGS[sid]) for sid, mono in groups.items() if 0 in mono),
        key=lambda mode: mode[1:], reverse=True,
    )))
    spec.check_dispersion(ctx)

    rebuilt = isovector_from_generator(_family_generator(constants, spec, ctx))
    for var, a, b in zip(VARS, rebuilt.components, N.components):
        if a != b:
            raise NotInFamilyError(
                f"component N^{var} mismatch: family form gives {a}, input has {b}"
            )
    return constants, spec


def pretty_combination(terms) -> str:
    """Render ((k, coeff), ...) as e.g. "1/2 · N5"; empty input is "0"."""
    return _signed_sum(f"{coeff} · N{k}" for k, coeff in terms)


def structure_constants(ctx: ModelContext) -> dict:
    """Brackets of the six basis isovectors expanded back in the basis.

    Returns a dict mapping (i, j) to a tuple of (k, coeff) pairs, in
    row-major (i, j) order; every bracket must land in the span of N1..N6
    with no solution-mode part.  Only the pairs i < j are bracketed and
    decomposed: the commutator is antisymmetric, so [N_i, N_i] = 0 and
    [N_j, N_i] is [N_i, N_j] with its coefficients negated, exactly.  The
    basis is the context's own (`basis_isovector`), so the fields and
    derivative tables a caller already built are reused.
    """
    basis = {i: basis_isovector(i, ctx) for i in range(1, 7)}
    table = {}
    for i in range(1, 7):
        for j in range(1, 7):
            if i > j:  # row j came first
                table[(i, j)] = tuple((k, -c) for k, c in table[(j, i)])
                continue
            if i == j:
                table[(i, j)] = ()
                continue
            br = bracket(basis[i], basis[j])
            constants, spec = decompose(br, ctx)
            if not spec.is_zero():
                raise NotInFamilyError(
                    f"[N{i},N{j}] has a nonzero solution-mode part"
                )
            table[(i, j)] = tuple(
                (k + 1, c) for k, c in enumerate(constants) if c != 0
            )
    return table
