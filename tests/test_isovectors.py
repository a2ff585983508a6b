"""Isovector family, exact verification, and the bracket algebra."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MODEL_POINTS as ACCEPTANCE_POINTS, NEGATIVE_RATE

import bssym.forms as forms
import bssym.isovectors as isovectors
from bssym.exppoly import VARS, ExpPoly
from bssym.forms import DiffForm
from bssym.ideal import ideal_membership
from bssym.isovectors import (
    DispersionError,
    GHPair,
    Isovector,
    NotInFamilyError,
    SolutionSpec,
    basis_isovector,
    bracket,
    bracket_gh,
    decompose,
    generator_of,
    gh_of,
    in_solution_ideal,
    isovector_from_constants,
    isovector_from_generator,
    pde_defect,
    pretty_combination,
    solution_isovector,
    structure_constants,
    verify_isovector,
)
from bssym.model import ModelContext, make_context

DEFAULT = make_context(Fraction(1, 20), Fraction(1, 25))
ZERO_RATE = make_context(Fraction(0), Fraction(2))
MODEL_POINTS = (DEFAULT, ZERO_RATE, make_context(Fraction(3, 7), Fraction(5, 11)))

consts = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12
)
const_tuples = st.tuples(consts, consts, consts, consts, consts, consts)
mode_exponents = st.lists(
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4),
    min_size=0,
    max_size=2,
    unique=True,
)


def family_member(constants, bs, ctx, name=""):
    modes = SolutionSpec()
    for b in bs:
        modes = modes + SolutionSpec.mode_for(b, ctx)
    return isovector_from_constants(constants, modes, ctx, name=name)


# -- value types -----------------------------------------------------------


@given(consts, consts, consts)
@settings(max_examples=30, deadline=None)
def test_equal_values_hash_equal(c, a, b):
    """Each exact value type built two ways: the two are equal, hash equal
    and make a set of one.  An isovector's name is a label, not a value."""
    t, x = ExpPoly.var("t"), ExpPoly.var("x")
    e = ExpPoly.term(c, (0, 1, 0, 0, 0), a, b)
    p, q = e * t + x, x + t * e
    rest = (x, t, e, ExpPoly.one())
    pairs = [
        (p, q),
        (DiffForm(1, {(0,): p, (1,): x}), DiffForm(1, {(1,): x}) + DiffForm(1, {(0,): q})),
        (SolutionSpec.single(c, a, b), SolutionSpec.single(str(c), str(a), str(b))),
        (GHPair(p, x), GHPair(g=q, h=x)),
        (Isovector((p, *rest), name="N1"), Isovector((q, *rest), name="x")),
    ]
    for one, other in pairs:
        assert one == other, type(one).__name__
        assert hash(one) == hash(other), type(one).__name__
        assert len({one, other}) == 1, type(one).__name__


# -- family construction and verification -----------------------------------


def test_basis_isovectors_verify_exactly():
    for i in range(1, 7):
        rep = verify_isovector(basis_isovector(i, DEFAULT), DEFAULT)
        assert rep.passed, f"N{i} failed: {rep.to_json()}"


def test_lambda_is_f_phi_golden_values():
    expected = {
        1: "-49/800*t^2 + 3/4*t*x - 25/2*x^2 + 1/2*t",
        2: "-49/800*t + 3/8*x + 1/4",
        3: "-49/800",
        4: "3/4*t - 25*x",
        5: "3/4",
        6: "1",
    }
    for i, want in expected.items():
        rep = verify_isovector(basis_isovector(i, DEFAULT), DEFAULT)
        assert str(rep.lam) == want


def test_generator_round_trip_on_basis():
    for i in range(1, 7):
        N = basis_isovector(i, DEFAULT)
        F = generator_of(N)
        assert F == verify_isovector(N, DEFAULT).generator
        assert isovector_from_generator(F) == N


# any generating function: up to three terms, each a monomial of degree <= 2
# in every variable, with or without an exponential factor
generators = st.lists(
    st.tuples(
        consts,
        st.tuples(*(st.integers(0, 2) for _ in VARS)),
        st.sampled_from(((0, 0), (1, 0), (Fraction(-1, 2), 2))),
    ),
    max_size=3,
).map(lambda terms: sum(
    (ExpPoly.term(c, exps, a=a, b=b) for c, exps, (a, b) in terms), ExpPoly.zero()))


@given(generators)
def test_generator_round_trip_on_arbitrary_fields(F):
    # F -> N -> F is exact for any F, and so N -> F -> N for the field it
    # prolongs to, isovector or not
    N = isovector_from_generator(F, name="N_F")
    assert N.name == "N_F"
    assert generator_of(N) == F
    assert isovector_from_generator(generator_of(N)) == N


@given(const_tuples, mode_exponents, st.sampled_from(MODEL_POINTS))
def test_generator_round_trip_on_the_family(constants, bs, ctx):
    N = family_member(constants, bs, ctx)
    assert isovector_from_generator(generator_of(N)) == N


def test_generator_golden_strings():
    assert str(generator_of(basis_isovector(3, DEFAULT))) == "-49/800*phi + B"
    assert str(generator_of(basis_isovector(5, DEFAULT))) == "3/4*phi + A"
    assert str(generator_of(basis_isovector(6, DEFAULT))) == "phi"


# F and whether it is an isovector: F = A, the x-translation, is; each other
# prolongs to a contact field outside the algebra.  Verification, not the
# shape of F, decides
GENERATOR_VERDICTS = {
    "A": (ExpPoly.var("A"), True),
    "B^2": (ExpPoly.var("B") * ExpPoly.var("B"), False),
    "A^2": (ExpPoly.var("A") * ExpPoly.var("A"), False),
    "phi^2": (ExpPoly.var("phi") * ExpPoly.var("phi"), False),
    "x*B": (ExpPoly.var("x") * ExpPoly.var("B"), False),
    "t*A": (ExpPoly.var("t") * ExpPoly.var("A"), False),
}


@pytest.mark.parametrize("r,sigma2", (*ACCEPTANCE_POINTS, NEGATIVE_RATE))
@pytest.mark.parametrize("label", GENERATOR_VERDICTS)
def test_verification_decides_which_generators_are_isovectors(label, r, sigma2):
    F, isovector = GENERATOR_VERDICTS[label]
    rep = verify_isovector(isovector_from_generator(F), make_context(r, sigma2))
    assert rep.alpha_ok and rep.alpha_defect.is_zero()
    assert rep.certificate.in_ideal == rep.certificate.remainder.is_zero() == isovector
    assert rep.passed == isovector


@given(const_tuples, mode_exponents)
def test_family_members_are_isovectors(constants, bs):
    N = family_member(constants, bs, DEFAULT)
    rep = verify_isovector(N, DEFAULT)
    assert rep.passed, rep.to_json()


@given(const_tuples, mode_exponents)
def test_decompose_inverts_construction(constants, bs):
    N = family_member(constants, bs, DEFAULT)
    got_constants, got_modes = decompose(N, DEFAULT)
    assert got_constants == tuple(Fraction(c) for c in constants)
    rebuilt = isovector_from_constants(got_constants, got_modes, DEFAULT)
    assert rebuilt == N


def hand_written_family(constants, modes, ctx):
    """The six-constant family with N^A and N^B written out by hand: the
    oracle for the prolongation that `isovector_from_constants` applies."""
    T, X = ExpPoly.var("t"), ExpPoly.var("x")
    PHI, A, B = ExpPoly.var("phi"), ExpPoly.var("A"), ExpPoly.var("B")
    C1, C2, C3, C4, C5, C6 = constants
    s2, rt, st_ = ctx.sigma2, ctx.rtilde, ctx.stilde
    d = C1 * T * T + C2 * T + C3
    dp = d.diff("t")
    mu = C4 * T + C5
    f = Fraction(1, 2) * dp * X + mu
    k = -(st_ * st_ / (2 * s2)) * d + (rt / s2) * mu + Fraction(1, 4) * dp + C6
    h = ((rt / (2 * s2)) * dp * X - Fraction(1, 4) / s2 * dp.diff("t") * X * X
         - (1 / s2) * mu.diff("t") * X + k)
    g = modes.to_exppoly()
    NA = g.diff("x") + h.diff("x") * PHI + A * f.diff("x") + A * h
    NB = g.diff("t") + h.diff("t") * PHI + A * f.diff("t") + B * dp + B * h
    return (-d, -f, g + h * PHI, NA, NB)


@given(
    const_tuples,
    st.lists(st.tuples(consts, st.fractions(
        min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4)), max_size=2),
    st.sampled_from(MODEL_POINTS),
)
def test_family_is_the_prolongation_of_its_generator(constants, modes, ctx):
    spec = SolutionSpec()
    for coeff, b in modes:
        spec = spec + SolutionSpec.mode_for(b, ctx, coeff=coeff)
    N = isovector_from_constants(constants, spec, ctx, name="N_c")
    assert N.components == hand_written_family(constants, spec, ctx)
    assert N.name == "N_c"


def family_by_prolongation(constants, modes, ctx):
    """The family member built as the docstring of `isovector_from_constants`
    reads: d, f, k and h by ExpPoly arithmetic, and F = g + h*phi + A*f + B*d
    through `isovector_from_generator`."""
    T, X = ExpPoly.var("t"), ExpPoly.var("x")
    PHI, A, B = ExpPoly.var("phi"), ExpPoly.var("A"), ExpPoly.var("B")
    C1, C2, C3, C4, C5, C6 = (Fraction(c) for c in constants)
    s2, rt, st_ = ctx.sigma2, ctx.rtilde, ctx.stilde
    d = C1 * T * T + C2 * T + C3
    dp = d.diff("t")
    mu = C4 * T + C5
    f = Fraction(1, 2) * dp * X + mu
    k = -(st_ * st_ / (2 * s2)) * d + (rt / s2) * mu + Fraction(1, 4) * dp + C6
    h = ((rt / (2 * s2)) * dp * X - Fraction(1, 4) / s2 * dp.diff("t") * X * X
         - (1 / s2) * mu.diff("t") * X + k)
    g = ExpPoly.zero()
    for coeff, a, b in modes.modes:
        g = g + ExpPoly.term(coeff, a=a, b=b)
    return isovector_from_generator(g + h * PHI + A * f + B * d)


@given(
    const_tuples,
    st.lists(st.tuples(consts, st.fractions(
        min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4)), max_size=3),
    st.sampled_from(MODEL_POINTS),
)
def test_family_matches_its_construction_by_prolongation(constants, modes, ctx):
    spec = SolutionSpec()
    for coeff, b in modes:
        spec = spec + SolutionSpec.mode_for(b, ctx, coeff=coeff)
    N = isovector_from_constants(constants, spec, ctx)
    want = family_by_prolongation(constants, spec, ctx)
    assert N == want
    assert [hash(c) for c in N.components] == [hash(c) for c in want.components]
    assert [str(c) for c in N.components] == [str(c) for c in want.components]
    got_constants, got_spec = decompose(N, ctx)
    assert got_constants == tuple(Fraction(c) for c in constants)
    assert isovector_from_constants(got_constants, got_spec, ctx) == N


def test_solution_modes_sum_and_cancel():
    a, b = DEFAULT.r - DEFAULT.rtilde - DEFAULT.sigma2 / 2, Fraction(1)
    spec = SolutionSpec(((Fraction(2), a, b), (Fraction(1, 3), a, b), (Fraction(-5), 0, 0)))
    assert spec.to_exppoly() == (
        Fraction(7, 3) * ExpPoly.term(1, a=a, b=b) - 5
    )
    assert SolutionSpec(((1, a, b), (-1, a, b))).to_exppoly().is_zero()
    with pytest.raises(TypeError):
        SolutionSpec(((0.5, a, b),)).to_exppoly()


def test_bare_x_translation_decomposes_into_the_family():
    # F = A alone is the x-translation; it sits inside the family with a
    # compensating constant term C6 = -rtilde/sigma2
    N = isovector_from_generator(ExpPoly.var("A"))
    rep = verify_isovector(N, DEFAULT)
    assert rep.passed
    constants, modes = decompose(N, DEFAULT)
    assert constants == (0, 0, 0, 0, Fraction(1), Fraction(-3, 4))
    assert -Fraction(3, 4) == -DEFAULT.rtilde / DEFAULT.sigma2
    assert modes.is_zero()


def test_x_translation_constants():
    # the pure x-translation (N^x = -1, all else via prolongation)
    zero = Fraction(0)
    N = isovector_from_constants(
        (zero, zero, zero, zero, Fraction(-1), Fraction(3, 4)),
        SolutionSpec(),
        DEFAULT,
    )
    assert str(N.Nx) == "1"
    assert N.Nt.is_zero()
    constants, modes = decompose(N, DEFAULT)
    assert constants == (zero, zero, zero, zero, Fraction(-1), Fraction(3, 4))
    assert modes.is_zero()


def test_verification_needs_correct_multiplier():
    # bare boost candidate F = A t: the contact condition holds but the
    # 2-form condition leaves an exact nonzero remainder
    N = isovector_from_generator(ExpPoly.var("A") * ExpPoly.var("t"))
    rep = verify_isovector(N, DEFAULT)
    assert rep.alpha_ok
    assert not rep.certificate.in_ideal
    assert str(rep.certificate.remainder) == "A*dx^dt"
    assert not rep.passed


def test_solution_isovectors_verify():
    for modes in (
        SolutionSpec.single(1, DEFAULT.r, 0),  # discounted bond direction
        SolutionSpec.mode_for(1, DEFAULT),  # the underlying itself
        SolutionSpec.mode_for(2, DEFAULT),
    ):
        N = solution_isovector(modes, DEFAULT)
        rep = verify_isovector(N, DEFAULT)
        assert rep.passed
        assert rep.lam.is_zero()


def test_dispersion_relation_enforced():
    with pytest.raises(DispersionError):
        SolutionSpec.single(1, Fraction(1), Fraction(1)).check_dispersion(DEFAULT)
    # mode_for solves the relation for a; check the zero-rate instance
    spec = SolutionSpec.mode_for(1, ZERO_RATE)
    ((coeff, a, b),) = spec.modes
    assert (b, a) == (1, Fraction(0) - ZERO_RATE.rtilde - ZERO_RATE.sigma2 / 2)


def test_pde_defect_detects_solutions():
    good = SolutionSpec.mode_for(2, DEFAULT).to_exppoly()
    assert pde_defect(good, DEFAULT).is_zero()
    bad = ExpPoly.var("x") * ExpPoly.var("x")
    assert not pde_defect(bad, DEFAULT).is_zero()


@pytest.mark.parametrize("r,sigma2", (*ACCEPTANCE_POINTS, NEGATIVE_RATE))
def test_pde_defect_matches_the_reference_formula(r, sigma2):
    ctx = make_context(r, sigma2)
    t, x = ExpPoly.var("t"), ExpPoly.var("x")
    mode = SolutionSpec.mode_for(Fraction(1, 2), ctx).to_exppoly()
    for g in (x * x * t, ExpPoly.term(1, a=Fraction(1, 3), b=-2) * x + t, mode * t, mode):
        gx = g.diff("x")
        reference = (g.diff("t") + ctx.sigma2 / 2 * gx.diff("x")
                     + ctx.rtilde * gx - ctx.r * g)
        assert pde_defect(g, ctx) == reference


def test_in_solution_ideal():
    Nu = solution_isovector(SolutionSpec.mode_for(1, DEFAULT), DEFAULT)
    assert in_solution_ideal(Nu, DEFAULT)
    assert not in_solution_ideal(basis_isovector(5, DEFAULT), DEFAULT)
    # brackets of basis members with solution members stay in the ideal,
    # even when the result is not a pure exponential mode
    N1 = basis_isovector(1, DEFAULT)
    assert in_solution_ideal(bracket(N1, Nu), DEFAULT)


# -- bracket algebra ---------------------------------------------------------


def _basis(ctx):
    return {i: basis_isovector(i, ctx) for i in range(1, 7)}


def test_bracket_golden_relations():
    N = _basis(DEFAULT)
    assert bracket(N[2], N[5]) == Fraction(1, 2) * N[5]
    assert bracket(N[3], N[1]) == Fraction(-2) * N[2]
    assert bracket(N[1], N[2]) == N[1]
    assert bracket(N[4], N[5]) == Fraction(-1) / DEFAULT.sigma2 * N[6]


def test_bracket_antisymmetry_and_jacobi():
    N = _basis(DEFAULT)
    for i, j in itertools.combinations(range(1, 7), 2):
        lhs = bracket(N[i], N[j])
        rhs = bracket(N[j], N[i])
        assert lhs == Fraction(-1) * rhs
    for i, j, k in itertools.combinations(range(1, 7), 3):
        total = (
            bracket(N[i], bracket(N[j], N[k]))
            + bracket(N[j], bracket(N[k], N[i]))
            + bracket(N[k], bracket(N[i], N[j]))
        )
        assert all(c.is_zero() for c in total.components)


def test_structure_constants_table():
    table = structure_constants(DEFAULT)
    expected = {
        (1, 2): ((1, Fraction(1)),),
        (1, 3): ((2, Fraction(2)),),
        (1, 5): ((4, Fraction(1)),),
        (2, 3): ((3, Fraction(1)),),
        (2, 4): ((4, Fraction(-1, 2)),),
        (2, 5): ((5, Fraction(1, 2)),),
        (3, 4): ((5, Fraction(-1)),),
        (4, 5): ((6, Fraction(-25)),),
    }
    for i in range(1, 7):
        for j in range(1, 7):
            if (i, j) in expected:
                assert table[(i, j)] == expected[(i, j)]
            elif (j, i) in expected:
                want = tuple((k, -c) for k, c in expected[(j, i)])
                assert table[(i, j)] == want
            else:
                assert table[(i, j)] == ()


def test_closure_under_bracket():
    # every bracket of basis elements decomposes back into the basis span
    N = _basis(DEFAULT)
    for i in range(1, 7):
        for j in range(1, 7):
            br = bracket(N[i], N[j])
            constants, modes = decompose(br, DEFAULT)
            assert modes.is_zero()


def test_pretty_combination():
    assert pretty_combination(()) == "0"
    assert pretty_combination(((5, Fraction(1, 2)),)) == "1/2 · N5"
    assert pretty_combination(((1, Fraction(1)),)) == "1 · N1"
    assert (
        pretty_combination(((2, Fraction(-1)), (4, Fraction(3))))
        == "-1 · N2 + 3 · N4"
    )
    assert (
        pretty_combination(((2, 1), (4, -3), (6, Fraction(1, 2))))
        == "1 · N2 - 3 · N4 + 1/2 · N6"
    )


@given(const_tuples, const_tuples)
@settings(max_examples=20)
def test_gh_duality_on_family(cs1, cs2):
    M = family_member(cs1, [], DEFAULT)
    N = family_member(cs2, [], DEFAULT)
    left = gh_of(bracket(M, N))
    right = bracket_gh(M, N)
    assert left.g == right.g
    assert left.h == right.h


def test_gh_split():
    N5 = basis_isovector(5, DEFAULT)
    pair = gh_of(N5)
    assert pair.g.is_zero()
    assert str(pair.h) == "3/4"  # rtilde/sigma2 at the default model
    Nu = solution_isovector(SolutionSpec.mode_for(1, DEFAULT), DEFAULT)
    pair_u = gh_of(Nu)
    assert pair_u.h.is_zero()
    assert pair_u.g == SolutionSpec.mode_for(1, DEFAULT).to_exppoly()


def test_solution_brackets_vanish():
    Nu = solution_isovector(SolutionSpec.mode_for(1, DEFAULT), DEFAULT)
    Nv = solution_isovector(SolutionSpec.mode_for(2, DEFAULT), DEFAULT)
    br = bracket(Nu, Nv)
    assert all(c.is_zero() for c in br.components)


def test_bracket_with_solution_gives_solution():
    # the solution directions form an ideal: [basis, N_u] has no
    # (N^t, N^x, h) part and its g-part solves the equation
    Nu = solution_isovector(
        SolutionSpec.single(1, DEFAULT.r, 0) + SolutionSpec.mode_for(1, DEFAULT),
        DEFAULT,
    )
    for i in range(1, 7):
        br = bracket(basis_isovector(i, DEFAULT), Nu)
        assert in_solution_ideal(br, DEFAULT)


# -- error paths -------------------------------------------------------------


def test_decompose_rejects_outsiders():
    N = basis_isovector(1, DEFAULT)
    cubic = Isovector(
        (N.Nt * ExpPoly.var("t"), N.Nx, N.Nphi, N.NA, N.NB), name="bad"
    )
    with pytest.raises(NotInFamilyError) as info:
        decompose(cubic, DEFAULT)
    assert str(info.value) == (
        "component N^t mismatch: family form gives 0, input has -t^3"
    )

    off_model = basis_isovector(1, ZERO_RATE)
    with pytest.raises(NotInFamilyError) as info:
        decompose(off_model, DEFAULT)
    assert str(info.value) == (
        "component N^phi mismatch: family form gives -49/800*t^2*phi"
        " + 3/4*t*x*phi - 25/2*x^2*phi + 1/2*t*phi, input has -1/4*t^2*phi"
        " - 1/2*t*x*phi - 1/4*x^2*phi + 1/2*t*phi"
    )


T, X, PHI = ExpPoly.var("t"), ExpPoly.var("x"), ExpPoly.var("phi")
((_, A_ON, B_ON),) = SolutionSpec.mode_for(Fraction(1, 2), DEFAULT).modes
ON_CURVE = ExpPoly.term(1, a=A_ON, b=B_ON)


def perturbed_member(k, extra):
    """A family member with one more term in its k-th component."""
    N = isovector_from_constants(
        (1, -2, 3, Fraction(1, 2), -1, 2), SolutionSpec.mode_for(1, DEFAULT), DEFAULT)
    comps = list(N.components)
    comps[k] = comps[k] + extra
    return Isovector(tuple(comps))


# one outsider of each kind that a structural check used to catch
OUTSIDERS = {
    "N^t with x dependence": perturbed_member(0, X),
    "cubic N^t": perturbed_member(0, T * T * T),
    "mu not affine in t": perturbed_member(1, T * T),
    "C6 not constant": perturbed_member(2, T * PHI),
    "off-model N1": basis_isovector(1, ZERO_RATE),
    "g with a t*exp term": perturbed_member(2, T * ON_CURVE),
    "exp term in N^x": perturbed_member(1, ON_CURVE),
}


@pytest.mark.parametrize("kind", OUTSIDERS)
def test_decompose_rejects_every_kind_of_outsider(kind):
    with pytest.raises(NotInFamilyError, match=r"^component N\^(t|x|phi|A|B) mismatch: "):
        decompose(OUTSIDERS[kind], DEFAULT)


def test_decompose_rejects_an_off_curve_mode():
    off_curve = isovector_from_generator(ExpPoly.term(1, a=1, b=1))
    with pytest.raises(DispersionError):
        decompose(off_curve, DEFAULT)


def test_isovector_from_constants_validates_length():
    with pytest.raises(ValueError):
        isovector_from_constants((1, 2, 3), SolutionSpec(), DEFAULT)


def test_basis_index_validated():
    with pytest.raises(ValueError):
        basis_isovector(0, DEFAULT)
    with pytest.raises(ValueError):
        basis_isovector(7, DEFAULT)


# -- exact scalars only --------------------------------------------------------


def test_isovector_from_constants_rejects_floats():
    # 0.1 would enter as a C1 over 2^55
    with pytest.raises(TypeError, match="exact scalar required"):
        isovector_from_constants([0.1, 0, 0, 0, 0, 0], SolutionSpec(), DEFAULT)
    assert isovector_from_constants(["1/10", 0, 0, 0, 0, 0], SolutionSpec(), DEFAULT) == (
        Fraction(1, 10) * basis_isovector(1, DEFAULT))


def test_single_mode_rejects_floats():
    with pytest.raises(TypeError, match="exact scalar required"):
        SolutionSpec.single(1, 0.25, 0)
    assert SolutionSpec.single(1, "1/4", 0).modes == ((1, Fraction(1, 4), 0),)


def test_mode_for_rejects_floats():
    with pytest.raises(TypeError, match="exact scalar required"):
        SolutionSpec.mode_for(0.5, DEFAULT)
    with pytest.raises(TypeError, match="exact scalar required"):
        SolutionSpec.mode_for(1, DEFAULT, coeff=2.0)
    assert SolutionSpec.mode_for("1/2", DEFAULT) == SolutionSpec.mode_for(Fraction(1, 2), DEFAULT)


@pytest.mark.parametrize("decimal", ["0.05", "1e-2"])
def test_exact_entry_points_read_strings_as_p_over_q(decimal):
    # a decimal string is rejected as parse_rational rejects it, not read as
    # the Fraction 1/20 or 1/100; a spaced "p/q" is still accepted
    builders = [
        lambda v: make_context(v, "1/25"),
        lambda v: make_context("1/20", v),
        lambda v: isovector_from_constants([v, 0, 0, 0, 0, 0], SolutionSpec(), DEFAULT),
        lambda v: SolutionSpec.single(v, 0, 0),
        lambda v: SolutionSpec.single(1, v, 0),
        lambda v: ExpPoly.constant(v),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="not a rational"):
            build(decimal)
    assert make_context(" 1/20 ", " 1/25 ") == DEFAULT
    assert isovector_from_constants([" 1/20 ", 0, 0, 0, 0, 0], SolutionSpec(), DEFAULT) == (
        Fraction(1, 20) * basis_isovector(1, DEFAULT))
    assert SolutionSpec.single(" 1/20 ", " 1/20 ", 0).modes == (
        (Fraction(1, 20), Fraction(1, 20), 0),)
    assert ExpPoly.constant(" 1/20 ") == ExpPoly.constant(Fraction(1, 20))


# -- what is built once, and what is shared --------------------------------------


def test_basis_is_one_object_per_context():
    ctx = make_context(Fraction(3, 7), Fraction(5, 11))
    twin = make_context(Fraction(3, 7), Fraction(5, 11))
    assert twin == ctx
    for i in range(1, 7):
        assert basis_isovector(i, ctx) is basis_isovector(i, ctx)
        # an equal context shares nothing, but builds the same field
        assert basis_isovector(i, twin) is not basis_isovector(i, ctx)
        assert basis_isovector(i, twin) == basis_isovector(i, ctx)


def test_structure_constants_reuses_the_callers_fields(monkeypatch):
    ctx = make_context(Fraction(3, 7), Fraction(5, 11))
    basis = [basis_isovector(i, ctx) for i in range(1, 7)]
    seen = []
    real = isovectors.bracket
    monkeypatch.setattr(isovectors, "bracket", lambda M, N: seen.append((M, N)) or real(M, N))
    table = structure_constants(ctx)
    assert len(seen) == 15
    assert all(M is basis[i - 1] and N is basis[j - 1]
               for (M, N), (i, j) in zip(seen, itertools.combinations(range(1, 7), 2)))
    assert table == structure_constants(make_context(Fraction(3, 7), Fraction(5, 11)))


def test_structural_forms_are_built_once_per_context(monkeypatch):
    calls = []
    real = forms.structural_forms
    monkeypatch.setattr(forms, "structural_forms",
                        lambda ctx: calls.append(ctx) or real(ctx))
    ctx = make_context(1, 2)
    assert all(verify_isovector(basis_isovector(i, ctx), ctx).passed for i in range(1, 7))
    assert len(calls) == 1
    # the ideal solve and the defect read the same beta
    assert ideal_membership(real(ctx)[2], ctx).in_ideal
    mode = SolutionSpec.mode_for(1, ctx)
    assert pde_defect(mode.to_exppoly(), ctx).is_zero()
    assert in_solution_ideal(solution_isovector(mode, ctx), ctx)
    assert len(calls) == 1
    twin = make_context(1, 2)
    assert verify_isovector(basis_isovector(1, twin), twin).passed
    assert calls == [ctx, twin] and calls[1] is twin


def test_gh_of_raises_on_every_call_without_a_split():
    zero, phi = ExpPoly.zero(), ExpPoly.var("phi")
    for nphi, match in ((phi * phi, "not affine"), (ExpPoly.var("A"), "involves A")):
        N = Isovector((zero, zero, nphi, zero, zero))
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                gh_of(N)
    N5 = basis_isovector(5, DEFAULT)
    assert gh_of(N5) is gh_of(N5)


# -- the exact layer against per-pair oracles ---------------------------------

# drawn model points (r, sigma2); the first example is rtilde = 0
rates = st.fractions(min_value=Fraction(-1), max_value=Fraction(1), max_denominator=10)
variances = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(3), max_denominator=10
)
nonzero_consts = consts.filter(lambda c: c != 0)
weighted_modes = st.lists(
    st.tuples(nonzero_consts, st.fractions(
        min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4)),
    max_size=2,
    unique_by=lambda mode: mode[1],
)


def member_at(ctx: ModelContext, constants, c6, modes) -> Isovector:
    """A family member with C6 != 0 and modes that satisfy the dispersion."""
    spec = SolutionSpec()
    for coeff, b in modes:
        spec = spec + SolutionSpec.mode_for(b, ctx, coeff=coeff)
    return isovector_from_constants((*constants[:5], c6), spec, ctx)


def commutator_by_hand(M: Isovector, N: Isovector) -> tuple:
    """M(N^v) - N(M^v) with every derivative taken afresh."""

    def act(P, f):
        out = ExpPoly.zero()
        for comp, var in zip(P.components, VARS):
            out = out + comp * f.diff(var)
        return out

    return tuple(act(M, nc) - act(N, mc) for mc, nc in zip(M.components, N.components))


@given(rates, variances)
@example(Fraction(1), Fraction(2))
@settings(max_examples=15)
def test_structure_constants_match_every_ordered_pair(r, sigma2):
    ctx = make_context(r, sigma2)
    basis = _basis(ctx)
    expected = {}
    for i in range(1, 7):
        for j in range(1, 7):
            constants, spec = decompose(bracket(basis[i], basis[j]), ctx)
            assert spec.is_zero()
            expected[(i, j)] = tuple(
                (k + 1, c) for k, c in enumerate(constants) if c != 0
            )
    table = structure_constants(ctx)
    assert list(table) == list(expected)  # row-major key order
    assert table == expected


@given(rates, variances, const_tuples, nonzero_consts, weighted_modes,
       const_tuples, nonzero_consts, weighted_modes)
@example(Fraction(1), Fraction(2), (1, 0, 0, 0, 1, 0), 1, [(1, 1)],
         (0, 1, 0, 1, 0, 0), -1, [(2, -1)])
@settings(max_examples=25)
def test_bracket_matches_the_derivation_rule(r, sigma2, cs1, c6m, modes1, cs2, c6n, modes2):
    ctx = make_context(r, sigma2)
    M = member_at(ctx, cs1, c6m, modes1)
    N = member_at(ctx, cs2, c6n, modes2)
    want = commutator_by_hand(M, N)
    assert bracket(M, N).components == want
    # the derivative tables cached by the first bracket give the same answer
    assert bracket(M, N).components == want
    assert bracket(N, M).components == tuple(-c for c in want)


@given(rates, variances, const_tuples, nonzero_consts, weighted_modes)
@example(Fraction(1), Fraction(2), (1, -1, 2, 1, -1, 0), 3, [(1, 1), (2, -1)])
@settings(max_examples=25)
def test_decompose_round_trips_members(r, sigma2, constants, c6, modes):
    ctx = make_context(r, sigma2)
    N = member_at(ctx, constants, c6, modes)
    got_constants, spec = decompose(N, ctx)
    assert got_constants == tuple(Fraction(c) for c in (*constants[:5], c6))
    assert sorted(spec.modes) == sorted(
        mode for coeff, b in modes
        for mode in SolutionSpec.mode_for(b, ctx, coeff=coeff).modes
    )
    assert isovector_from_constants(got_constants, spec, ctx) == N


@pytest.mark.parametrize("sigma2,down_rate", [
    (Fraction(2), Fraction(-2)),
    (Fraction(1, 25), Fraction(-1, 25)),
])
def test_decompose_reads_the_constant_mode_at_zero_rate(sigma2, down_rate):
    # at r = 0 the bond mode (c, 0, 0) has no exponential: it sits among F's
    # plain terms, next to the monomials that carry C1..C6
    ctx = make_context(0, sigma2)
    constants = (1, Fraction(-1, 2), 2, Fraction(1, 3), -1, Fraction(5, 7))
    bond = SolutionSpec.single(Fraction(3, 4), 0, 0)
    up = SolutionSpec.mode_for(1, ctx, coeff=-2)  # a = 0 at b = 1
    down = SolutionSpec.mode_for(-1, ctx, coeff=5)
    N = isovector_from_constants(constants, down + bond + up, ctx)
    got_constants, spec = decompose(N, ctx)
    assert got_constants == tuple(map(Fraction, constants))
    # the modes in descending (a, b) order, the bond between the other two
    assert spec.modes == ((-2, 0, 1), (Fraction(3, 4), 0, 0), (5, down_rate, -1))


def test_decompose_names_the_mismatched_component():
    modes = SolutionSpec.mode_for(Fraction(1, 2), DEFAULT, coeff=3)
    N = isovector_from_constants(
        (1, Fraction(-1, 2), 2, Fraction(1, 3), -1, Fraction(5, 7)), modes, DEFAULT
    )
    ((_, a, b),) = modes.modes
    for var, k, extra in (("A", 3, ExpPoly.var("A")), ("B", 4, -ExpPoly.term(1, a=a, b=b))):
        comps = list(N.components)
        comps[k] = comps[k] + extra
        with pytest.raises(NotInFamilyError) as info:
            decompose(Isovector(tuple(comps)), DEFAULT)
        assert str(info.value) == (
            f"component N^{var} mismatch: family form gives {N.components[k]}, "
            f"input has {comps[k]}"
        )


# rationals of the heights algebra-sweep draws, up to 10^9 over 10^9
HEIGHTS = (10, 10**3, 10**6, 10**9)


@st.composite
def tall_fractions(draw, lo=None):
    h = draw(st.sampled_from(HEIGHTS))
    return Fraction(draw(st.integers(-h if lo is None else lo, h)), draw(st.integers(1, h)))


@st.composite
def tall_points(draw):
    """(r, sigma2) drawn as algebra-sweep draws its seeded points."""
    return make_context(draw(tall_fractions(lo=0)) / 10, draw(tall_fractions(lo=1)) / 5)


tall_members = st.tuples(
    st.tuples(*(tall_fractions() for _ in range(6))),
    tall_fractions().filter(bool),
    st.lists(st.tuples(tall_fractions().filter(bool), st.sampled_from(
        [Fraction(b, q) for b in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3, 4)])),
        max_size=2, unique_by=lambda mode: mode[1]),
)


@given(tall_points(), tall_members, tall_members)
@settings(max_examples=25, deadline=None)
def test_bracket_matches_the_derivation_rule_at_tall_rationals(ctx, m, n):
    M, N = member_at(ctx, *m), member_at(ctx, *n)
    want = commutator_by_hand(M, N)
    got = bracket(M, N).components
    assert got == want
    assert [hash(c) for c in got] == [hash(c) for c in want]
    assert bracket(N, M).components == tuple(-c for c in want)
