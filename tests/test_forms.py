"""Differential forms on the five-jet and the structural forms."""

import copy
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bssym.exppoly import VARS, ExpPoly
from bssym.forms import DiffForm, _sorted_sign, contract, lie_derivative, structural_forms
from bssym.isovectors import basis_isovector, Isovector
from bssym.model import make_context

coeffs = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=20
)


@st.composite
def functions(draw, max_terms=3):
    p = ExpPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = draw(st.tuples(*(st.integers(0, 2) for _ in VARS)))
        p = p + ExpPoly.term(draw(coeffs), exps)
    return p


@st.composite
def one_forms(draw):
    form = DiffForm(1)
    for name in ("dt", "dx", "dphi", "dA", "dB"):
        form = form + DiffForm.covector(name) * draw(functions())
    return form


contexts = st.builds(
    make_context,
    st.fractions(min_value=Fraction(0), max_value=Fraction(3), max_denominator=100),
    st.fractions(
        min_value=Fraction(1, 100), max_value=Fraction(4), max_denominator=100
    ),
)

DEFAULT = make_context(Fraction(1, 20), Fraction(1, 25))


@given(one_forms(), one_forms())
def test_wedge_antisymmetry(u, v):
    assert u.wedge(v) == -v.wedge(u)
    assert u.wedge(u).is_zero()


@given(one_forms(), one_forms(), one_forms())
def test_wedge_associativity_and_linearity(u, v, w):
    assert u.wedge(v).wedge(w) == u.wedge(v.wedge(w))
    assert (u + v).wedge(w) == u.wedge(w) + v.wedge(w)


@given(functions())
def test_d_squared_zero_on_functions(f):
    df = DiffForm(0, {(): f}).d()
    assert df.d().is_zero()


@given(one_forms())
def test_d_squared_zero_on_one_forms(u):
    assert u.d().d().is_zero()


@given(functions(), one_forms())
def test_leibniz_rule(f, u):
    # d(f u) = df ^ u + f du
    left = (u * f).d()
    df = DiffForm(0, {(): f}).d()
    right = df.wedge(u) + u.d() * f
    assert left == right


def test_degree_bounds():
    dt = DiffForm.covector("dt")
    top = dt.wedge(
        DiffForm.covector("dx").wedge(
            DiffForm.covector("dphi").wedge(
                DiffForm.covector("dA").wedge(DiffForm.covector("dB"))
            )
        )
    )
    assert top.degree == 5
    assert top.wedge(dt).is_zero()


def test_contact_form_strings():
    alpha, dalpha, beta = structural_forms(DEFAULT)
    assert str(alpha) == "-B*dt - A*dx + dphi"
    assert str(dalpha) == "-dA^dx - dB^dt"
    assert str(beta) == "(-1/20*phi + 3/100*A + B)*dx^dt + 1/50*dA^dt"
    assert str(DiffForm(2)) == "0"
    assert str(DiffForm(0)) == "0"
    t, A = ExpPoly.var("t"), ExpPoly.var("A")
    assert str(DiffForm(1, {(0,): t - 1, (1,): -A})) == "(t - 1)*dt - A*dx"


@given(contexts)
def test_dalpha_is_context_free(ctx):
    alpha, dalpha, _ = structural_forms(ctx)
    assert alpha.d() == dalpha
    dx, dA = DiffForm.covector("dx"), DiffForm.covector("dA")
    dt, dB = DiffForm.covector("dt"), DiffForm.covector("dB")
    assert dalpha == dx.wedge(dA) + dt.wedge(dB)


@given(contexts)
def test_dbeta_structural_identity(ctx):
    # d(beta) recombines into the contact forms: no new generators appear
    alpha, dalpha, beta = structural_forms(ctx)
    dt, dx = DiffForm.covector("dt"), DiffForm.covector("dx")
    rt = ExpPoly.constant(ctx.rtilde)
    shift = dx - dt * rt
    expected = dalpha.wedge(shift) - alpha.wedge(dx).wedge(dt) * ExpPoly.constant(
        ctx.r
    )
    assert beta.d() == expected


def test_contraction_of_generic_vector_into_dalpha():
    # N _| (dx^dA + dt^dB) = N^x dA - N^A dx + N^t dB - N^B dt
    comps = tuple(
        ExpPoly.term(Fraction(k + 1), exps)
        for k, exps in enumerate(
            [(1, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 0, 2),
             (1, 1, 1, 1, 1)]
        )
    )
    N = Isovector(comps, name="generic")
    _, dalpha, _ = structural_forms(DEFAULT)
    got = contract(N, dalpha)
    want = (
        DiffForm.covector("dA") * N.Nx
        - DiffForm.covector("dx") * N.NA
        + DiffForm.covector("dB") * N.Nt
        - DiffForm.covector("dt") * N.NB
    )
    assert got == want


@given(functions())
def test_lie_derivative_on_functions_is_directional(f):
    N = basis_isovector(2, DEFAULT)
    form = DiffForm(0, {(): f})
    got = lie_derivative(N, form)
    want = ExpPoly.zero()
    for comp, var in zip(N.components, VARS):
        want = want + comp * f.diff(var)
    assert got.coeff(()) == want


rates = st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4)


@st.composite
def exp_functions(draw, max_terms=3):
    """Like `functions`, with an exponential factor exp(a*t + b*x) per term."""
    p = ExpPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = draw(st.tuples(*(st.integers(0, 2) for _ in VARS)))
        p = p + ExpPoly.term(draw(coeffs), exps, a=draw(rates), b=draw(rates))
    return p


@st.composite
def forms_of_degree_0_to_3(draw):
    degree = draw(st.integers(0, 3))
    keys = list(itertools.combinations(range(len(VARS)), degree))
    return DiffForm(degree, {key: draw(exp_functions(max_terms=2)) for key in keys})


def cartan(N, u):
    """L_N u = N _| du + d(N _| u); a 0-form has no second term."""
    want = contract(N, u.d())
    return want + contract(N, u).d() if u.degree else want


@given(forms_of_degree_0_to_3(), st.tuples(*(exp_functions(max_terms=2) for _ in VARS)))
def test_cartan_formula_consistency(u, comps):
    u_before, comps_before = copy.deepcopy(u), copy.deepcopy(comps)
    hashes = hash(u), [hash(c) for c in comps]
    N = Isovector(comps)
    N._jacobian  # the one-pass route reads the cached table as it stands
    for field in (comps, N, basis_isovector(4, DEFAULT)):
        assert lie_derivative(field, u) == cartan(field, u)
    # ExpPoly groups are shared between results, never changed in place
    assert u == u_before and comps == comps_before
    assert (hash(u), [hash(c) for c in comps]) == hashes


def test_lie_derivative_of_the_structural_forms_matches_cartan():
    alpha, dalpha, beta = structural_forms(DEFAULT)
    for i in range(1, 7):
        N = basis_isovector(i, DEFAULT)
        for u in (alpha, dalpha, beta):
            assert lie_derivative(N, u) == cartan(N, u)


def _cycle_sign(idx):
    """The sign of the permutation that sorts distinct idx, (-1)^(n - cycles)."""
    order = sorted(range(len(idx)), key=idx.__getitem__)
    seen, cycles = set(), 0
    for start in range(len(idx)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = order[start]
    return -1 if (len(idx) - cycles) % 2 else 1


def test_sorted_sign_against_cycle_decomposition():
    # lie_derivative and d both sign through _sorted_sign, so the Cartan
    # oracle alone cannot see a slip in it: check it independently, on every
    # tuple of 0-5 indices from 0..4
    tuples = [idx for n in range(6) for idx in itertools.product(range(5), repeat=n)]
    assert len(tuples) == 3906
    for idx in tuples:
        if len(set(idx)) < len(idx):
            assert _sorted_sign(idx) is None, idx
        else:
            assert _sorted_sign(idx) == (tuple(sorted(idx)), _cycle_sign(idx)), idx


def test_coeff_lookup_by_name_and_index():
    _, dalpha, _ = structural_forms(DEFAULT)
    assert dalpha.coeff(("dx", "dA")) == ExpPoly.one()
    assert dalpha.coeff((1, 3)) == ExpPoly.one()
    assert dalpha.coeff(("dA", "dx")) == -ExpPoly.one()
    assert dalpha.coeff(("dx", "dphi")).is_zero()


def test_coeff_rejects_a_key_that_names_no_slot():
    _, _, beta = structural_forms(DEFAULT)
    for key in (("dx",), ("dx", "dt", "dA"), (), (7, 9), (1, 5), (-1, 2), ("dx", "dz")):
        with pytest.raises(ValueError):
            beta.coeff(key)
    # a repeated covector is a slot of the right length; its coefficient is 0
    assert beta.coeff(("dx", "dx")).is_zero()
    assert beta.coeff((1, 1)).is_zero()
    assert beta.coeff(("dt", "dx")) == -beta.coeff(("dx", "dt"))


def test_coeff_takes_integer_indices_only():
    _, _, beta = structural_forms(DEFAULT)
    # 0.9 is not read as 0: a float index names no slot
    with pytest.raises(TypeError):
        beta.coeff((0.9, 1))
    assert beta.coeff((np.int64(1), np.int64(0))) == beta.coeff(("dx", "dt"))
