"""Exact exponential-polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bssym.exppoly import VARS, ExpPoly

coeffs = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=40
)
small_exps = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in VARS))
exp_sigs = st.tuples(
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4),
)


@st.composite
def exppolys(draw, max_terms=4, with_exp=True):
    p = ExpPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        sig = draw(exp_sigs) if with_exp else (0, 0)
        p = p + ExpPoly.term(draw(coeffs), draw(small_exps), *sig)
    return p


polys = exppolys()
pure_polys = exppolys(with_exp=False)


def test_constructors_and_predicates():
    assert ExpPoly.zero().is_zero()
    assert ExpPoly.one().is_constant()
    assert ExpPoly.constant(Fraction(3, 7)).constant_value() == Fraction(3, 7)
    x = ExpPoly.var("x")
    assert x.depends_on("x") and not x.depends_on("t")
    assert x.degree_in("x") == 1
    assert ExpPoly.exp_factor(1, 2).depends_on("t")
    assert not ExpPoly.exp_factor(0, 2).depends_on("t")
    assert ExpPoly.var("phi").is_polynomial()
    assert not ExpPoly.exp_factor(1, 0).is_polynomial()


def test_var_rejects_unknown_name():
    with pytest.raises(ValueError):
        ExpPoly.var("y")


def test_floats_rejected():
    with pytest.raises(TypeError):
        ExpPoly.var("x") * 0.5
    with pytest.raises(TypeError):
        ExpPoly.var("x") + 0.5


@given(polys, polys, polys)
def test_ring_laws(p, q, w):
    assert p + q == q + p
    assert (p + q) + w == p + (q + w)
    assert p * q == q * p
    assert (p * q) * w == p * (q * w)
    assert p * (q + w) == p * q + p * w
    assert p + ExpPoly.zero() == p
    assert p * ExpPoly.one() == p
    assert (p - p).is_zero()


@given(polys, polys)
def test_diff_is_a_derivation(p, q):
    for name in ("t", "x", "phi"):
        left = (p * q).diff(name)
        right = p.diff(name) * q + p * q.diff(name)
        assert left == right


@given(polys)
def test_mixed_partials_commute(p):
    assert p.diff("t").diff("x") == p.diff("x").diff("t")


def test_exp_factors_multiply_by_adding_signatures():
    e1 = ExpPoly.exp_factor(Fraction(1, 2), 1)
    e2 = ExpPoly.exp_factor(Fraction(1, 2), -1)
    assert e1 * e2 == ExpPoly.exp_factor(1, 0)
    # d/dt e^{at+bx} = a e^{at+bx}
    assert e1.diff("t") == ExpPoly.constant(Fraction(1, 2)) * e1
    assert e1.diff("x") == e1


def test_power():
    x = ExpPoly.var("x")
    assert x**0 == ExpPoly.one()
    assert x**3 == x * x * x
    with pytest.raises(ValueError):
        x ** (-1)


@given(pure_polys, coeffs)
def test_substitute_matches_evaluation(p, value):
    q = p.substitute("x", value)
    assert not q.depends_on("x")
    point = {"t": Fraction(2, 3), "x": value, "phi": Fraction(-1, 7),
             "A": Fraction(1, 9), "B": Fraction(4)}
    assert p.evaluate_exact(**point) == q.evaluate_exact(**point)


def test_substitute_rejects_exponential_dependence():
    p = ExpPoly.exp_factor(0, 1)
    with pytest.raises(ValueError):
        p.substitute("x", Fraction(1))


@given(pure_polys)
def test_evaluate_agrees_with_exact(p):
    point = {"t": Fraction(1, 3), "x": Fraction(-2, 5), "phi": Fraction(7, 2),
             "A": Fraction(0), "B": Fraction(5, 4)}
    exact = p.evaluate_exact(**point)
    approx = float(p.eval_grid(**{k: float(v) for k, v in point.items()}))
    assert approx == pytest.approx(float(exact), rel=1e-12, abs=1e-12)


def test_eval_grid_broadcasts():
    import numpy as np

    p = ExpPoly.term(Fraction(2), (1, 1, 0, 0, 0)) + ExpPoly.exp_factor(0, 1)
    t = np.asarray([[0.0], [1.0]])
    x = np.asarray([[1.0, 2.0]])
    got = p.eval_grid(t, x)
    want = 2.0 * t * x + np.exp(x)
    assert np.allclose(got, want, rtol=1e-14)


def test_coeff_of_extracts_polynomial_coefficients():
    x, B = ExpPoly.var("x"), ExpPoly.var("B")
    p = ExpPoly.constant(3) * x * x * B + x * B - ExpPoly.constant(5)
    assert p.coeff_of("x", 2) == ExpPoly.constant(3) * B
    assert p.coeff_of("x", 1) == B
    assert p.coeff_of("x", 0) == ExpPoly.constant(-5)
    assert p.degree_in("B") == 1


def test_string_rendering():
    phi, A, B = ExpPoly.var("phi"), ExpPoly.var("A"), ExpPoly.var("B")
    p = B + ExpPoly.constant(Fraction(3, 100)) * A - ExpPoly.constant(Fraction(1, 20)) * phi
    assert str(p) == "-1/20*phi + 3/100*A + B"
    assert str(ExpPoly.zero()) == "0"
    assert str(ExpPoly.exp_factor(Fraction(1, 20), 0)) == "exp(1/20*t)"
    q = ExpPoly.term(Fraction(-1, 2), (0, 1, 0, 0, 0), 0, 2)
    assert str(q) == "-1/2*x*exp(2*x)"


def test_evaluate_exact_requires_vanishing_exponent():
    p = ExpPoly.exp_factor(1, -1)
    # exponent t - x vanishes on the diagonal, exact evaluation is rational
    assert p.evaluate_exact(t=Fraction(2), x=Fraction(2), phi=0, A=0, B=0) == 1
    with pytest.raises(ValueError):
        p.evaluate_exact(t=Fraction(1), x=Fraction(0), phi=0, A=0, B=0)
