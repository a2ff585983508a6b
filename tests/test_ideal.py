"""Membership solve for the ideal spanned by the structural forms."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import MODEL_POINTS, NEGATIVE_RATE

import bssym.forms as forms
from bssym.exppoly import VARS, ExpPoly
from bssym.forms import DiffForm, structural_forms, wedge
from bssym.ideal import ideal_membership
from bssym.isovectors import pde_defect
from bssym.model import make_context

DEFAULT = make_context(Fraction(1, 20), Fraction(1, 25))
# the acceptance model points and a negative rate
CONTEXTS = [make_context(r, sigma2) for r, sigma2 in (*MODEL_POINTS, NEGATIVE_RATE)]

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


@st.composite
def two_forms(draw):
    form = DiffForm(2)
    names = ("dt", "dx", "dphi", "dA", "dB")
    for i in range(5):
        for j in range(i + 1, 5):
            f = draw(functions(max_terms=1))
            form = form + wedge(
                DiffForm.covector(names[i]), DiffForm.covector(names[j])
            ) * f
    return form


def rho_of(cert) -> DiffForm:
    """The 1-form multiplier of alpha, with no dphi component."""
    return DiffForm(1, {(0,): cert.R1, (1,): cert.R2, (3,): cert.R3, (4,): cert.R4})


def reconstruct(cert, triple) -> DiffForm:
    """Rebuild rho ^ alpha + xi dalpha + omega beta from the multipliers and
    the structural forms (alpha, dalpha, beta)."""
    alpha, dalpha, beta = triple
    return wedge(rho_of(cert), alpha) + dalpha * cert.R5 + beta * cert.R6


def test_generators_belong_to_the_ideal():
    alpha, dalpha, beta = structural_forms(DEFAULT)
    cert = ideal_membership(dalpha, DEFAULT)
    assert cert.in_ideal
    assert cert.R5 == ExpPoly.one()
    assert cert.R6.is_zero()
    assert rho_of(cert).is_zero()

    cert = ideal_membership(beta, DEFAULT)
    assert cert.in_ideal
    assert cert.R6 == ExpPoly.one()
    assert cert.R5.is_zero()
    assert rho_of(cert).is_zero()


# each drawn form is tested at every model point
@given(one_forms())
def test_alpha_multiples_belong(rho):
    for ctx in CONTEXTS:
        triple = structural_forms(ctx)
        gamma = wedge(rho, triple[0])
        cert = ideal_membership(gamma, ctx)
        assert cert.in_ideal
        assert reconstruct(cert, triple) == gamma


@given(one_forms(), functions(), functions())
def test_membership_is_complete_on_true_members(rho, xi, omega):
    for ctx in CONTEXTS:
        triple = alpha, dalpha, beta = structural_forms(ctx)
        gamma = wedge(rho, alpha) + dalpha * xi + beta * omega
        cert = ideal_membership(gamma, ctx)
        assert cert.in_ideal
        assert reconstruct(cert, triple) == gamma


@given(two_forms())
def test_certificate_identity_always_holds(gamma):
    # gamma = rho^alpha + xi dalpha + omega beta + remainder, member or not
    for ctx in CONTEXTS:
        cert = ideal_membership(gamma, ctx)
        assert reconstruct(cert, structural_forms(ctx)) + cert.remainder == gamma


# Vasicek's bond equation P_t + (s2/2) P_xx + k (theta - x) P_x - x P = 0
VASICEK_K, VASICEK_THETA, VASICEK_S2 = Fraction(3, 2), Fraction(1, 10), Fraction(1, 5)


def vasicek_forms(ctx):
    """alpha, dalpha and the beta of Vasicek's equation, whatever ctx is."""
    alpha, dalpha, _ = structural_forms(ctx)
    x, phi, A, B = (ExpPoly.var(name) for name in ("x", "phi", "A", "B"))
    minus_eq = x * phi - VASICEK_K * (VASICEK_THETA - x) * A - B
    beta = DiffForm(2, {(0, 1): minus_eq, (0, 3): ExpPoly.constant(-VASICEK_S2 / 2)})
    return alpha, dalpha, beta


def test_the_equation_is_read_off_beta(monkeypatch):
    # the solve and the defect know the equation only through the context's
    # beta: with another linear equation's beta they decide its ideal and
    # give its operator
    monkeypatch.setattr(forms, "structural_forms", vasicek_forms)
    ctx = make_context(Fraction(1, 20), Fraction(1, 25))
    triple = alpha, dalpha, beta = vasicek_forms(ctx)
    t, x = ExpPoly.var("t"), ExpPoly.var("x")
    dt, dx, dA = (DiffForm.covector(name) for name in ("dt", "dx", "dA"))
    rho = dA * x + dt * t
    for gamma in (beta, wedge(rho, alpha) + dalpha * t + beta * (x * x)):
        cert = ideal_membership(gamma, ctx)
        assert cert.in_ideal
        assert reconstruct(cert, triple) == gamma
    # non-members, the Black-Scholes beta of the same (r, sigma2) among them
    for gamma in (structural_forms(ctx)[2], wedge(dx, dt) * x, wedge(dt, dA) * t):
        cert = ideal_membership(gamma, ctx)
        assert not cert.in_ideal
        assert reconstruct(cert, triple) + cert.remainder == gamma

    for g in (x * x * t, ExpPoly.exp_factor(Fraction(1, 3), -2) * x + t):
        gx = g.diff("x")
        reference = (g.diff("t") + VASICEK_S2 / 2 * gx.diff("x")
                     + VASICEK_K * (VASICEK_THETA - x) * gx - x * g)
        assert pde_defect(g, ctx) == reference


def test_dx_dt_is_not_a_member():
    gamma = wedge(DiffForm.covector("dx"), DiffForm.covector("dt"))
    cert = ideal_membership(gamma, DEFAULT)
    assert not cert.in_ideal
    assert str(cert.remainder) == "dx^dt"


def test_remainder_lives_in_check_slots_only():
    gamma = wedge(DiffForm.covector("dphi"), DiffForm.covector("dB"))
    cert = ideal_membership(gamma, DEFAULT)
    blocked = [(0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4)]
    for slot in blocked:
        assert cert.remainder.coeff(slot).is_zero()


def test_rho_is_normalized_without_dphi():
    alpha, dalpha, beta = structural_forms(DEFAULT)
    rho = DiffForm.covector("dphi") * ExpPoly.var("t") + DiffForm.covector("dx")
    gamma = wedge(rho, alpha)
    cert = ideal_membership(gamma, DEFAULT)
    assert cert.in_ideal
    assert rho_of(cert).coeff((2,)).is_zero()


def test_degree_validation():
    with pytest.raises(ValueError):
        ideal_membership(DiffForm.covector("dx"), DEFAULT)
    with pytest.raises(ValueError):
        ideal_membership(DiffForm(0, {(): ExpPoly.one()}), DEFAULT)


def test_json_shape():
    _, dalpha, _ = structural_forms(DEFAULT)
    obj = ideal_membership(dalpha, DEFAULT).to_json()
    assert obj["status"] == "decided"
    assert obj["in_ideal"] is True
    assert obj["multipliers"]["R5"] == "1"
    assert obj["remainder"] == "0"
