"""Membership solve for the ideal spanned by the structural forms."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bssym.exppoly import VARS, ExpPoly
from bssym.forms import DiffForm, structural_forms, wedge
from bssym.ideal import ideal_membership
from bssym.model import make_context

DEFAULT = make_context(Fraction(1, 20), Fraction(1, 25))

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


def reconstruct(cert, ctx) -> DiffForm:
    """Rebuild rho ^ alpha + xi dalpha + omega beta from the multipliers."""
    alpha, dalpha, beta = structural_forms(ctx)
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


@given(one_forms())
def test_alpha_multiples_belong(rho):
    alpha, _, _ = structural_forms(DEFAULT)
    gamma = wedge(rho, alpha)
    cert = ideal_membership(gamma, DEFAULT)
    assert cert.in_ideal
    assert reconstruct(cert, DEFAULT) == gamma


@given(one_forms(), functions(), functions())
def test_membership_is_complete_on_true_members(rho, xi, omega):
    alpha, dalpha, beta = structural_forms(DEFAULT)
    gamma = wedge(rho, alpha) + dalpha * xi + beta * omega
    cert = ideal_membership(gamma, DEFAULT)
    assert cert.in_ideal
    assert reconstruct(cert, DEFAULT) == gamma


@given(two_forms())
def test_certificate_identity_always_holds(gamma):
    # gamma = rho^alpha + xi dalpha + omega beta + remainder, member or not
    cert = ideal_membership(gamma, DEFAULT)
    assert reconstruct(cert, DEFAULT) + cert.remainder == gamma


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
