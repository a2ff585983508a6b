"""Model context and rational parsing."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bssym.model import ModelContext, make_context, parse_rational

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=1000
)
positive_rationals = st.fractions(
    min_value=Fraction(1, 1000), max_value=Fraction(1000), max_denominator=1000
)


def test_parse_rational_basic():
    assert parse_rational("1/20") == Fraction(1, 20)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(" 2 / 50 ") == Fraction(1, 25)


@pytest.mark.parametrize("bad", ["1/0", "", "a/b", "1/2/3", "1.5", "0x3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(str(q)) == q


@given(rationals, positive_rationals)
def test_drift_identities(r, sigma2):
    ctx = make_context(r, sigma2)
    # the shifted drifts bracket the rate symmetrically
    assert ctx.rtilde == r - sigma2 / 2
    assert ctx.stilde == r + sigma2 / 2
    assert ctx.rtilde + ctx.sigma2 / 2 == ctx.r
    assert ctx.stilde - ctx.rtilde == ctx.sigma2


def test_default_context_values():
    ctx = make_context(Fraction(1, 20), Fraction(1, 25))
    assert ctx.rtilde == Fraction(3, 100)
    assert ctx.stilde == Fraction(7, 100)
    # squared Sharpe-like ratio used by the quadratic flow prefactor
    assert ctx.stilde**2 / (2 * ctx.sigma2) == Fraction(49, 800)


def test_context_float_views():
    ctx = make_context(Fraction(1, 20), Fraction(1, 25))
    assert ctx.r_f == 0.05
    assert ctx.sigma2_f == 0.04
    assert math.isclose(ctx.sigma_f, 0.2)
    assert ctx.rtilde_f == 0.03


def test_sigma2_must_be_positive():
    with pytest.raises(ValueError):
        make_context(Fraction(1, 20), Fraction(0))
    with pytest.raises(ValueError):
        make_context(Fraction(1, 20), Fraction(-1, 4))
    # the type holds the invariant: the membership solve divides by sigma2/2
    with pytest.raises(ValueError, match="sigma2 must be positive, got 0"):
        ModelContext(r=Fraction(1, 20), sigma2=Fraction(0))


def test_context_derives_rtilde_and_stilde():
    # the derived constants cannot be passed in, so they cannot disagree
    # with (r, sigma2)
    with pytest.raises(TypeError):
        ModelContext(r=Fraction(1, 20), sigma2=Fraction(1, 25), rtilde=Fraction(7))
    ctx = replace(make_context("1/20", "1/25"), r=Fraction(1, 10))
    assert (ctx.rtilde, ctx.stilde) == (Fraction(2, 25), Fraction(3, 25))
    assert ctx == make_context("1/10", "1/25")
    # integers are read as exact rationals, so sigma2 / 2 stays exact
    assert ModelContext(r=0, sigma2=1).rtilde == Fraction(-1, 2)
    assert isinstance(ModelContext(r=0, sigma2=1).rtilde, Fraction)


@pytest.mark.parametrize("bad", [0.05, np.float64(0.05)])
def test_context_rejects_floats(bad):
    # a float would enter the exact layer as 3602879701896397/2^56
    with pytest.raises(TypeError, match="exact scalar required"):
        make_context(bad, Fraction(1, 25))
    with pytest.raises(TypeError, match="exact scalar required"):
        ModelContext(r=Fraction(1, 20), sigma2=bad)
    # int, Fraction, "p/q" and numpy integers stay exact
    assert make_context(0, "1/25") == make_context(Fraction(0), Fraction(1, 25))
    assert make_context(np.int64(1), 2) == make_context(1, 2)


def test_context_accepts_strings():
    ctx = make_context("1/20", "1/25")
    assert isinstance(ctx, ModelContext)
    assert ctx.r == Fraction(1, 20)


def test_context_json_uses_rational_strings():
    obj = make_context("1/20", "1/25").to_json()
    assert obj["r"] == "1/20"
    assert obj["sigma2"] == "1/25"
    assert obj["rtilde"] == "3/100"
    # "p" when the denominator is 1, and a sign on a negative rational
    assert make_context(-5, "49/400").to_json() == {
        "r": "-5", "sigma2": "49/400", "rtilde": "-4049/800", "stilde": "-3951/800",
    }


@given(rationals, positive_rationals)
def test_family_rates_are_the_h_rationals_over_one_denominator(r, sigma2):
    ctx = make_context(r, sigma2)
    D, s, rr, h, j = ctx.family_rates
    assert D > 0 and D % 4 == 0
    assert Fraction(s, D) == ctx.stilde**2 / (2 * ctx.sigma2)
    assert Fraction(rr, D) == ctx.rtilde / ctx.sigma2
    assert Fraction(h, D) == ctx.rtilde / (2 * ctx.sigma2)
    assert Fraction(j, D) == 1 / (2 * ctx.sigma2)
    # computed once per context, and no part of its identity
    assert ctx.family_rates is ctx.family_rates
    assert ctx == make_context(r, sigma2) and hash(ctx) == hash(make_context(r, sigma2))
