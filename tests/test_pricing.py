"""Closed-form prices, Greeks and the normal distribution layer.

mpmath provides an independent high-precision route for the oracle values;
derived constants are frozen into the assertions.
"""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bssym.isovectors import basis_isovector
from bssym.model import make_context
from bssym.pricing import (
    ClosedFormSolution,
    LogClosedForm,
    OptionSpec,
    bs_price,
    normal_pdf,
)
from bssym.transforms import infinitesimal_action

DEFAULT = make_context(Fraction(1, 20), Fraction(1, 25))
ZERO_RATE = make_context(Fraction(0), Fraction(1, 25))
CALL = OptionSpec(100.0, 1.0, "call")
PUT = OptionSpec(100.0, 1.0, "put")


def mp_price(spec, ctx, t, S):
    """Independent closed-form route at 50 digits."""
    with mpmath.workdps(50):
        tau = mpmath.mpf(spec.maturity) - mpmath.mpf(t)
        if tau == 0:
            return float(max(S - spec.strike, 0) if spec.kind == "call"
                         else max(spec.strike - S, 0))
        sig = mpmath.sqrt(mpmath.mpf(ctx.sigma2.numerator) / ctx.sigma2.denominator)
        r = mpmath.mpf(ctx.r.numerator) / ctx.r.denominator
        sq = sig * mpmath.sqrt(tau)
        d1 = (mpmath.log(mpmath.mpf(S) / spec.strike) + (r + sig**2 / 2) * tau) / sq
        d2 = d1 - sq
        disc = spec.strike * mpmath.e ** (-r * tau)
        if spec.kind == "call":
            value = S * mpmath.ncdf(d1) - disc * mpmath.ncdf(d2)
        else:
            value = disc * mpmath.ncdf(-d2) - S * mpmath.ncdf(-d1)
        return float(value)


def test_normal_pdf_is_derivative_of_cdf():
    h = 1e-6
    for z in (-1.3, 0.0, 0.7, 2.5):
        num = float((mpmath.ncdf(z + h) - mpmath.ncdf(z - h)) / (2 * h))
        assert normal_pdf(z) == pytest.approx(num, rel=1e-8)


def test_atm_zero_rate_frozen_value():
    # at r=0, sigma=1/5, K=100, T=1 the at-the-money value collapses to
    # K*(2*Phi(sigma/2) - 1)
    got = bs_price(OptionSpec(100.0, 1.0, "call"), ZERO_RATE, 0.0, 100.0)
    assert got == pytest.approx(7.965567455405804, abs=1e-12)
    direct = 100.0 * (2.0 * float(mpmath.ncdf(0.1)) - 1.0)
    assert got == pytest.approx(direct, abs=1e-12)


@given(
    st.floats(min_value=1.0, max_value=300.0),
    st.floats(min_value=0.0, max_value=0.999),
)
@settings(max_examples=40)
def test_price_against_mpmath(S, t):
    got = bs_price(CALL, DEFAULT, t, S)
    want = mp_price(CALL, DEFAULT, t, S)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(
    st.floats(min_value=1.0, max_value=300.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_put_call_parity(S, t):
    tau = CALL.maturity - t
    c = bs_price(CALL, DEFAULT, t, S)
    p = bs_price(PUT, DEFAULT, t, S)
    forward = S - CALL.strike * math.exp(-DEFAULT.r_f * tau)
    assert c - p == pytest.approx(forward, abs=1e-10 * CALL.strike)


def test_payoff_at_maturity_is_exact():
    S = np.asarray([50.0, 100.0, 150.0])
    got = bs_price(CALL, DEFAULT, 1.0, S)
    assert np.array_equal(got, np.asarray([0.0, 0.0, 50.0]))
    got_put = bs_price(PUT, DEFAULT, 1.0, S)
    assert np.array_equal(got_put, np.asarray([50.0, 0.0, 0.0]))


@given(st.floats(min_value=0.0, max_value=0.99))
def test_call_price_monotone_in_spot(t):
    S = np.linspace(20.0, 250.0, 24)
    vals = bs_price(CALL, DEFAULT, t, S)
    diffs = np.diff(vals)
    assert np.all(diffs >= 0)
    # deep out-of-the-money prices underflow to zero near expiry; demand
    # strict growth only once the value is resolvable
    resolved = vals[1:] > 1e-12
    assert np.all(diffs[resolved] > 0)


def test_price_bounds():
    S = np.linspace(1.0, 300.0, 50)
    tau = 1.0
    vals = bs_price(CALL, DEFAULT, 0.0, S)
    lower = np.maximum(S - CALL.strike * math.exp(-DEFAULT.r_f * tau), 0.0)
    assert np.all(vals >= lower - 1e-12)
    assert np.all(vals <= S)


def test_domain_validation():
    with pytest.raises(ValueError):
        bs_price(CALL, DEFAULT, 0.0, -1.0)
    with pytest.raises(ValueError):
        bs_price(CALL, DEFAULT, 1.5, 100.0)  # past maturity
    with pytest.raises(ValueError):
        OptionSpec(100.0, 1.0, "straddle")
    with pytest.raises(ValueError):
        OptionSpec(-5.0, 1.0, "call")


def _phi_x(spec, t, S):
    """phi_x = S C_S of the closed form at (t, x = log S)."""
    return LogClosedForm(spec, DEFAULT).value_and_derivatives(t, math.log(S), False, True)[2]


def test_delta_range_and_finite_difference():
    for S in (60.0, 100.0, 160.0):
        phi_x = _phi_x(CALL, 0.2, S)
        assert 0.0 < phi_x < S
        h = 1e-4 * S
        num = (
            bs_price(CALL, DEFAULT, 0.2, S + h)
            - bs_price(CALL, DEFAULT, 0.2, S - h)
        ) / (2 * h)
        assert phi_x == pytest.approx(S * num, rel=1e-6)
    # put-call parity C - P = S - K e^(-r tau): phi_x(put) - phi_x(call) = -S
    assert _phi_x(PUT, 0.2, 100.0) - _phi_x(CALL, 0.2, 100.0) == pytest.approx(
        -100.0, abs=1e-10
    )


def test_theta_finite_difference():
    log_call = LogClosedForm(CALL, DEFAULT)
    for S in (80.0, 100.0, 130.0):
        _, phi_t, _ = log_call.value_and_derivatives(0.3, math.log(S), True, False)
        h = 1e-6
        num = (
            bs_price(CALL, DEFAULT, 0.3 + h, S)
            - bs_price(CALL, DEFAULT, 0.3 - h, S)
        ) / (2 * h)
        assert phi_t == pytest.approx(num, rel=1e-6)


def test_closed_form_surface_masks_outside_domain(recwarn):
    surf = ClosedFormSolution(CALL, DEFAULT)
    # past maturity, and spots whose log is -inf or NaN
    vals = surf.value(np.asarray([0.0, 2.0, 0.5, 0.5]), np.asarray([100.0, 100.0, 0.0, -1.0]))
    assert math.isfinite(vals[0])
    assert np.isnan(vals[1:]).all()
    assert not recwarn.list
    assert surf.frame == "price"


def test_log_frame_surface_and_derivatives():
    log_surf = LogClosedForm(CALL, DEFAULT)
    assert log_surf.frame == "log"
    x = math.log(110.0)
    t = 0.4
    assert log_surf.value(t, x) == pytest.approx(
        bs_price(CALL, DEFAULT, t, 110.0), abs=1e-12
    )
    h = 1e-6
    dx_num = (log_surf.value(t, x + h) - log_surf.value(t, x - h)) / (2 * h)
    dt_num = (log_surf.value(t + h, x) - log_surf.value(t - h, x)) / (2 * h)
    _, phi_t, phi_x = log_surf.value_and_derivatives(t, x, True, True)
    assert float(phi_x) == pytest.approx(dx_num, rel=1e-7)
    assert float(phi_t) == pytest.approx(dt_num, rel=1e-7)


def _greeks_one_by_one(spec, ctx, t, S):
    """C, C_t and S C_S at tau > 0, each written out in its own closed-form
    pass, operation for operation as the one-pass kernel must reproduce."""
    from scipy.special import ndtr

    tau = spec.maturity - t
    sig, sq = ctx.sigma_f, np.sqrt(tau)
    d1 = (np.log(S / spec.strike) + ctx.stilde_f * tau) / (sig * sq)
    d2 = d1 - sig * sq
    disc = spec.strike * np.exp(-ctx.r_f * tau)
    decay = -S * (np.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)) * sig / (2.0 * np.sqrt(tau))
    if spec.kind == "call":
        return (S * ndtr(d1) - disc * ndtr(d2), decay - ctx.r_f * disc * ndtr(d2),
                S * ndtr(d1))
    return (disc * ndtr(-d2) - S * ndtr(-d1), decay + ctx.r_f * disc * ndtr(-d2),
            S * (ndtr(d1) - 1.0))


@pytest.mark.parametrize("spec", [CALL, PUT], ids=["call", "put"])
@pytest.mark.parametrize("dt, dx", [(True, True), (True, False), (False, True)])
def test_one_pass_derivatives_match_the_greeks_bit_for_bit(spec, dt, dx):
    log_surf = LogClosedForm(spec, DEFAULT)
    T, X = np.meshgrid(np.linspace(0.0, 0.99, 41), np.linspace(2.0, 6.5, 37), indexing="ij")
    S = np.exp(X)
    price, theta, s_delta = _greeks_one_by_one(spec, DEFAULT, T, S)
    phi, phi_t, phi_x = log_surf.value_and_derivatives(T, X, dt, dx)
    assert np.array_equal(phi, price)
    assert np.array_equal(phi, bs_price(spec, DEFAULT, T, S))
    assert np.array_equal(phi, log_surf.value(T, X))
    assert (phi_t is None) if not dt else np.array_equal(phi_t, theta)
    assert (phi_x is None) if not dx else np.array_equal(phi_x, s_delta)


def test_one_pass_derivatives_need_t_before_maturity():
    log_surf = LogClosedForm(CALL, DEFAULT)
    t = np.asarray([0.5, 1.0])
    x = np.asarray([4.6, 4.6])
    for dt, dx in [(True, True), (True, False), (False, True)]:
        with pytest.raises(ValueError, match="strictly before maturity"):
            log_surf.value_and_derivatives(t, x, dt, dx)
    # with no derivative asked for, phi is the surface's value, payoff included
    phi, phi_t, phi_x = log_surf.value_and_derivatives(t, x, False, False)
    assert np.array_equal(phi, log_surf.value(t, x))
    assert phi[1] == max(math.exp(4.6) - 100.0, 0.0)
    assert phi_t is None and phi_x is None


def _masked_reference(surf, t, S):
    """The closed form at (t, S) by gathering and scattering every in-domain
    node, which the all-inside fast path must reproduce."""
    t, S = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(S, dtype=float))
    ok = (S > 0) & (surf.spec.maturity - t >= 0)
    out = np.full(t.shape, np.nan)
    if np.any(ok):
        out[ok] = bs_price(surf.spec, surf.ctx, t[ok], S[ok])
    return out


@pytest.mark.parametrize(
    "t_lo, t_hi", [(0.6, 0.99), (0.6, 1.3), (1.1, 1.5)],
    ids=["all-inside", "some-outside", "all-outside"],
)
def test_closed_form_mask_fast_path_is_bit_identical(t_lo, t_hi):
    # value(t, S) reads bs_price at S itself; at(t, x) reads it at e^x
    surf = ClosedFormSolution(CALL, DEFAULT)
    T, S = np.meshgrid(np.linspace(t_lo, t_hi, 31), np.linspace(40.0, 250.0, 29),
                       indexing="ij")
    X = np.log(S)
    for got, want in ((surf.value(T, S), _masked_reference(surf, T, S)),
                      (surf.at(T, X), _masked_reference(surf, T, np.exp(X)))):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(np.isnan(got), T > CALL.maturity)


@pytest.mark.parametrize("spec", [CALL, PUT], ids=["call", "put"])
@pytest.mark.parametrize("x", [-800.0, 800.0, math.inf, -math.inf])
def test_reads_where_e_to_the_x_is_no_spot_are_nan_and_quiet(spec, x):
    # e^x is 0 or inf there, outside the one domain 0 < e^x < inf: every
    # read is NaN, derivatives included, and no floating-point warning leaks
    surf, log_surf = ClosedFormSolution(spec, DEFAULT), LogClosedForm(spec, DEFAULT)
    spot = 0.0 if x < 0 else math.inf
    x_pair = np.asarray([x, math.log(110.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reads = [surf.at(0.5, x), surf.value(0.5, spot), log_surf.value(0.5, x)]
        for dt, dx in [(True, True), (True, False), (False, True)]:
            jet = log_surf.value_and_derivatives(0.5, x, dt, dx)
            reads += [v for v in jet if v is not None]
            pair = log_surf.value_and_derivatives(np.full(2, 0.5), x_pair, dt, dx)
            reads += [v[0] for v in pair if v is not None]
            assert all(np.isfinite(v[1]) for v in pair if v is not None)
        if math.isfinite(x):
            action = infinitesimal_action(basis_isovector(1, DEFAULT), log_surf)
            reads.append(action.at(0.5, x))
    assert np.isnan(reads).all()
