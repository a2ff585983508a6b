"""Closed-form prices, Greeks and the normal distribution layer.

mpmath provides an independent high-precision route for the oracle values;
derived constants are frozen into the assertions.
"""

import functools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bssym.isovectors import SolutionSpec, basis_isovector, solution_isovector
from bssym.model import make_context
from bssym.pricing import (
    ClosedFormSolution,
    LogClosedForm,
    OptionSpec,
    _in_domain,
    _normal_pdf,
    bs_price,
)
from bssym.grids import make_grid
from bssym.transforms import (
    BoxRestrictedSurface,
    GridSurface,
    infinitesimal_action,
    sample_surface,
)

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
        assert _normal_pdf(z) == pytest.approx(num, rel=1e-8)


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


@pytest.mark.parametrize("strike, maturity, message", [
    (math.inf, 1.0, "strike must be finite"),
    (100.0, math.inf, "maturity must be finite"),
    (math.nan, 1.0, "strike must be positive"),
    (100.0, 0.0, "maturity must be positive"),
])
def test_option_spec_takes_only_finite_positive_terms(strike, maturity, message):
    with pytest.raises(ValueError, match=message):
        OptionSpec(strike, maturity, "put")


@pytest.mark.parametrize("spec", [CALL, PUT], ids=["call", "put"])
@pytest.mark.parametrize("t, S, message", [
    (0.5, math.inf, "must be finite"),
    (0.5, math.nan, "must be finite"),
    (math.nan, 100.0, "must be finite"),
    (-math.inf, 100.0, "must be finite"),
    (0.5, 0.0, "spot must be positive"),
    (1.5, 100.0, "t is beyond maturity"),
])
def test_bs_price_rejects_points_off_its_domain_without_a_warning(spec, t, S, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            bs_price(spec, DEFAULT, t, S)
        with pytest.raises(ValueError, match=message):
            bs_price(spec, DEFAULT, np.asarray([0.2, t]), np.asarray([S, 100.0]))


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
    """At maturity phi is the payoff and phi_t, phi_x are NaN, with no
    warning; the nodes before it keep the bits they have without it, and a
    node past maturity or at S = inf is NaN throughout.  The last strike
    is e^4.6 to the bit, where d1 is 0/0 at maturity."""
    t = np.asarray([0.5, 1.0, 1.0, 1.5])[:, None]
    x = np.asarray([4.0, math.log(100.0), 4.6, 800.0])[None, :]
    for spec in (CALL, PUT, OptionSpec(float(np.exp(4.6)), 1.0, "put")):
        log_surf = LogClosedForm(spec, DEFAULT)
        for dt, dx in [(True, True), (True, False), (False, True)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                phi, phi_t, phi_x = log_surf.value_and_derivatives(t, x, dt, dx)
                before = log_surf.value_and_derivatives(t[:1], x, dt, dx)
            assert np.array_equal(phi, log_surf.value(t, x), equal_nan=True)
            assert np.array_equal(phi[1:3, :3], np.tile(spec.payoff(np.exp(x[:, :3])), (2, 1)))
            assert np.isnan(phi[3]).all() and np.isnan(phi[:, 3]).all()
            for d, d_before, asked in [(phi_t, before[1], dt), (phi_x, before[2], dx)]:
                if not asked:
                    assert d is None and d_before is None
                    continue
                assert np.array_equal(d[:1].view(np.uint64), d_before.view(np.uint64))
                assert np.isfinite(d[0, :3]).all()
                assert np.isnan(d[1:]).all() and np.isnan(d[:, 3]).all()
        # with no derivative asked for, phi is the surface's value, payoff included
        phi, phi_t, phi_x = log_surf.value_and_derivatives(t, x, False, False)
        assert np.array_equal(phi, log_surf.value(t, x), equal_nan=True)
        assert phi_t is None and phi_x is None


def _masked_reference(t, u, fn, inside):
    """fn at the points (t, u), broadcast together, by gathering the points
    where `inside` holds and scattering fn's values there back, NaN
    elsewhere: the oracle that the closed form's one mask and the one route
    of `pricing._masked` must match bit for bit."""
    t, u = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(u, dtype=float))
    ok = np.broadcast_to(inside(t, u), t.shape)
    out = np.full(t.shape, np.nan)
    if np.any(ok):
        out[ok] = fn(t[ok], u[ok])
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
    price = functools.partial(bs_price, CALL, DEFAULT)
    inside = functools.partial(_in_domain, CALL)
    for got, want in ((surf.value(T, S), _masked_reference(T, S, price, inside)),
                      (surf.at(T, X), _masked_reference(T, np.exp(X), price, inside))):
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


@pytest.mark.parametrize("spec", [CALL, PUT], ids=["call", "put"])
@pytest.mark.parametrize("t, S", [
    (math.inf, 100.0), (-math.inf, 100.0), (math.nan, 100.0), (0.5, 0.0), (0.5, math.inf),
])
def test_closed_form_reads_nan_quietly_off_its_domain(spec, t, S):
    # bs_price raises at each of these points; every surface read masks in
    # the kernel and is NaN, alone or beside a point inside
    x = math.log(S) if S > 0 else -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for surf, u in ((ClosedFormSolution(spec, DEFAULT), S), (LogClosedForm(spec, DEFAULT), x)):
            assert math.isnan(surf.value(t, u)) and math.isnan(surf.at(t, x))
            assert np.isnan(surf.value_and_derivatives(t, x, True, True)).all()
            pair = surf.at(np.asarray([t, 0.5]), np.asarray([x, math.log(100.0)]))
            assert np.isnan(pair[0]) and np.isfinite(pair[1])


@pytest.mark.parametrize("spec", [CALL, PUT], ids=["call", "put"])
def test_an_overflowing_discount_reads_the_float_value_quietly(spec):
    # at r < 0 the discount K e^(-r tau) passes the float range far before
    # maturity: t = -1e5 is inside the domain.  There the call, about
    # 1.2e-489, is 0.0 as a float, and the put passes the float range
    ctx = make_context(Fraction(-1, 20), Fraction(1, 25))
    x = math.log(100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reads = [bs_price(spec, ctx, -1e5, 100.0)]
        for surf, u in ((ClosedFormSolution(spec, ctx), 100.0), (LogClosedForm(spec, ctx), x)):
            reads += [surf.at(-1e5, x), surf.value(-1e5, u),
                      surf.value_and_derivatives(-1e5, x, True, True)[0]]
    assert reads == [mp_price(spec, ctx, -1e5, 100.0)] * 7
    assert reads[0] == (0.0 if spec.kind == "call" else math.inf)


def test_an_overflowing_discount_keeps_a_finite_call_and_theta():
    # at r = -1/50 and t = -4e4, e^(-r tau) = e^800 overflows, while the
    # call, about 49, and its theta, about -1.2e-5, are finite
    ctx = make_context(Fraction(-1, 50), Fraction(1, 25))
    t, S = -4e4, 100.0
    with mpmath.workdps(50):
        tau, sig, r = mpmath.mpf(1) - t, mpmath.mpf(1) / 5, mpmath.mpf(-1) / 50
        d1 = (r + sig**2 / 2) * tau / (sig * mpmath.sqrt(tau))
        d2 = d1 - sig * mpmath.sqrt(tau)
        theta = float(-S * mpmath.npdf(d1) * sig / (2 * mpmath.sqrt(tau))
                      - r * 100 * mpmath.e ** (-r * tau) * mpmath.ncdf(d2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = bs_price(CALL, ctx, t, S)
        phi, phi_t, _ = LogClosedForm(CALL, ctx).value_and_derivatives(t, math.log(S), True, False)
    assert value == pytest.approx(mp_price(CALL, ctx, t, S), rel=1e-12)
    assert phi == pytest.approx(value, rel=1e-12)
    # theta is the difference of two terms near 0.02, and e^(-r tau + log
    # Phi(d2)) carries the rounding of an exponent near 800
    assert phi_t == pytest.approx(theta, rel=1e-8)
    assert theta == pytest.approx(-1.2443177e-5, rel=1e-7)


# Points inside every surface of `_masked_cases`, and points outside some or
# all of them: past the box (t = 0.95, S = 20 or 300), past maturity, or
# where e^x is 0 or inf or t or x is not a number.
_BOX = make_grid(0.1, 0.8, 15, math.log(40.0), math.log(250.0), 13)
_T_IN = st.floats(0.1, 0.8)
_X_IN = st.floats(math.log(40.0), math.log(250.0))
_T_ANY = st.one_of(_T_IN, st.sampled_from([0.95, 1.2, math.inf, math.nan]))
_X_ANY = st.one_of(_X_IN, st.sampled_from(
    [math.log(20.0), math.log(300.0), -800.0, 800.0, -math.inf, math.inf, math.nan]))


@functools.lru_cache(maxsize=None)
def _masked_cases():
    """(surface, fn, inside): each kind of masked surface, with the fn and
    predicate whose gather/scatter its evaluation must equal."""
    call, put = ClosedFormSolution(CALL, DEFAULT), LogClosedForm(PUT, DEFAULT)
    boxed = BoxRestrictedSurface(call, _BOX)
    spline = GridSurface(sample_surface(LogClosedForm(CALL, DEFAULT), _BOX))
    cases = [
        (call, lambda t, x: bs_price(CALL, DEFAULT, t, np.exp(x)), call.inside),
        (put, lambda t, x: bs_price(PUT, DEFAULT, t, np.exp(x)), put.inside),
        (boxed, boxed.base.at, boxed._inside),
        (spline, spline._rows, spline._inside),
    ]
    # N_u's coefficients grow as e^x, so they overflow at x = 800
    n_u = solution_isovector(SolutionSpec.mode_for(1, DEFAULT), DEFAULT)
    for N in (basis_isovector(1, DEFAULT), basis_isovector(4, DEFAULT), n_u):
        action = infinitesimal_action(N, LogClosedForm(CALL, DEFAULT))
        cases.append((action, action._acted, action.base.inside))
    return tuple(cases)


def _axis(draw, values, n):
    return np.asarray(draw(st.lists(values, min_size=n, max_size=n)))


@st.composite
def _mask_points(draw, kind):
    """(t, x) whose mask on the surfaces is of one kind: a scalar, a 1-D
    point set, clipped rows or columns of a t column against an x row, a
    sheared clip of a t column against a 2-D x, or no point or every point
    inside."""
    k, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    if kind == "scalar":
        return draw(_T_ANY), draw(_X_ANY)
    if kind == "1-D":
        n = draw(st.integers(1, 12))
        return (np.asarray(draw(st.lists(_T_ANY, min_size=n, max_size=n))),
                np.asarray(draw(st.lists(_X_ANY, min_size=n, max_size=n))))
    t_in, x_in = np.sort(_axis(draw, _T_IN, k)), np.sort(_axis(draw, _X_IN, m))
    t, x = {
        "full": (t_in, x_in),
        "row clip": (_axis(draw, _T_ANY, k), x_in),
        "column clip": (t_in, _axis(draw, _X_ANY, m)),
        "empty": (_axis(draw, st.sampled_from([1.2, math.inf, math.nan]), k),
                  _axis(draw, _X_ANY, m)),
        "sheared": (t_in, x_in),
    }[kind]
    t, x = t[:, None], x[None, :]
    if kind == "sheared":
        # row i keeps the columns from i + shift on inside, as a boost shears
        # a box; the rest take points outside
        shift = draw(st.integers(-m, m))
        outside = np.arange(m)[None, :] < np.arange(k)[:, None] + shift
        x = np.where(outside, draw(st.sampled_from([-800.0, math.inf, math.nan, 6.0])), x)
    return t, x


def _assert_masked_cases_are_the_oracle(t, x):
    """Each of `_masked_cases` at (t, x), quietly, has the bits of fn on
    the inside points alone and NaN elsewhere."""
    for surface, fn, inside in _masked_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = surface.at(t, x)
        want = _masked_reference(t, x, fn, inside)
        assert isinstance(got, float) if want.ndim == 0 else got.shape == want.shape
        assert np.array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "kind", ["scalar", "1-D", "row clip", "column clip", "sheared", "empty", "full"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_masked_evaluation_is_the_gather_scatter_oracle_bit_for_bit(kind, data):
    # the closed form masks in its kernel, the other surfaces by `_masked` on
    # the block of their inside points
    _assert_masked_cases_are_the_oracle(*data.draw(_mask_points(kind)))


def test_masked_evaluation_of_no_point_is_empty():
    # a spline's grid call at no point raised IndexError
    _assert_masked_cases_are_the_oracle(np.empty(0), np.empty(0))
    _assert_masked_cases_are_the_oracle(np.empty((0, 1)), np.empty((1, 3)))


@pytest.mark.parametrize("fill", [math.nan, math.inf, -800.0, 6.0])
def test_sheared_clip_evaluates_its_block_quietly(fill):
    # the block of a sheared clip holds outside points between inside ones
    # of a row: a spline's grid call there must neither raise nor warn
    t = np.asarray([0.2, 0.3, 0.4])[:, None]
    x = np.asarray([4.0, 4.2, 4.4, 4.6])[None, :]
    x = np.where(np.arange(4)[None, :] < np.arange(3)[:, None], fill, x)
    _assert_masked_cases_are_the_oracle(t, x)
