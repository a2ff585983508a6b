"""Finite flows, pipelines, residual certification and infinitesimal actions."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODEL_POINTS, NEGATIVE_RATE
from bssym import grids, pricing
from bssym.grids import (
    _D1_TIERS,
    _D2_TIERS,
    _STENCIL_4TH,
    _STENCIL_FALLBACK,
    _STRIP_NODES,
    Grid,
    GridSolution,
    ResidualReport,
    _combine,
    _first_finite,
    _row_strips,
    make_grid,
    residual_e,
    residual_e2,
)
from bssym.isovectors import (
    SolutionSpec,
    basis_isovector,
    gh_of,
    solution_isovector,
    structure_constants,
)
from bssym.model import _LOG_FLOWS, make_context
from bssym.pricing import ClosedFormSolution, LogClosedForm, OptionSpec, bs_price
from bssym.transforms import (
    BoxRestrictedSurface,
    FLOW_GENERATORS,
    FiniteTransform,
    GridSurface,
    TransformDomainError,
    apply_transform,
    as_surface,
    certify_transform,
    compose,
    infinitesimal_action,
    sample_surface,
)

DEFAULT = make_context(Fraction(1, 20), Fraction(1, 25))
CALL = OptionSpec(100.0, 1.0, "call")
PUT = OptionSpec(90.0, 1.0, "put")

# coarse but adequate certification grid for unit-level checks
COARSE = make_grid(0.0, 0.8, 161, math.log(0.5), math.log(200.0), 121)


def call_surface():
    return ClosedFormSolution(CALL, DEFAULT)


def log_call_surface():
    return LogClosedForm(CALL, DEFAULT)


def test_flow_indices_validated():
    with pytest.raises(ValueError):
        FiniteTransform(1, 0.1)
    with pytest.raises(ValueError):
        FiniteTransform(7, 0.1)
    with pytest.raises(ValueError):
        FiniteTransform(4, 0.1, frame="spot")


@pytest.mark.parametrize("kappa", [
    math.nan, math.inf, -math.inf,
    # past the float range: float() would raise OverflowError
    pytest.param(10**400, id="1e400"), pytest.param(-(10**400), id="-1e400"),
    pytest.param(Fraction(10**400, 3), id="1e400/3"),
])
@pytest.mark.parametrize("i", FLOW_GENERATORS)
def test_non_finite_kappa_rejected(i, kappa):
    with pytest.raises(ValueError, match="kappa must be finite"):
        FiniteTransform(i, kappa)


@pytest.mark.parametrize("kappa", [Fraction(1, 10), np.float32(0.1), np.float64(0.1), 0])
@pytest.mark.parametrize("i", FLOW_GENERATORS)
def test_kappa_is_read_once_as_a_float(i, kappa):
    # any real kappa acts, and serialises, as the float it rounds to
    tr, want = FiniteTransform(i, kappa), FiniteTransform(i, float(kappa))
    assert type(tr.kappa) is float and tr == want
    assert json.dumps(tr.to_json()) == json.dumps(want.to_json())
    T, S = np.asarray([[0.1], [0.5]]), np.asarray([[60.0, 100.0, 150.0]])
    got = apply_transform(tr, call_surface(), DEFAULT).value(T, S)
    assert np.isfinite(got).all()
    assert np.array_equal(got, apply_transform(want, call_surface(), DEFAULT).value(T, S))


def test_kappa_as_text_is_a_type_error():
    with pytest.raises(TypeError):
        FiniteTransform(5, "0.1")


@pytest.mark.parametrize("i", FLOW_GENERATORS)
def test_generator_is_read_once_as_an_int(i):
    # any integer generator acts, and serialises, as the int it is
    tr = FiniteTransform(np.int64(i), 0.1)
    assert type(tr.generator) is int and tr == FiniteTransform(i, 0.1)
    assert json.loads(json.dumps(tr.to_json()))["generator"] == i
    # a float is no generator, even an integral one
    with pytest.raises(TypeError):
        FiniteTransform(float(i), 0.1)


def test_transform_json_is_its_fields():
    # pinned whole: a field added later shows up here, not silently in a verdict
    assert FiniteTransform(4, 0.1, frame="log").to_json() == {
        "generator": 4, "kappa": 0.1, "frame": "log"}


def test_time_shift_pullback_and_prefactor():
    tr = FiniteTransform(3, 0.25, frame="price")
    x = math.log(100.0)
    tp, xp = tr.pullback(DEFAULT, 0.1, x)
    assert tp == pytest.approx(0.35)
    assert xp == x
    # constant multiplier e^{-kappa stilde^2 / 2 sigma2}
    want = math.exp(-0.25 * 0.07**2 / (2 * 0.04))
    assert tr.prefactor(DEFAULT, 0.1, x) == pytest.approx(want, rel=1e-15)


def test_dilation_flow_price_frame_formula():
    # exp(kappa N4): C(t,S) -> e^{kappa t (2 rtilde - kappa)/(2 sigma2)}
    #                          S^{-kappa/sigma2} C(t, e^{kappa t} S)
    kappa, t, S = 0.2, 0.5, 110.0
    tr = FiniteTransform(4, kappa, frame="price")
    surf = apply_transform(tr, call_surface(), DEFAULT)
    pref = math.exp(kappa * t * (2 * 0.03 - kappa) / (2 * 0.04)) * S ** (
        -kappa / 0.04
    )
    want = pref * bs_price(CALL, DEFAULT, t, math.exp(kappa * t) * S)
    assert surf.value(t, S) == pytest.approx(want, rel=1e-13)


def test_log_and_price_frames_agree():
    kappa, t, S = -0.15, 0.3, 85.0
    price_side = apply_transform(
        FiniteTransform(4, kappa, frame="price"), call_surface(), DEFAULT
    ).value(t, S)
    log_side = apply_transform(
        FiniteTransform(4, kappa, frame="log"), log_call_surface(), DEFAULT
    ).value(t, math.log(S))
    assert price_side == pytest.approx(log_side, rel=1e-12)


def test_scaling_flow_multiplies_price():
    tr = FiniteTransform(6, math.log(2.0), frame="price")
    surf = apply_transform(tr, call_surface(), DEFAULT)
    base = call_surface()
    for t, S in ((0.0, 100.0), (0.5, 73.0), (0.79, 141.0)):
        assert surf.value(t, S) == pytest.approx(2.0 * base.value(t, S), rel=1e-15)


def test_frame_mismatch_rejected():
    with pytest.raises(ValueError):
        apply_transform(FiniteTransform(5, 0.1, frame="log"), call_surface(), DEFAULT)


def test_pipeline_composition_order():
    # two translations along different flows commute here; value route and
    # stage-by-stage route must agree
    a = FiniteTransform(5, 0.2, frame="price")
    b = FiniteTransform(3, 0.1, frame="price")
    pipe = compose(a, b)
    assert pipe == (a, b)  # a pipeline is the tuple of its flows
    staged = apply_transform(b, apply_transform(a, call_surface(), DEFAULT), DEFAULT)
    direct = apply_transform(pipe, call_surface(), DEFAULT)
    assert direct.frame == "price"
    for t, S in ((0.1, 90.0), (0.4, 120.0)):
        assert direct.value(t, S) == pytest.approx(staged.value(t, S), rel=1e-14)


def test_pipeline_order_is_pinned():
    # a pipeline acts left to right: it is the staged application bit for
    # bit, and swapping two stages that do not commute changes it by the
    # exponential of their bracket, [N4, N5] = -sigma2^-1 N6
    a, b = 0.1, -0.2
    t = np.array([0.1, 0.4, 0.7])[:, None]
    S = np.array([80.0, 100.0, 125.0])[None, :]
    pipe = compose(FiniteTransform(4, a), FiniteTransform(5, b))
    got = apply_transform(pipe, call_surface(), DEFAULT).value(t, S)
    staged = apply_transform(
        FiniteTransform(5, b),
        apply_transform(FiniteTransform(4, a), call_surface(), DEFAULT),
        DEFAULT,
    ).value(t, S)
    assert np.array_equal(got, staged)
    swapped = apply_transform(
        compose(FiniteTransform(5, b), FiniteTransform(4, a)), call_surface(), DEFAULT
    ).value(t, S)
    ((k, c),) = structure_constants(DEFAULT)[(4, 5)]
    assert (k, c) == (6, -1 / DEFAULT.sigma2)
    want = math.exp(a * b * float(c))  # e^0.5 at the canonical model
    assert np.allclose(got / swapped, want, rtol=1e-12, atol=0.0)


def test_pipeline_needs_common_frame():
    # one label check, where a pipeline meets its surface
    mixed = compose(
        FiniteTransform(5, 0.2, frame="price"),
        FiniteTransform(3, 0.1, frame="log"),
    )
    for base in (call_surface(), log_call_surface()):
        with pytest.raises(ValueError, match="frame labels differ"):
            apply_transform(mixed, base, DEFAULT)
    with pytest.raises(ValueError, match="empty transform pipeline"):
        compose()
    with pytest.raises(ValueError, match="empty transform pipeline"):
        apply_transform((), call_surface(), DEFAULT)


def test_group_law_in_kappa():
    # exp(k1 N)exp(k2 N) = exp((k1+k2) N) pointwise
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 0.8, size=20)
    S = rng.uniform(60.0, 160.0, size=20)
    for i, (k1, k2) in ((3, (0.07, -0.02)), (4, (0.12, 0.05)),
                        (5, (-0.2, 0.35)), (6, (0.4, -0.1))):
        one = apply_transform(FiniteTransform(i, k1), call_surface(), DEFAULT)
        two = apply_transform(FiniteTransform(i, k2), one, DEFAULT)
        merged = apply_transform(
            FiniteTransform(i, k1 + k2), call_surface(), DEFAULT
        )
        a = two.value(t, S)
        b = merged.value(t, S)
        mask = np.isfinite(a) & np.isfinite(b)
        assert mask.any()
        assert np.max(np.abs(a[mask] - b[mask])) < 1e-10 * max(
            1.0, np.max(np.abs(b[mask]))
        )


def _oracle_pullback(tr, ctx, t, u):
    """Reference pullback: each flow written out in each frame."""
    k = tr.kappa
    if tr.generator == 3:
        return t + k, u
    if tr.generator == 4:
        if tr.frame == "log":
            return t, u + k * t
        return t, np.exp(k * t) * u
    if tr.generator == 5:
        if tr.frame == "log":
            return t, u + k
        return t, np.exp(k) * u
    return t, u


def _oracle_prefactor(tr, ctx, t, u):
    """Reference prefactor: each flow written out in each frame."""
    k = tr.kappa
    s2 = ctx.sigma2_f
    ones = np.ones_like(np.asarray(t, dtype=float))
    if tr.generator == 3:
        return np.exp(-k * ctx.stilde_f**2 / (2.0 * s2)) * ones
    if tr.generator == 4:
        if tr.frame == "log":
            return np.exp((k / s2) * (ctx.rtilde_f * t - u) - k * k * t / (2.0 * s2))
        arg = k * t * (2.0 * ctx.rtilde_f - k) / (2.0 * s2)
        return np.exp(arg) * np.asarray(u, dtype=float) ** (-k / s2)
    if tr.generator == 5:
        return np.exp(k * ctx.rtilde_f / s2) * ones
    return np.exp(k) * ones


@pytest.mark.parametrize("kappa", [-0.3, 0.0, 0.123, 0.3])
@pytest.mark.parametrize("i", [3, 4, 5, 6])
def test_flow_table_matches_per_frame_formulas(i, kappa):
    # the one (t, x) table reproduces each flow written out in each
    # spelling, the price one at S = e^x, to rounding; price values are
    # also allowed 1e-13 of the surface's scale, since a deep out-of-the-
    # money value near 0 read at e^(x + dx) rather than e^dx S moves by
    # more than 1e-13 of itself
    T, X = make_grid(0.0, 0.8, 9, math.log(50.0), math.log(200.0), 7).meshes()
    for frame, U in (("price", np.exp(X)), ("log", X)):
        tr = FiniteTransform(i, kappa, frame=frame)
        base = call_surface() if frame == "price" else log_call_surface()
        want_t, want_u = _oracle_pullback(tr, DEFAULT, T, U)
        want_p = _oracle_prefactor(tr, DEFAULT, T, U)
        want_v = want_p * base.value(want_t, want_u)
        got_t, got_x = tr.pullback(DEFAULT, T, X)
        got_u = np.exp(got_x) if frame == "price" else got_x
        got_p = np.broadcast_to(tr.prefactor(DEFAULT, T, X), T.shape)
        got_v = apply_transform(tr, base, DEFAULT).value(T, U)
        pairs = ((got_t, want_t), (got_u, want_u), (got_p, want_p), (got_v, want_v))
        scale = np.nanmax(np.abs(want_v))
        for got, want in pairs:
            atol = 1e-13 * scale if want is want_v and frame == "price" else 0.0
            assert np.allclose(
                got, want, rtol=1e-13, atol=atol, equal_nan=True
            ), (frame, i, kappa)


def test_kappa_zero_is_identity():
    # at the grid nodes both sides are computed in x, so exactly
    surf = apply_transform(FiniteTransform(4, 0.0), call_surface(), DEFAULT)
    got = sample_surface(surf, COARSE).values
    assert np.array_equal(got, sample_surface(call_surface(), COARSE).values)


class _Dual:
    """a + b eps with eps^2 = 0, over Fractions: carries d/dkappa exactly."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def of(v):
        return v if isinstance(v, _Dual) else _Dual(v)

    def __add__(self, o):
        o = _Dual.of(o)
        return _Dual(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.a, -self.b)

    def __sub__(self, o):
        return self + -_Dual.of(o)

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        o = _Dual.of(o)
        return _Dual(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _Dual.of(o)
        return _Dual(self.a / o.a, (self.b * o.a - self.a * o.b) / (o.a * o.a))


def _exact_at(poly, t, x):
    """A polynomial in (t, x) alone, summed exactly at a rational point."""
    total = Fraction(0)
    for (exps, sig), c in poly.sorted_terms():
        assert sig == (0, 0) and not any(exps[2:]), poly
        total += c * t ** exps[0] * x ** exps[1]
    return total


_FLOW_POINTS = [Fraction(v) for v in ("-1/3", "0", "1/7", "2/5", "3/2")]


def _flow_ode_failures(rows, i, ctx):
    """The points (kappa, t, x) of _FLOW_POINTS^3 where a row is not the flow
    of N_i: d/dkappa of (t', x', log prefactor) must be (-N^t, -N^x, h) at
    (t', x'), with (t', x', 0) = (t, x) at kappa = 0."""
    point_map, log_p = rows[i]
    N = basis_isovector(i, ctx)
    fields = (-N.Nt, -N.Nx, gh_of(N).h)
    failures = 0
    for k in _FLOW_POINTS:
        for t in _FLOW_POINTS:
            for x in _FLOW_POINTS:
                consts = (ctx.rtilde, ctx.sigma2, ctx.stilde, t, x)
                start = (*point_map(Fraction(0), t, x), log_p(Fraction(0), *consts))
                kd = _Dual(k, 1)
                moved = [_Dual.of(v) for v in (*point_map(kd, t, x), log_p(kd, *consts))]
                tp, xp = moved[0].a, moved[1].a
                rates = [_exact_at(f, tp, xp) for f in fields]
                failures += start != (t, x, 0) or [v.b for v in moved] != rates
    return failures


@pytest.mark.parametrize("r, sigma2", [*MODEL_POINTS, NEGATIVE_RATE])
def test_flow_table_is_the_exact_flow_of_each_generator(r, sigma2):
    # each row, evaluated on Fractions, solves the flow ODE of its basis
    # field exactly; a slipped sign in N4's or N3's prefactor does not
    ctx = make_context(r, sigma2)
    for i in FLOW_GENERATORS:
        assert _flow_ode_failures(_LOG_FLOWS, i, ctx) == 0, i
    n4_slip = {4: (_LOG_FLOWS[4][0],
                   lambda k, rt, s2, st, t, x: k * t * (2 * rt + k) / (2 * s2) + (-k / s2) * x)}
    n3_slip = {3: (_LOG_FLOWS[3][0], lambda k, rt, s2, st, t, x: k * st**2 / (2 * s2))}
    # N4's slip shows wherever kappa and t are both nonzero; N3's everywhere
    assert _flow_ode_failures(n4_slip, 4, ctx) == 4 * 4 * 5
    assert _flow_ode_failures(n3_slip, 3, ctx) == 5**3


# sha256 prefixes of the float64 bits of each row's pullback (t', x') and
# prefactor on the 9 x 7 grid below, recorded before the rows moved into the
# numpy-free model module
_FLOW_DIGESTS = {
    (3, -0.3): ("7ad8df9768b039db", "508939bdaaf16652"),
    (3, 0.123): ("d18391da4e18adfc", "18206efc218cef0c"),
    (4, -0.3): ("dd3cad8999709c04", "34b6fbb5c32dfc2d"),
    (4, 0.123): ("750c1243b656a232", "082133d004e30d96"),
    (5, -0.3): ("2cb64a2daedf1d4f", "c3c8e7c9c60db21f"),
    (5, 0.123): ("87ba1fcfc011d805", "e782bddaf13cb1c8"),
    (6, -0.3): ("39cda0feea4b84a9", "84f3aa6915a2b5f1"),
    (6, 0.123): ("39cda0feea4b84a9", "eb1a4fc529ea1908"),
}


@pytest.mark.parametrize("i, kappa", list(_FLOW_DIGESTS))
def test_flow_rows_keep_their_float_bits(i, kappa):
    T, X = make_grid(0.0, 0.8, 9, math.log(50.0), math.log(200.0), 7).meshes()

    def digest(*arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(np.broadcast_to(a, T.shape)).view(np.uint64).tobytes())
        return h.hexdigest()[:16]

    tr = FiniteTransform(i, kappa)
    got = (digest(*tr.pullback(DEFAULT, T, X)), digest(tr.prefactor(DEFAULT, T, X)))
    assert got == _FLOW_DIGESTS[i, kappa]


def test_model_and_its_flow_table_load_no_numpy():
    code = "import sys, bssym.model; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


# one flow per generator, and the four stages of the CLI's golden transform
LABEL_CASES = [((3, 0.1),), ((4, 0.2),), ((5, -0.3),), ((6, 0.2),),
               ((4, 0.2), (5, -0.3), (3, 0.1), (6, 0.2))]


@pytest.mark.parametrize("stages", LABEL_CASES, ids=["3", "4", "5", "6", "pipeline"])
def test_price_and_log_labels_certify_the_same_numbers(stages):
    # the label changes no number: only the name of the residual operator
    results = {}
    for frame, base in (("price", call_surface()), ("log", log_call_surface())):
        pipe = compose(*(FiniteTransform(i, k, frame=frame) for i, k in stages))
        results[frame] = certify_transform(pipe, base, COARSE, DEFAULT, 5e-3)
    price, log = results["price"], results["log"]
    assert (price.samples.frame, log.samples.frame) == ("price", "log")
    assert np.array_equal(price.samples.values, log.samples.values, equal_nan=True)
    assert np.array_equal(np.isnan(price.samples.values), np.isnan(log.samples.values))
    assert price.n_clipped_nodes == log.n_clipped_nodes
    assert (price.report.op, log.report.op) == ("E", "E2")
    assert price.report == replace(log.report, op="E")
    assert price.verdict == log.verdict


class _ForeignCall:
    """A price-labelled call from outside bssym: `value(t, S)` only, which
    must be handed whole arrays of one shape."""

    frame = "price"

    def value(self, t, S):
        assert isinstance(t, np.ndarray) and t.shape == np.shape(S)
        return bs_price(CALL, DEFAULT, t, S)


def test_foreign_price_surface_is_read_at_e_to_the_x():
    surface = as_surface(_ForeignCall())
    assert surface.frame == "price"
    got = sample_surface(surface, COARSE).values
    assert np.array_equal(got, sample_surface(call_surface(), COARSE).values)
    result = certify_transform(FiniteTransform(5, 0.1), _ForeignCall(), COARSE, DEFAULT, 5e-3)
    assert result.verdict and not result.used_interpolation


class _WrongBoostCall(_ForeignCall):
    """The call boosted by exp(kappa N_4), with the time exponent of its
    prefactor 10% too large: a foreign surface that is no solution."""

    def __init__(self, kappa):
        self.kappa = kappa

    def value(self, t, S):
        k, r, s2 = self.kappa, DEFAULT.r_f, DEFAULT.sigma2_f
        pref = np.exp(1.1 * k * t * (2 * (r - s2 / 2) - k) / (2 * s2)) * S ** (-k / s2)
        return pref * super().value(t, np.exp(k * t) * S)


def test_a_foreign_surface_that_is_no_solution_fails_certification():
    # the path of the benchmark's negative control: a frame + value object
    # goes through the foreign-surface adapter, and the residual rejects it
    tol = 5e-3
    result = certify_transform(FiniteTransform(6, 0.1), _WrongBoostCall(0.3), COARSE, DEFAULT, tol)
    assert not result.verdict and not result.used_interpolation
    assert result.report.rel_max > 10 * tol


def test_certify_closed_form_transforms():
    for i, kappa in ((3, 0.1), (5, -0.05), (6, 0.3)):
        result = certify_transform(
            FiniteTransform(i, kappa), call_surface(), COARSE, DEFAULT, 5e-3
        )
        assert result.verdict, (i, kappa, result.report.to_json())
        assert not result.used_interpolation
        assert result.samples.frame == "price"


def test_certify_counts_clipped_nodes():
    # a forward time shift pulls the top time rows past the grid box
    result = certify_transform(
        FiniteTransform(3, 0.1), call_surface(), COARSE, DEFAULT, 5e-3
    )
    expected_rows = sum(1 for tv in COARSE.t_values if tv + 0.1 > 0.8 + 1e-12)
    assert result.n_clipped_nodes == expected_rows * COARSE.nx
    assert result.verdict


def test_certify_on_a_too_coarse_grid_is_no_domain_error():
    # two time rows leave no interior node: the grid is at fault, not the flow
    with pytest.raises(ValueError, match="too coarse") as err:
        certify_transform(FiniteTransform(6, 0.1), call_surface(),
                          make_grid(0.0, 0.8, 2, 4.0, 5.0, 50), DEFAULT, 5e-4)
    assert type(err.value) is ValueError


def test_certify_rejects_fully_clipped():
    with pytest.raises(TransformDomainError) as err:
        certify_transform(
            FiniteTransform(3, 5.0), call_surface(), COARSE, DEFAULT, 5e-3
        )
    assert err.value.n_clipped == err.value.n_total


@pytest.mark.parametrize("i, kappa", [(6, 800.0), (4, -40.0)])
def test_flows_past_the_float_range_read_inf_quietly(i, kappa):
    # e^800 and the boost's e^(40 x / sigma2) overflow: the prefactor reads
    # inf, and inf times a zero price NaN, with no warning
    flowed = apply_transform(FiniteTransform(i, kappa), call_surface(), DEFAULT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = flowed.value(np.asarray([0.1, 0.5]), np.asarray([50.0, 100.0]))
    assert np.isinf(got[0])


@pytest.mark.parametrize("i, kappa, t, x", [
    (4, 1e10, -1e300, 4.6),      # the boost's x + kappa t overflows
    (5, 1e308, 0.5, 1e308),      # x + kappa overflows
    (3, 1.7e308, 1.7e308, 4.6),  # t + kappa overflows
], ids=["N4", "N5", "N3"])
def test_pull_back_past_the_float_range_reads_nan_quietly(i, kappa, t, x):
    flowed = apply_transform(FiniteTransform(i, kappa, frame="log"),
                             LogClosedForm(CALL, DEFAULT), DEFAULT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(flowed.at(t, x))


def test_certify_with_every_pull_back_overflowed_is_a_domain_error():
    grid = make_grid(-1e300, 0.0, 5, 4.0, 5.2, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TransformDomainError):
            certify_transform(FiniteTransform(4, 1e10, frame="log"),
                              LogClosedForm(CALL, DEFAULT), grid, DEFAULT, 5e-4)


def test_certify_reports_overflow_as_no_clipping():
    # N6 pulls no node back, so none is clipped; every node overflows
    grid = make_grid(0.0, 0.8, 41, math.log(0.5), math.log(200.0), 31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="1271 of 1271 nodes overflow"):
            certify_transform(FiniteTransform(6, 800.0), call_surface(), grid, DEFAULT, 5e-4)
        # some nodes clipped by the box and some past the float range
        with pytest.raises(OverflowError, match=r"^[1-9]\d* of 1271 nodes overflow"):
            certify_transform(FiniteTransform(4, -40.0), call_surface(), grid, DEFAULT, 5e-4)


def test_certify_reports_an_overflowing_residual_as_a_quiet_failure():
    # N6 at kappa = 705 keeps every sample finite, and the residual overflows
    grid = make_grid(0.0, 0.8, 41, math.log(0.5), math.log(200.0), 31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = certify_transform(FiniteTransform(6, 705.0), call_surface(), grid, DEFAULT, 5e-4)
    assert result.report.max_abs_residual == math.inf
    assert not result.verdict


def test_certify_flags_non_solutions():
    # C = S t is not a solution; the certificate must fail with a large
    # residual even under an exact symmetry map
    g = COARSE
    T, X = g.meshes()
    bogus = GridSolution(g, np.exp(X) * T, frame="price")
    result = certify_transform(
        FiniteTransform(6, 0.1), bogus, g, DEFAULT, 5e-3
    )
    assert not result.verdict
    assert result.report.rel_max > 1e-2
    assert result.used_interpolation


class _OffPrefactorFlow(FiniteTransform):
    """A flow whose prefactor carries a stray factor S^0.01 = e^(0.01 x)."""

    def prefactor(self, ctx, t, x):
        return super().prefactor(ctx, t, x) * np.exp(0.01 * np.asarray(x, dtype=float))


def test_certify_detects_small_prefactor_error():
    # sensitivity control on the canonical grid and tolerance: the exact
    # i=4 flow passes, and an exponent error of 0.01 in its S prefactor is
    # a non-solution whose residual (~1.3e-3) the instrument must resolve
    grid = make_grid(0.0, 0.8, 801, math.log(0.5), math.log(200.0), 601)
    exact = certify_transform(
        FiniteTransform(4, 0.1), call_surface(), grid, DEFAULT, 5e-4
    )
    assert exact.verdict, exact.report.rel_max
    off = certify_transform(
        _OffPrefactorFlow(4, 0.1), call_surface(), grid, DEFAULT, 5e-4
    )
    assert not off.verdict, off.report.rel_max
    assert off.report.rel_max > 10.0 * exact.report.rel_max


@pytest.mark.parametrize("generator", [3, 4], ids=["N3", "N4"])
def test_a_clipped_certification_holds_two_grids(generator, monkeypatch):
    # the samples, their residual and strip temporaries: the report's
    # gathers and the ring scan's masks used to take it to 4.3-4.4 grids.
    # On one CPU, so that no pool thread's strips add to the peak
    import tracemalloc

    monkeypatch.setattr(grids, "_cpus", lambda: 1)
    grid = make_grid(0.0, 0.8, 801, math.log(0.5), math.log(200.0), 601)
    flow = FiniteTransform(generator, 0.15)
    certify_transform(flow, call_surface(), grid, DEFAULT, 5e-4)
    tracemalloc.start()
    try:
        result = certify_transform(flow, call_surface(), grid, DEFAULT, 5e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_clipped_nodes > 0
    assert peak < 2.5 * result.samples.values.nbytes


def test_grid_surface_route_matches_closed_form():
    samples = sample_surface(call_surface(), COARSE)
    result = certify_transform(
        FiniteTransform(5, 0.1), samples, COARSE, DEFAULT, 5e-3
    )
    assert result.used_interpolation
    assert result.verdict


def test_certify_bare_grid_surface_reports_interpolation():
    # an interpolant passed in as a surface is still an interpolant
    surface = as_surface(sample_surface(call_surface(), COARSE))
    assert isinstance(surface, GridSurface)
    result = certify_transform(FiniteTransform(5, 0.1), surface, COARSE, DEFAULT, 5e-3)
    assert result.used_interpolation
    assert result.verdict


def _pointwise_spline(surface, t, x):
    """A GridSurface at the points (t, x), broadcast together: the points
    inside its box gathered into one 1-D point set (the pointwise route)
    and NaN elsewhere, the reference of every other route."""
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    ok = surface._inside(t, x)
    out = np.full(t.shape, np.nan)
    out[ok] = surface._rows(t[ok], x[ok])
    return out


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "case", ["boost", "clipped", "scattered", "descending", "tensor sample", "meshes"])
def test_row_wise_spline_matches_pointwise_bit_for_bit(case):
    surface = GridSurface(sample_surface(log_call_surface(), COARSE))
    T, X = COARSE.meshes()
    if case == "boost":  # x shifted by kappa t on each row, all inside
        inner = make_grid(0.0, 0.8, 161, X.min(), X.max() - 0.3, 121)
        t, x = FiniteTransform(4, 0.3, frame="log").pullback(
            DEFAULT, inner.t_values[:, None], inner.x_values[None, :])
        assert x.shape == (161, 121)
    elif case == "clipped":  # rows partly outside: a gathered 1-D input
        t, x = FiniteTransform(5, 0.8, frame="log").pullback(DEFAULT, T, X)
    elif case == "scattered":
        rng = np.random.default_rng(7)
        t = rng.uniform(-0.1, 0.9, 3000)
        x = rng.uniform(X.min() - 0.2, X.max() + 0.2, 3000)
    elif case == "descending":
        t, x = T, X[:, ::-1]
    else:  # the grid's axes, then its meshes
        t, x = (T, X) if case == "meshes" else (T[:, :1], X[:1])
    want = _pointwise_spline(surface, t, x)
    got = (sample_surface(surface, COARSE).values if case == "tensor sample"
           else surface.value(t, x))
    _assert_same_bits(got, want)
    assert np.isnan(got).any() == (case in ("clipped", "scattered"))


def test_a_per_row_scaled_point_set_keeps_the_pointwise_bits():
    # shaped like N1's pullback (t/d, x/d) with d = 1 + t/2 per row: a t
    # column against an x whose every row is scaled by its own factor, all
    # of it inside the box
    surface = GridSurface(sample_surface(log_call_surface(), COARSE))
    t, x = COARSE.t_values[:, None], COARSE.x_values[None, :]
    d = 1.0 + 0.5 * t
    t, x = t / d, x / d
    assert t.shape == (161, 1) and x.shape == (161, 121)
    got = surface.at(t, x)
    _assert_same_bits(got, _pointwise_spline(surface, t, x))
    assert not np.isnan(got).any()


@pytest.mark.parametrize("i, kappa", [(3, 0.3), (5, -0.25), (6, 0.1)])
def test_spline_on_a_translated_grid_keeps_the_pointwise_bits(i, kappa):
    # a translation maps the grid's axes to shifted axes, and a box clips
    # them to a block: the row route, with the bits of each node alone
    surface = GridSurface(sample_surface(log_call_surface(), COARSE))
    T, X = COARSE.meshes()
    flowed = apply_transform(FiniteTransform(i, kappa, frame="log"), surface, DEFAULT)
    want = flowed.at(T.ravel(), X.ravel()).reshape(T.shape)
    _assert_same_bits(sample_surface(flowed, COARSE).values, want)


def _fitpack_case(nt, nx, seed):
    """A grid solution of nt x nx nodes, smooth plus noise, and FITPACK's
    interpolating spline of it, the oracle of GridSurface."""
    from scipy.interpolate import RectBivariateSpline

    g = make_grid(0.1, 0.9, nt, math.log(40.0), math.log(250.0), nx)
    rng = np.random.default_rng(seed)
    values = np.exp(g.x_values)[None, :] * (1.0 + g.t_values[:, None]) \
        + rng.normal(size=(nt, nx))
    sol = GridSolution(g, values, frame="log")
    fitpack = RectBivariateSpline(
        g.t_values, g.x_values, values, kx=min(3, nt - 1), ky=min(3, nx - 1))
    return sol, fitpack


def _assert_is_fitpacks_spline(sol, fitpack, rng):
    """Equal knots, and values within 1e-13 of max |values| at the nodes,
    between them and at scattered points of the box."""
    surface = GridSurface(sol)
    t_knots, x_knots = fitpack.get_knots()
    assert np.array_equal(surface._t[0], t_knots)
    assert np.array_equal(surface._x[0], x_knots)
    g = sol.grid
    t_lo, t_hi, x_lo, x_hi = g.t_values[0], g.t_values[-1], g.x_values[0], g.x_values[-1]
    between = make_grid(t_lo, t_hi, 2 * g.nt - 1, x_lo, x_hi, 2 * g.nx - 1)
    t, x = rng.uniform(t_lo, t_hi, 2000), rng.uniform(x_lo, x_hi, 2000)
    bound = 1e-13 * np.max(np.abs(sol.values))
    for ours, theirs in [
        (surface.at(g.t_values[:, None], g.x_values[None, :]),
         fitpack(g.t_values, g.x_values)),
        (surface.at(between.t_values[:, None], between.x_values[None, :]),
         fitpack(between.t_values, between.x_values)),
        (surface.at(t, x), fitpack.ev(t, x)),
    ]:
        assert np.max(np.abs(ours - theirs)) <= bound


@pytest.mark.parametrize("nx", range(2, 9))
@pytest.mark.parametrize("nt", range(2, 9))
def test_spline_is_fitpacks_interpolant_on_few_nodes(nt, nx):
    # 2, 3 and 4 or more nodes per axis: degrees 1, 2 and 3
    sol, fitpack = _fitpack_case(nt, nx, seed=10 * nt + nx)
    _assert_is_fitpacks_spline(sol, fitpack, np.random.default_rng(nt * nx))


@pytest.mark.parametrize("source", ["COARSE", "FD 401x601", "CSV 401x201"])
def test_spline_is_fitpacks_interpolant_on_the_certified_shapes(source, tmp_path):
    from scipy.interpolate import RectBivariateSpline

    if source == "COARSE":
        sol = sample_surface(log_call_surface(), COARSE)
    elif source == "FD 401x601":
        sol = grids.fd_solve(CALL, DEFAULT, make_grid(
            0.0, 1.0, 401, math.log(100.0) - 3.0, math.log(100.0) + 3.0, 601))
    else:
        path = tmp_path / "call.csv"
        grids.write_csv(sample_surface(call_surface(), make_grid(
            0.0, 0.8, 401, math.log(40.0), math.log(250.0), 201)), path)
        sol = grids.read_csv(path)
    g = sol.grid
    fitpack = RectBivariateSpline(g.t_values, g.x_values, sol.values)
    _assert_is_fitpacks_spline(sol, fitpack, np.random.default_rng(3))


def test_certifying_a_grid_solution_loads_no_interpolation_module(tmp_path):
    # the spline is numpy alone: certifying a read-back CSV surface and an
    # FD-solved one loads none of scipy's interpolation, optimisation or
    # sparse modules
    script = textwrap.dedent("""
        import math, sys
        from fractions import Fraction
        from bssym import grids
        from bssym.model import make_context
        from bssym.pricing import ClosedFormSolution, OptionSpec
        from bssym.transforms import FiniteTransform, certify_transform, sample_surface
        ctx = make_context(Fraction(1, 20), Fraction(1, 25))
        spec = OptionSpec(100.0, 1.0, "call")
        grid = grids.make_grid(0.0, 0.8, 41, math.log(60.0), math.log(160.0), 31)
        grids.write_csv(sample_surface(ClosedFormSolution(spec, ctx), grid), sys.argv[1])
        fd = grids.fd_solve(spec, ctx, grids.make_grid(0.0, 1.0, 81, 3.0, 6.2, 121))
        for sol in (grids.read_csv(sys.argv[1]), fd):
            frame = sol.frame
            certify_transform(FiniteTransform(5, 0.1, frame=frame), sol, grid, ctx, 5e-3)
        assert "scipy.linalg" in sys.modules
        print(sorted(m for m in sys.modules if m.startswith(
            ("scipy.interpolate", "scipy.optimize", "scipy.sparse"))))
    """)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "c.csv")],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def _tensor_cases(i, kappa):
    """One surface of each class, flowed by exp(kappa N_i) where a flow
    applies; the bases are box-restricted to COARSE, as certification has
    them, except the bare closed forms."""
    boxed = BoxRestrictedSurface(call_surface(), COARSE)
    spline = GridSurface(sample_surface(log_call_surface(), COARSE))
    flow = FiniteTransform(i, kappa)
    log_flow = FiniteTransform(i, kappa, frame="log")
    return {
        "call": call_surface(),
        "put": ClosedFormSolution(PUT, DEFAULT),
        "boxed call": boxed,
        "flowed call": apply_transform(flow, boxed, DEFAULT),
        "flowed put": apply_transform(
            flow, BoxRestrictedSurface(ClosedFormSolution(PUT, DEFAULT), COARSE), DEFAULT),
        "pipeline": apply_transform(
            compose(flow, FiniteTransform(5, -kappa / 2)), boxed, DEFAULT),
        "flowed spline": apply_transform(log_flow, spline, DEFAULT),
        "boosted spline": apply_transform(
            FiniteTransform(4, kappa, frame="log"), spline, DEFAULT),
        "foreign": apply_transform(
            flow, BoxRestrictedSurface(as_surface(_ForeignCall()), COARSE), DEFAULT),
    }


def _assert_tensor_is_mesh_bit_for_bit(surface, grid):
    """The surface at the grid's t column and x row, at its meshes and at
    its nodes as one flat point set: the same bits, NaN masks included."""
    T, X = grid.meshes()
    tensor = surface.at(grid.t_values[:, None], grid.x_values[None, :])
    mesh = surface.at(T, X)
    flat = surface.at(T.ravel(), X.ravel()).reshape(T.shape)
    for other in (mesh, flat):
        assert tensor.shape == other.shape
        assert np.array_equal(np.isnan(tensor), np.isnan(other))
        assert np.array_equal(tensor.view(np.uint64), other.view(np.uint64))
    return tensor


@given(
    i=st.sampled_from(FLOW_GENERATORS),
    kappa=st.floats(-0.4, 0.4),
    t_lo=st.floats(0.0, 1.1),
    t_len=st.floats(0.05, 0.6),
    x_lo=st.floats(math.log(0.3), math.log(150.0)),
    x_len=st.floats(0.3, 4.0),
)
@settings(max_examples=25)
def test_tensor_evaluation_equals_mesh_evaluation_bit_for_bit(i, kappa, t_lo, t_len, x_lo, x_len):
    grid = make_grid(t_lo, t_lo + t_len, 17, x_lo, x_lo + x_len, 13)
    for surface in _tensor_cases(i, kappa).values():
        _assert_tensor_is_mesh_bit_for_bit(surface, grid)
    for n in (1, i):
        action = infinitesimal_action(basis_isovector(n, DEFAULT), log_call_surface())
        _assert_tensor_is_mesh_bit_for_bit(action, grid)


@pytest.mark.parametrize("case, surface, window, routes", [
    ("all inside", "call", (0.1, 0.7, math.log(50.0), math.log(200.0)), ["kernel"]),
    ("block past maturity", "call", (0.5, 1.5, math.log(50.0), math.log(200.0)),
     ["kernel"]),
    ("block clip", "flowed call", (0.0, 0.8, math.log(0.5), math.log(200.0)),
     ["block", "kernel"]),
    ("sheared clip", "boosted spline", (0.0, 0.8, math.log(0.5), math.log(200.0)),
     ["block"]),
    ("none inside", "put", (1.1, 1.5, math.log(50.0), math.log(200.0)), ["kernel"]),
])
def test_each_masked_route_keeps_the_bits(monkeypatch, case, surface, window, routes):
    # a closed form masks once, in its kernel (`_in_domain`); a box or a
    # spline masks by evaluating the block of its inside points (`_block`),
    # the boost's sheared clip included; there is no other route
    seen = []

    def spy(name, route):
        fn = getattr(pricing, name)

        def spied(*args):
            seen.append(route)
            return fn(*args)

        monkeypatch.setattr(pricing, name, spied)

    t_lo, t_hi, x_lo, x_hi = window
    grid = make_grid(t_lo, t_hi, 11, x_lo, x_hi, 9)
    surface = _tensor_cases(3, 0.3)[surface]
    spy("_block", "block")
    spy("_in_domain", "kernel")
    surface.at(grid.t_values[:, None], grid.x_values[None, :])
    assert seen == routes
    _assert_tensor_is_mesh_bit_for_bit(surface, grid)


def test_bs_price_on_axes_with_nodes_at_expiry_keeps_the_bits():
    t = np.linspace(0.5, 1.0, 11)
    S = np.linspace(60.0, 150.0, 9)
    T, SS = np.meshgrid(t, S, indexing="ij")
    for spec in (CALL, PUT):
        tensor = bs_price(spec, DEFAULT, t[:, None], S[None, :])
        mesh = bs_price(spec, DEFAULT, T, SS)
        flat = bs_price(spec, DEFAULT, T.ravel(), SS.ravel()).reshape(T.shape)
        assert np.array_equal(tensor[-1], spec.payoff(S))
        for other in (mesh, flat):
            assert np.array_equal(tensor.view(np.uint64), other.view(np.uint64))


def _whole_block_residual(sol, ctx, skip_nan=True):
    """The residual operator with its bulk on one whole block and its report
    taken through full-size |res| and |values| arrays, which the strip-wise
    bulk and the report's max/min must reproduce bit for bit.  With
    skip_nan false, every node the bulk leaves non-finite, NaN-valued ones
    included, goes through `_first_finite`."""
    g, v = sol.grid, sol.values
    nt, nx = v.shape
    t_tiers = [{k: w / (12.0 * g.dt) for k, w in d1.items()} for d1 in _D1_TIERS]
    diffusion = 0.5 * ctx.sigma2_f / (12.0 * g.dx * g.dx)
    drift = ctx.rtilde_f / (12.0 * g.dx)
    x_tiers = [_combine((drift, d1), (diffusion, d2)) for d1, d2 in zip(_D1_TIERS, _D2_TIERS)]
    res = np.full((nt - 2, nx - 2), np.nan)
    if nt >= 5 and nx >= 5:
        inner = res[1:-1, 1:-1]
        np.multiply(v[2:-2, 2:-2], -ctx.r_f, out=inner)
        for k, w in t_tiers[0].items():
            inner += w * v[2 + k:nt - 2 + k, 2:-2]
        for k, w in x_tiers[0].items():
            inner += w * v[2:-2, 2 + k:nx - 2 + k]
    i, j = np.nonzero(~np.isfinite(res))
    if skip_nan:
        live = ~np.isnan(v[i + 1, j + 1])
        i, j = i[live], j[live]
    t_term, t_three = _first_finite(v, i + 1, j + 1, 0, t_tiers)
    x_term, x_three = _first_finite(v, i + 1, j + 1, 1, x_tiers)
    res[i, j] = t_term + x_term - ctx.r_f * v[i + 1, j + 1]
    mask, finite = np.isfinite(res), np.isfinite(v)
    finite_vals = v if finite.all() else v[finite]
    picked = res if mask.all() else res[mask]
    return ResidualReport(
        op="E" if sol.frame == "price" else "E2",
        max_abs_residual=float(np.max(np.abs(picked))),
        interior_norm=float(np.sqrt(np.mean(picked * picked))),
        stencil=_STENCIL_FALLBACK if np.any(
            (t_three | x_three) & ~np.isnan(t_term) & ~np.isnan(x_term)) else _STENCIL_4TH,
        scale=float(np.max(np.abs(finite_vals))) if finite_vals.size else 0.0,
        n_interior=int(mask.sum()),
        n_clipped=int(res.size - mask.sum()),
    )


@pytest.mark.parametrize("transform", [
    FiniteTransform(3, 0.3), FiniteTransform(3, -0.3), FiniteTransform(4, 0.3),
    FiniteTransform(5, 0.25), compose(FiniteTransform(3, 0.2), FiniteTransform(5, 0.25)),
], ids=["N3+", "N3-", "N4", "N5", "pipeline"])
def test_residual_skip_of_nan_nodes_changes_no_report(transform):
    result = certify_transform(transform, call_surface(), COARSE, DEFAULT, 5e-4)
    assert result.n_clipped_nodes > 0
    assert result.report == _whole_block_residual(result.samples, DEFAULT, skip_nan=False)
    assert residual_e(result.samples, DEFAULT) == result.report


# strips of whole time rows for a 61-node row: 537 rows each
_STRIP_ROWS = _STRIP_NODES // 61


def _strip_cases():
    """Surfaces of every class on the window t in [0.1, 1.2], past the
    maturity 1.0, and log S in [log 20, log 300]: the closed forms, flows
    clipped to that box (N3 at -0.6 clips the whole first strip of the
    tallest grid, the boost clips on a shear), a pipeline, a spline, the
    actions N1..N6 and a foreign surface, which is clipped to COARSE since
    it raises past maturity."""
    box = make_grid(0.1, 1.2, 12, math.log(20.0), math.log(300.0), 9)
    boxed = BoxRestrictedSurface(call_surface(), box)
    spline = GridSurface(sample_surface(log_call_surface(), COARSE))
    cases = {"call": call_surface(), "log call": log_call_surface(),
             "spline": spline,
             "pipeline": apply_transform(
                 compose(FiniteTransform(3, 0.2), FiniteTransform(4, -0.25)), boxed, DEFAULT),
             "foreign": apply_transform(
                 FiniteTransform(5, 0.2),
                 BoxRestrictedSurface(as_surface(_ForeignCall()), COARSE), DEFAULT)}
    for i, kappa in [(3, 0.3), (3, -0.6), (4, 0.3), (5, -0.25), (6, 0.1)]:
        cases[f"N{i} at {kappa}"] = apply_transform(FiniteTransform(i, kappa), boxed, DEFAULT)
        cases[f"log N{i} at {kappa}"] = apply_transform(
            FiniteTransform(i, kappa, frame="log"),
            BoxRestrictedSurface(log_call_surface(), box), DEFAULT)
    for n in range(1, 7):
        cases[f"action N{n}"] = infinitesimal_action(
            basis_isovector(n, DEFAULT), log_call_surface())
    return cases


@pytest.mark.parametrize("nt, nx, n_strips", [
    (2, 61, 1), (_STRIP_ROWS - 1, 61, 1), (_STRIP_ROWS, 61, 1),
    (2 * _STRIP_ROWS + 5, 61, 3), (3, _STRIP_NODES + 7, 3),
], ids=["nt=2", "below one strip", "one strip", "not a multiple", "one row per strip"])
def test_sampling_in_strips_keeps_the_bits(nt, nx, n_strips, cpu_counts):
    grid = make_grid(0.1, 1.2, nt, math.log(20.0), math.log(300.0), nx)
    assert len(_row_strips(nt, nx)) == n_strips
    meshes, cases = grid.meshes(), _strip_cases()
    wholes = {name: surface.at(*meshes) for name, surface in cases.items()}
    for cpus in cpu_counts:
        for name, surface in cases.items():
            sampled, whole = sample_surface(surface, grid).values, wholes[name]
            assert np.array_equal(np.isnan(sampled), np.isnan(whole)), (name, cpus)
            assert np.array_equal(
                sampled.view(np.uint64), whole.view(np.uint64)), (name, cpus)


class _OneRowSurface:
    """A foreign surface that answers every point set with one row."""

    frame = "log"

    def value(self, t, x):
        return np.zeros(np.shape(x)[-1])


@pytest.mark.parametrize("nt", [3, 2 * (_STRIP_NODES // 121) + 1], ids=["one strip", "three"])
def test_sampling_rejects_values_of_the_wrong_shape(nt):
    grid = make_grid(0.0, 0.8, nt, 0.0, 1.0, 121)
    with pytest.raises(ValueError, match="shape"):
        sample_surface(as_surface(_OneRowSurface()), grid)


class _OneValueSurface:
    """A foreign surface that answers every point set with one value."""

    frame = "log"

    def value(self, t, x):
        return np.zeros(1)


def test_wrong_shapes_are_rejected_before_a_per_node_prefactor():
    # N4's prefactor varies node by node, so it would broadcast a wrong
    # shape into the right one; the foreign answer is checked first
    boost = FiniteTransform(4, 0.1, frame="log")
    with pytest.raises(ValueError, match="shape"):
        certify_transform(boost, _OneRowSurface(), make_grid(0.0, 0.8, 41, 0.0, 1.0, 31),
                          DEFAULT, 5e-3)
    with pytest.raises(ValueError, match=r"shape \(1,\) at points \(2,\)"):
        apply_transform(boost, _OneValueSurface(), DEFAULT).value(
            np.asarray([0.1, 0.2]), np.asarray([0.3, 0.4]))


# four strips of 270 rows of 121 nodes, the last one a single row
_FOUR_STRIPS = make_grid(0.0, 0.8, 3 * (_STRIP_NODES // 121) + 1, 0.0, 1.0, 121)


class _OneAtATime:
    """Foreign code, a log surface e^(x - t), that raises if it is entered
    while it is running."""

    frame = "log"

    def __init__(self):
        self.running = False

    def value(self, t, x):
        if self.running:
            raise RuntimeError("entered while it was running")
        self.running = True
        try:
            time.sleep(0.005)
            return np.exp(x - t)
        finally:
            self.running = False


def test_outside_code_runs_alone_and_concurrent_samples_keep_the_bits(monkeypatch):
    """Three callers sample the same surfaces at once, each spreading its
    strips over four pool threads, while the interpreter switches threads
    every 10 us: no foreign `value` is entered while it runs, and every
    sample, the spline's on its lock-free grid and boosted routes and the
    lock-free action's included, has the serial loop's bits."""
    spline = GridSurface(sample_surface(log_call_surface(), COARSE))
    surfaces = [spline, apply_transform(FiniteTransform(4, 0.2, frame="log"), spline, DEFAULT),
                as_surface(_OneAtATime()), call_surface(),
                infinitesimal_action(basis_isovector(4, DEFAULT), log_call_surface())]
    monkeypatch.setattr(grids, "_cpus", lambda: 1)
    want = [sample_surface(s, _FOUR_STRIPS).values for s in surfaces]
    monkeypatch.setattr(grids, "_cpus", lambda: 5)
    got, errors = {}, []

    def run(k):
        try:
            got[k] = [sample_surface(s, _FOUR_STRIPS).values for s in surfaces]
        except Exception as exc:  # reported below, on the test's thread
            errors.append(exc)

    callers = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert not errors, errors
    assert sorted(got) == [0, 1, 2]
    for values in got.values():
        for a, b in zip(values, want):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class _FailingRows:
    """A foreign surface that raises on every strip but the first, naming
    the first time of its rows."""

    frame = "log"

    def value(self, t, x):
        if t[0, 0] > 0:
            raise ValueError(f"rows from t = {float(t[0, 0])!r}")
        return np.zeros(t.shape)


def test_sampling_raises_the_first_failing_strip_in_row_order(three_cpus):
    first = float(_FOUR_STRIPS.t_values[_row_strips(_FOUR_STRIPS.nt, _FOUR_STRIPS.nx)[1][0]])
    for _ in range(5):
        with pytest.raises(ValueError, match=re.escape(f"rows from t = {first!r}") + "$"):
            sample_surface(_FailingRows(), _FOUR_STRIPS)


class _DividingSurface:
    """A foreign surface whose every value divides by zero."""

    frame = "log"

    def value(self, t, x):
        return np.divide(np.ones(t.shape), np.zeros(t.shape))


def test_sampling_keeps_the_callers_numpy_error_state(three_cpus):
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        sample_surface(_DividingSurface(), _FOUR_STRIPS)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        values = sample_surface(_DividingSurface(), _FOUR_STRIPS).values
    assert np.isposinf(values).all()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_samples_on_its_own_pool():
    script = textwrap.dedent("""
        import os, signal, sys, warnings
        from fractions import Fraction
        import numpy as np
        from bssym import grids
        from bssym.grids import make_grid
        from bssym.model import make_context
        from bssym.pricing import LogClosedForm, OptionSpec
        from bssym.transforms import sample_surface

        grids._cpus = lambda: 2
        grid = make_grid(0.0, 0.8, 801, 4.0, 5.0, 121)
        call = LogClosedForm(OptionSpec(100.0, 1.0), make_context(Fraction(1, 20), Fraction(1, 25)))
        # the parent's pool threads exist now; a forked child has none of them
        before = sample_surface(call, grid).values
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            signal.alarm(100)  # a deadlocked child must not outlive the test
            os._exit(0 if np.array_equal(sample_surface(call, grid).values, before) else 1)
        sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """)
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120)


def test_action_at_maturity_is_nan_on_the_maturity_row_only():
    action = infinitesimal_action(
        basis_isovector(4, DEFAULT), LogClosedForm(OptionSpec(100.0, 1.0), DEFAULT))
    grid = make_grid(0.0, 1.0, 11, 4.0, 5.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = sample_surface(action, grid).values
        before = sample_surface(action, Grid(grid.t_values[:-1], grid.x_values)).values
    assert np.isfinite(values[:-1]).all()
    assert np.isnan(values[-1]).all()
    assert np.array_equal(values[:-1].view(np.uint64), before.view(np.uint64))


# strips of whole rows of the residual's bulk, 97 nodes wide on a 101-node row
_BULK_ROWS = _STRIP_NODES // 97


@pytest.mark.parametrize("nt", [5, 6, _BULK_ROWS + 3, _BULK_ROWS + 5, 2 * _BULK_ROWS + 7],
                         ids=["5", "6", "one strip - 1", "one strip + 1", "two strips + 3"])
def test_residual_in_strips_keeps_every_report_field(nt, cpu_counts):
    grid = make_grid(0.0, 0.8, nt, math.log(20.0), math.log(300.0), 101)
    samples = [
        sample_surface(call_surface(), grid),
        sample_surface(log_call_surface(), grid),
        sample_surface(
            infinitesimal_action(basis_isovector(4, DEFAULT), log_call_surface()), grid),
        # a NaN-clipped block: the time shift pulls the last rows off the grid
        sample_surface(apply_transform(
            FiniteTransform(3, 0.3), BoxRestrictedSurface(call_surface(), grid), DEFAULT), grid),
        GridSolution(grid, np.zeros((nt, 101)), frame="log"),
        GridSolution(grid, -np.zeros((nt, 101)), frame="price"),
    ]
    assert np.isnan(samples[3].values).any()
    wholes = [_whole_block_residual(sol, DEFAULT) for sol in samples]
    for cpus in cpu_counts:
        for sol, whole in zip(samples, wholes):
            report = (residual_e if sol.frame == "price" else residual_e2)(sol, DEFAULT)
            # dataclass equality: every field, interior_norm included
            assert report == whole, cpus
    for zero in samples[4:]:
        report = (residual_e if zero.frame == "price" else residual_e2)(zero, DEFAULT)
        assert math.copysign(1.0, report.scale) == 1.0
        assert math.copysign(1.0, report.max_abs_residual) == 1.0


class _DuckJet:
    """A log surface from outside bssym with the closed form's jet and
    domain, delegated: an action takes the closed form itself, not its shape."""

    frame = "log"

    def __init__(self):
        self._call = log_call_surface()

    def inside(self, t, x):
        return self._call.inside(t, x)

    def value_and_derivatives(self, t, x, dt, dx):
        return self._call.value_and_derivatives(t, x, dt, dx)


@pytest.mark.parametrize("base", [
    lambda: GridSurface(sample_surface(log_call_surface(), COARSE)),
    lambda: apply_transform(FiniteTransform(5, 0.1), call_surface(), DEFAULT),
    lambda: as_surface(_ForeignCall()),
    _DuckJet,
], ids=["spline", "flowed call", "foreign", "duck-typed jet"])
def test_an_action_refuses_a_base_that_is_not_the_closed_form(base):
    with pytest.raises(ValueError, match="does not expose derivatives"):
        infinitesimal_action(basis_isovector(4, DEFAULT), base())


def test_infinitesimal_action_of_scaling_is_identity():
    surf = log_call_surface()
    act = infinitesimal_action(basis_isovector(6, DEFAULT), surf)
    for t, x in ((0.2, math.log(90.0)), (0.7, math.log(130.0))):
        assert act.value(t, x) == pytest.approx(surf.value(t, x), rel=1e-15)


def test_infinitesimal_action_keeps_the_label():
    N = basis_isovector(4, DEFAULT)
    price = sample_surface(infinitesimal_action(N, call_surface()), COARSE)
    log = sample_surface(infinitesimal_action(N, log_call_surface()), COARSE)
    assert (price.frame, log.frame) == ("price", "log")
    assert np.array_equal(price.values, log.values)
    grid_route = infinitesimal_action(N, price)
    assert grid_route.frame == "price"


def test_infinitesimal_action_maps_solutions_to_solutions():
    g = make_grid(0.0, 0.8, 201, math.log(20.0), math.log(400.0), 201)
    surf = log_call_surface()
    for i in (1, 2, 4, 6):
        act = infinitesimal_action(basis_isovector(i, DEFAULT), surf)
        sampled = sample_surface(act, g)
        rep = residual_e2(sampled, DEFAULT)
        assert rep.rel_max < 5e-3, (i, rep.rel_max)


def test_infinitesimal_action_grid_route_agrees():
    g = make_grid(0.0, 0.8, 161, math.log(50.0), math.log(200.0), 161)
    surf = log_call_surface()
    N = basis_isovector(2, DEFAULT)
    exact = sample_surface(infinitesimal_action(N, surf), g)
    sampled = sample_surface(surf, g)
    stencil = infinitesimal_action(N, GridSolution(g, sampled.values, frame="log"))
    inner_exact = exact.values[1:-1, 1:-1]
    inner_st = stencil.values[1:-1, 1:-1]
    assert np.isnan(stencil.values[0]).all()
    scale = np.max(np.abs(inner_exact))
    assert np.max(np.abs(inner_exact - inner_st)) < 2e-3 * scale


def test_infinitesimal_action_grid_route_is_fourth_order():
    # the stencil route shares the residual operator's fourth-order first
    # derivatives: its error shrinks about 16x per halving of the spacing
    surf = log_call_surface()
    for i in (2, 5):
        N = basis_isovector(i, DEFAULT)
        errors = []
        for n in (81, 161, 321):
            g = make_grid(0.0, 0.8, n, math.log(50.0), math.log(200.0), n)
            exact = sample_surface(infinitesimal_action(N, surf), g).values[1:-1, 1:-1]
            sampled = GridSolution(g, sample_surface(surf, g).values, frame="log")
            stencil = infinitesimal_action(N, sampled).values[1:-1, 1:-1]
            errors.append(np.max(np.abs(exact - stencil)) / np.max(np.abs(exact)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 < coarse / fine < 20.0, (i, errors)


@pytest.mark.parametrize("i", range(1, 7))
def test_the_grid_route_of_an_action_is_quiet_past_the_float_range(i):
    # phi = 1e308: the stencils and h phi overflow, quietly; N6 is the
    # identity on solutions
    sol = GridSolution(make_grid(0, 1, 9, 0, 1, 9), np.full((9, 9), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        act = infinitesimal_action(basis_isovector(i, DEFAULT), sol)
    assert np.isfinite(act.values).all() == (i == 6)


def test_action_of_solution_direction_is_inhomogeneous_shift():
    mode = SolutionSpec.mode_for(1, DEFAULT)
    Nu = solution_isovector(mode, DEFAULT)
    surf = log_call_surface()
    act = infinitesimal_action(Nu, surf)
    t, x = 0.3, math.log(95.0)
    # N^t = N^x = 0 and h = 0, so the action is just the mode itself
    ((coeff, a, b),) = mode.modes
    want = math.exp(float(a) * t + float(b) * x)
    assert act.value(t, x) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("surface", [call_surface, log_call_surface])
@pytest.mark.parametrize("i", FLOW_GENERATORS)
def test_every_flow_is_tangent_to_its_action(i, surface):
    # the central difference (exp(h N) phi - exp(-h N) phi)/(2h) is the
    # action up to O(h^2); a sign or factor slip in a flow's row gives a
    # gap of order 1
    surf, h = surface(), 1e-5
    act = infinitesimal_action(basis_isovector(i, DEFAULT), surf)
    fwd, bwd = (
        apply_transform(FiniteTransform(i, k, frame=surf.frame), surf, DEFAULT)
        for k in (h, -h)
    )
    for t, x in ((0.1, math.log(90.0)), (0.4, math.log(100.0)), (0.7, math.log(115.0))):
        want = act.at(t, x)
        assert abs((fwd.at(t, x) - bwd.at(t, x)) / (2.0 * h) - want) < 1e-6 * abs(want)


@pytest.mark.parametrize("surface", [call_surface, log_call_surface])
def test_action_is_nan_outside_the_base_domain_without_warning(surface):
    surf = surface()
    xs = np.array([np.inf, -np.inf, 800.0, -800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(1, 7):
            act = infinitesimal_action(basis_isovector(i, DEFAULT), surf)
            assert all(math.isnan(act.at(0.5, x)) for x in xs), i
            assert np.isnan(act.at(0.5, xs)).all(), i


def test_richardson_limit_toward_action():
    # (T_kappa phi - phi)/kappa approaches the infinitesimal action at
    # second order in kappa: halving kappa halves the defect
    surf = log_call_surface()
    N = basis_isovector(4, DEFAULT)
    act = infinitesimal_action(N, surf)
    probes = [(0.1, math.log(90.0)), (0.4, math.log(100.0)), (0.7, math.log(115.0))]
    defects = []
    for kappa in (1e-3, 5e-4):
        tr = FiniteTransform(4, kappa, frame="log")
        moved = apply_transform(tr, surf, DEFAULT)
        gaps = [
            abs((moved.value(t, x) - surf.value(t, x)) / kappa - act.value(t, x))
            for t, x in probes
        ]
        defects.append(max(gaps))
    ratio = defects[0] / defects[1]
    assert 1.7 < ratio < 2.3


def test_sampling_takes_what_as_surface_takes():
    # a GridSolution is sampled through its spline, which meets its nodes
    samples = sample_surface(call_surface(), COARSE)
    resampled = sample_surface(samples, COARSE)
    assert resampled.frame == samples.frame
    gap = np.max(np.abs(resampled.values - samples.values))
    assert gap <= 1e-12 * np.max(np.abs(samples.values))
    # a foreign price surface is sampled at S = e^x
    foreign = sample_surface(_ForeignCall(), COARSE)
    T, X = COARSE.meshes()
    assert foreign.frame == "price"
    assert np.array_equal(foreign.values, _ForeignCall().value(T, np.exp(X)))


def test_as_surface_round_trip():
    samples = sample_surface(call_surface(), COARSE)
    surf = as_surface(samples)
    assert isinstance(surf, GridSurface)
    assert as_surface(surf) is surf
    T, X = COARSE.meshes()
    vals = surf.value(T, np.exp(X))
    assert np.allclose(vals, samples.values, rtol=1e-9, atol=1e-9, equal_nan=True)
