"""Exact exponential-polynomial arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bssym.exppoly import VARS, ExpPoly, _sum_of_products

coeffs = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=40
)
small_exps = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in VARS))
exp_sigs = st.tuples(
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4),
)


@st.composite
def exppolys(draw, max_terms=4):
    p = ExpPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        p = p + ExpPoly.term(draw(coeffs), draw(small_exps), *draw(exp_sigs))
    return p


polys = exppolys()
# terms c * t^i x^j * exp(a*t + b*x), as (c, i, j, (a, b))
tx_terms = st.lists(
    st.tuples(coeffs, st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=2), exp_sigs),
    max_size=4,
)


def test_constructors_and_predicates():
    assert ExpPoly.zero().is_zero()
    assert ExpPoly.one().is_constant()
    assert ExpPoly.constant(Fraction(3, 7)).constant_value() == Fraction(3, 7)
    x = ExpPoly.var("x")
    assert x.depends_on("x") and not x.depends_on("t")
    assert x.degree_in("x") == 1
    assert ExpPoly.term(1, a=1, b=2).depends_on("t")
    assert not ExpPoly.term(1, a=0, b=2).depends_on("t")
    assert {sig for (_, sig), _ in ExpPoly.var("phi").sorted_terms()} == {(0, 0)}
    assert {sig for (_, sig), _ in ExpPoly.term(1, a=1, b=0).sorted_terms()} == {(1, 0)}


def test_var_rejects_unknown_name():
    with pytest.raises(ValueError):
        ExpPoly.var("y")


def test_floats_rejected():
    with pytest.raises(TypeError):
        ExpPoly.var("x") * 0.5
    with pytest.raises(TypeError):
        ExpPoly.var("x") + 0.5


def test_term_rejects_a_non_integer_exponent():
    # 1.5 is not truncated to t
    with pytest.raises(TypeError):
        ExpPoly.term(1, (1.5, 0, 0, 0, 0))
    assert ExpPoly.term(1, (np.int64(2), 0, 0, 0, 0)) == ExpPoly.var("t") * ExpPoly.var("t")


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
    e1 = ExpPoly.term(1, a=Fraction(1, 2), b=1)
    e2 = ExpPoly.term(1, a=Fraction(1, 2), b=-1)
    assert e1 * e2 == ExpPoly.term(1, a=1, b=0)
    # d/dt e^{at+bx} = a e^{at+bx}
    assert e1.diff("t") == ExpPoly.constant(Fraction(1, 2)) * e1
    assert e1.diff("x") == e1


@given(tx_terms)
def test_evaluate_agrees_with_exact(terms):
    # eval_grid against each term written out in floats, on a t column and
    # an x row; merged terms round differently, so the bound scales with
    # the sum of the terms' sizes
    t, x = np.asarray([[1 / 3], [-1.5]]), np.asarray([[-0.4, 0.0, 1.25]])
    p = ExpPoly.zero()
    want, size = np.zeros((2, 3)), np.zeros((2, 3))
    for c, i, j, (a, b) in terms:
        p = p + ExpPoly.term(c, (i, j, 0, 0, 0), a, b)
        part = float(c) * t**i * x**j * np.exp(float(a) * t + float(b) * x)
        want, size = want + part, size + abs(part)
    got = p.eval_grid(t, x)
    assert got.shape == (2, 3)
    assert np.all(abs(got - want) <= 1e-12 * size)


@pytest.mark.parametrize("name", ["phi", "A", "B"])
def test_eval_grid_rejects_a_term_in_the_jet_variables(name):
    p = ExpPoly.term(1, a=1, b=0) + ExpPoly.var(name) * ExpPoly.var("x")
    with pytest.raises(ValueError, match="no term in phi, A or B"):
        p.eval_grid(0.5, np.asarray([1.0, 2.0]))


def test_eval_grid_broadcasts():
    p = ExpPoly.term(Fraction(2), (1, 1, 0, 0, 0)) + ExpPoly.term(1, a=0, b=1)
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
    assert str(ExpPoly.term(1, a=Fraction(1, 20), b=0)) == "exp(1/20*t)"
    q = ExpPoly.term(Fraction(-1, 2), (0, 1, 0, 0, 0), 0, 2)
    assert str(q) == "-1/2*x*exp(2*x)"
    r = ExpPoly.term(3, (1, 0, 0, 0, 0), Fraction(1, 2), -2)
    assert str(r) == "3*t*exp(1/2*t - 2*x)"
    assert str(ExpPoly.term(1, a=-1, b=1) - ExpPoly.var("x")) == "-x + exp(-1*t + x)"


# -- term storage ----------------------------------------------------------------

# few distinct signatures, so that terms of one signature meet and cancel
shared_sigs = st.sampled_from(
    [(0, 0), (Fraction(1, 2), -1), (-1, Fraction(2, 3)), (0, 2), (Fraction(-1, 20), 1)]
)


@st.composite
def mixed_polys(draw, max_terms=6):
    """Lists of terms over at least two distinct nonzero signatures."""
    sigs = draw(st.lists(shared_sigs.filter(lambda s: s != (0, 0)),
                         min_size=2, max_size=4, unique=True))
    sigs += draw(st.lists(shared_sigs, max_size=max_terms - len(sigs)))
    return [ExpPoly.term(draw(coeffs.filter(bool)), draw(small_exps), *sig)
            for sig in sigs]


def total(terms):
    out = ExpPoly.zero()
    for term in terms:
        out = out + term
    return out


@given(mixed_polys(), st.randoms(use_true_random=False))
def test_sums_in_any_order_are_equal_and_hash_equal(terms, rng):
    shuffled = list(terms)
    rng.shuffle(shuffled)
    p, q = total(terms), total(shuffled)
    assert p == q and hash(p) == hash(q)


@given(mixed_polys(max_terms=4), mixed_polys(max_terms=4), st.randoms(use_true_random=False))
def test_products_in_any_order_are_equal_and_hash_equal(left, right, rng):
    p = total(left) * total(right)
    factors = list(left), list(right)
    for part in factors:
        rng.shuffle(part)
    # expand term by term, in a shuffled order of the pairs
    pairs = [(a, b) for a in factors[1] for b in factors[0]]
    rng.shuffle(pairs)
    q = total([a * b for a, b in pairs])
    assert p == q and hash(p) == hash(q)
    assert total(right) * total(left) == p


@given(mixed_polys())
def test_difference_with_itself_is_the_zero_constant(terms):
    p = total(terms)
    for zero in (p - p, p + (-p), p * 0, (p - p) * p):
        assert zero.is_zero() and zero.is_constant()
        assert zero == ExpPoly.zero() and hash(zero) == hash(ExpPoly.zero())
        assert zero.constant_value() == 0 and str(zero) == "0"


def test_trivial_exponential_is_one():
    assert ExpPoly.term(1, a=0, b=0) == ExpPoly.one()
    assert hash(ExpPoly.term(1, a=0, b=0)) == hash(ExpPoly.one())
    assert ExpPoly.term(1, a=0, b=0).is_constant()
    e = ExpPoly.term(1, a=Fraction(1, 2), b=-1)
    assert e * ExpPoly.term(1, a=Fraction(-1, 2), b=1) == ExpPoly.one()
    assert (e * ExpPoly.term(1, a=Fraction(-1, 2), b=1)).is_constant()


def _pinned_polys():
    t, x, phi, A, B = (ExpPoly.var(n) for n in VARS)
    return {
        "mixed": ExpPoly.term(Fraction(3, 4), (1, 0, 0, 0, 0), Fraction(1, 2), -1)
        - x * ExpPoly.term(1, a=Fraction(1, 2), b=-1)
        + ExpPoly.constant(Fraction(-5, 3)) * t * t * phi
        + ExpPoly.term(1, a=0, b=2) * A + B - 7,
        "product": (x + ExpPoly.term(1, a=Fraction(-1, 20), b=1))
        * (t - ExpPoly.term(1, a=Fraction(1, 20), b=-1) * B),
        "derivative": (
            ExpPoly.term(2, (2, 1, 0, 0, 0), 1, Fraction(2, 3))
            + t * ExpPoly.term(1, a=-1, b=0)
        ).diff("t"),
    }


F = Fraction
PINNED = {
    "mixed": (
        "-5/3*t^2*phi + 3/4*t*exp(1/2*t - 1*x) - x*exp(1/2*t - 1*x) "
        "+ A*exp(2*x) + B - 7",
        [(((2, 0, 1, 0, 0), (F(0), F(0))), F(-5, 3)),
         (((1, 0, 0, 0, 0), (F(1, 2), F(-1))), F(3, 4)),
         (((0, 1, 0, 0, 0), (F(1, 2), F(-1))), F(-1)),
         (((0, 0, 0, 1, 0), (F(0), F(2))), F(1)),
         (((0, 0, 0, 0, 1), (F(0), F(0))), F(1)),
         (((0, 0, 0, 0, 0), (F(0), F(0))), F(-7))],
    ),
    "product": (
        "t*x - x*B*exp(1/20*t - 1*x) + t*exp(-1/20*t + x) - B",
        [(((1, 1, 0, 0, 0), (F(0), F(0))), F(1)),
         (((0, 1, 0, 0, 1), (F(1, 20), F(-1))), F(-1)),
         (((1, 0, 0, 0, 0), (F(-1, 20), F(1))), F(1)),
         (((0, 0, 0, 0, 1), (F(0), F(0))), F(-1))],
    ),
    "derivative": (
        "2*t^2*x*exp(t + 2/3*x) + 4*t*x*exp(t + 2/3*x) - t*exp(-1*t) + exp(-1*t)",
        [(((2, 1, 0, 0, 0), (F(1), F(2, 3))), F(2)),
         (((1, 1, 0, 0, 0), (F(1), F(2, 3))), F(4)),
         (((1, 0, 0, 0, 0), (F(-1), F(0))), F(-1)),
         (((0, 0, 0, 0, 0), (F(-1), F(0))), F(1))],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rendering_is_pinned(name):
    p = _pinned_polys()[name]
    text, terms = PINNED[name]
    assert str(p) == text
    assert p.sorted_terms() == terms


def test_signatures_interned_from_many_threads_stay_distinct():
    import sys
    import threading

    def build(worker, bad):
        for j in range(300):
            sig = (Fraction(j, 7919), Fraction(worker + 1, 104729))
            p = ExpPoly.term(1, a=sig[0], b=sig[1]) * ExpPoly.var("x")
            if p.sorted_terms() != [(((0, 1, 0, 0, 0), sig), 1)]:
                bad.append((worker, j))

    bad = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(w, bad)) for w in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert bad == []


# -- the integer kernel ------------------------------------------------------------


def reference_terms(p):
    """The terms of p as {(exps, (a, b)): Fraction}, read at the boundary."""
    return {mono: coeff for mono, coeff in p.sorted_terms()}


def reference_product(p, q):
    """p*q multiplied out term by term in Fractions and exponent tuples."""
    out = {}
    for (e1, (a1, b1)), c1 in p.sorted_terms():
        for (e2, (a2, b2)), c2 in q.sorted_terms():
            mono = (tuple(i + j for i, j in zip(e1, e2)), (a1 + a2, b1 + b2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


@given(mixed_polys(max_terms=4), mixed_polys(max_terms=4))
def test_product_matches_the_term_by_term_reference(left, right):
    p, q = total(left), total(right)
    assert reference_terms(p * q) == reference_product(p, q)


def reference_diff(p, name):
    """The partial of p in name, by the product rule on each term
    c * t^i x^j phi^k A^l B^m * exp(a*t + b*x) in Fractions."""
    v = VARS.index(name)
    out = {}
    for (exps, (a, b)), c in p.sorted_terms():
        if exps[v]:
            lowered = tuple(e - (k == v) for k, e in enumerate(exps))
            out[(lowered, (a, b))] = out.get((lowered, (a, b)), 0) + c * exps[v]
        rate = (a, b)[v] if v < 2 else 0
        if rate:
            out[(exps, (a, b))] = out.get((exps, (a, b)), 0) + c * rate
    return {mono: c for mono, c in out.items() if c}


@st.composite
def grouped_polys(draw):
    """Terms in two or three signature groups, each drawn beside a term one
    power up in t or x, in any order, so that lowered and rate terms meet."""
    sigs = draw(st.lists(shared_sigs.filter(lambda s: s != (0, 0)),
                         min_size=2, max_size=3, unique=True))
    terms = []
    for sig in sigs:
        for _ in range(draw(st.integers(1, 3))):
            exps = list(draw(small_exps))
            up = list(exps)
            up[draw(st.integers(0, 1))] += 1
            terms += [ExpPoly.term(draw(coeffs.filter(bool)), e, *sig) for e in (exps, up)]
    return draw(st.permutations(terms))


@given(grouped_polys(), st.sampled_from(VARS))
def test_diff_matches_the_term_by_term_reference(terms, name):
    p = total(terms)
    got = p.diff(name)
    assert reference_terms(got) == reference_diff(p, name)
    want = total([ExpPoly.term(c, exps, *sig)
                  for (exps, sig), c in reference_diff(p, name).items()])
    assert got == want and hash(got) == hash(want)
    assert p._grad() == tuple(p.diff(v) for v in VARS)


def test_diff_drops_a_term_that_cancels_in_an_exponential_group():
    x = ExpPoly.var("x")
    e = ExpPoly.term(1, b=Fraction(1, 2))
    # d/dx (x - 2) e^(x/2) = e^(x/2) + (x/2 - 1) e^(x/2) = (x/2) e^(x/2)
    got = ((x - 2) * e).diff("x")
    assert got == Fraction(1, 2) * x * e
    assert got.sorted_terms() == [(((0, 1, 0, 0, 0), (0, Fraction(1, 2))), Fraction(1, 2))]


polys_pairs = st.lists(st.tuples(mixed_polys(max_terms=4), mixed_polys(max_terms=4)),
                       max_size=4)


@given(polys_pairs, polys_pairs)
def test_sum_of_products_is_the_sum_of_the_products(plus, minus):
    plus = [(total(p), total(q)) for p, q in plus]
    minus = [(total(p), total(q)) for p, q in minus]
    want = ExpPoly.zero()
    for p, q in plus:
        want = want + p * q
    for p, q in minus:
        want = want + (-1) * (p * q)
    got = _sum_of_products(plus, minus)
    assert got == want and hash(got) == hash(want)
    # pairs that cancel: each pair against itself, and against its negation
    for zero in (_sum_of_products(plus, plus),
                 _sum_of_products(plus + [(p, -q) for p, q in plus])):
        assert zero == ExpPoly.zero() and hash(zero) == hash(ExpPoly.zero())
    assert _sum_of_products(plus + minus, plus) == _sum_of_products(minus)


def test_cancelled_denominators_compare_and_hash_equal():
    x = ExpPoly.var("x")
    built = [
        Fraction(2, 3) * (Fraction(3, 2) * x),
        ExpPoly.constant(Fraction(2, 3)) * ExpPoly.constant(Fraction(3, 2)) * x,
        ExpPoly.term(Fraction(1, 6), (0, 1, 0, 0, 0)) + ExpPoly.term(Fraction(5, 6), (0, 1, 0, 0, 0)),
        ExpPoly.term(Fraction(1, 2), (0, 2, 0, 0, 0)).diff("x"),
        (ExpPoly.term(Fraction(3, 4), (0, 1, 0, 0, 1)) + ExpPoly.term(Fraction(1, 3), (0, 0, 0, 0, 0)))
        .coeff_of("B", 1) * Fraction(4, 3),
    ]
    for p in built:
        assert p == x and hash(p) == hash(x) and str(p) == "x"
    one = ExpPoly.constant(Fraction(2, 3)) * Fraction(3, 2)
    assert one == 1 and type(one.constant_value()) is Fraction


@given(mixed_polys(), coeffs.filter(bool))
def test_scaling_back_restores_storage_and_hash(terms, c):
    p = total(terms)
    q = (p * c) * (1 / c)
    assert q == p and hash(q) == hash(p)
    assert (p * c - p * c).is_zero()


@given(polys)
def test_sorted_terms_yield_exponent_tuples_and_fractions(p):
    for (exps, sig), coeff in p.sorted_terms():
        assert type(exps) is tuple and len(exps) == 5
        assert all(type(e) is int and e >= 0 for e in exps)
        assert all(type(s) is Fraction for s in sig)
        assert type(coeff) is Fraction and coeff != 0


# -- exponent fields -------------------------------------------------------------

EXP_MAX = 31  # the largest exponent an ExpPoly stores


@pytest.mark.parametrize("name", VARS)
def test_term_takes_exponents_up_to_the_field_size(name):
    exps = [0] * 5
    exps[VARS.index(name)] = EXP_MAX
    top = ExpPoly.term(3, exps)
    assert top.degree_in(name) == EXP_MAX
    assert top.sorted_terms() == [((tuple(exps), (0, 0)), 3)]
    exps[VARS.index(name)] = EXP_MAX + 1
    with pytest.raises(ValueError, match="exponent above 31"):
        ExpPoly.term(3, exps)


@pytest.mark.parametrize("name", VARS)
def test_a_product_past_the_field_size_raises(name):
    v = ExpPoly.var(name)
    half = [0] * 5
    half[VARS.index(name)] = 16
    with pytest.raises(ValueError, match="exponent above 31"):
        ExpPoly.term(1, half) * ExpPoly.term(2, half)
    # a chain of products reaches the top exponent and no further
    p = ExpPoly.one() + ExpPoly.var("t" if name != "t" else "x")
    for _ in range(EXP_MAX):
        p = p * v
    assert p.degree_in(name) == EXP_MAX
    assert all(p.degree_in(other) <= 1 for other in VARS if other != name)
    with pytest.raises(ValueError, match="exponent above 31"):
        p * v
    with pytest.raises(ValueError, match="exponent above 31"):
        _sum_of_products([(ExpPoly.one(), ExpPoly.one()), (p, v)])
