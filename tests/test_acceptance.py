"""Acceptance suite.

Eight numbered criteria gate the package: exact symmetry verification (1),
structural-form identities (2), the bracket algebra (3), finite-flow
certification on the canonical grid (4), infinitesimal actions (5), group
laws (6), solver convergence plus parity (7), and negative controls (8).

Each criterion has a summary test that records exactly one pass/fail line
(echoed by the terminal-summary hook); criteria whose sub-cases carry
independent information (4 and 5) are additionally parametrized one test
per sub-case.  Tolerances are pinned here and nowhere else.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import MODEL_POINTS, record_criterion

from bssym.exppoly import ExpPoly
from bssym.forms import DiffForm, contract, structural_forms, wedge
from bssym.grids import GridSolution, fd_solve, make_grid, residual_e2
from bssym.ideal import ideal_membership
from bssym.isovectors import (
    Generator,
    Isovector,
    SolutionSpec,
    basis_isovector,
    bracket,
    bracket_gh,
    gh_of,
    isovector_from_generator,
    solution_isovector,
    structure_constants,
    verify_isovector,
)
from bssym.model import make_context
from bssym.pricing import ClosedFormSolution, LogClosedForm, OptionSpec, bs_price
from bssym.transforms import (
    FiniteTransform,
    apply_transform,
    certify_transform,
    infinitesimal_action,
    sample_surface,
)

# pinned tolerances and budgets
RESIDUAL_REL = 5e-4
GROUP_LAW_REL = 1e-10
PARITY_REL = 1e-10
RATIO_WINDOW = (3.5, 4.5)
BUDGET_VERIFY = 10.0
BUDGET_IDENTITIES = 1.0
BUDGET_ALGEBRA = 5.0
BUDGET_FLOWS = 30.0

DEFAULT = make_context(Fraction(1, 20), Fraction(1, 25))
CALL = OptionSpec(100.0, 1.0, "call")
KAPPAS = (-0.3, -0.1, -0.05, 0.05, 0.1, 0.3)
FLOWS = (3, 4, 5, 6)


@pytest.fixture(scope="module")
def acceptance_grid():
    # dt ="1e-3", dx ~= 0.01 over the full price range [0.5, 200]
    return make_grid(0.0, 0.8, 801, math.log(0.5), math.log(200.0), 601)


@pytest.fixture(scope="module")
def call_surface():
    return ClosedFormSolution(CALL, DEFAULT)


@pytest.fixture(scope="module")
def flow_certificates(acceptance_grid, call_surface):
    started = time.perf_counter()
    certs = {}
    for i in FLOWS:
        for kappa in KAPPAS:
            certs[(i, kappa)] = certify_transform(
                FiniteTransform(i, kappa, frame="price"),
                call_surface,
                acceptance_grid,
                DEFAULT,
                RESIDUAL_REL,
            )
    return certs, time.perf_counter() - started


def action_candidates():
    out = [(f"N{i}", basis_isovector(i, DEFAULT)) for i in range(1, 7)]
    out.append(
        ("N_u", solution_isovector(SolutionSpec.mode_for(1, DEFAULT), DEFAULT))
    )
    return out


@pytest.fixture(scope="module")
def action_residuals(acceptance_grid, call_surface):
    log_surf = LogClosedForm(CALL, DEFAULT)
    rels = {}
    for name, N in action_candidates():
        acted = infinitesimal_action(N, log_surf)
        sampled = sample_surface(acted, acceptance_grid)
        rels[name] = residual_e2(sampled, DEFAULT).rel_max
    return rels


# -- criterion 1: exact symmetry verification --------------------------------


def _verification_set(ctx):
    out = [basis_isovector(i, ctx) for i in range(1, 7)]
    out.append(solution_isovector(SolutionSpec.single(1, ctx.r, 0), ctx, name="N_exp_rt"))
    out.append(solution_isovector(SolutionSpec.mode_for(1, ctx), ctx, name="N_exp_x"))
    out.append(solution_isovector(SolutionSpec.mode_for(2, ctx), ctx, name="N_mode2"))
    return out


def test_criterion_1_exact_verification():
    started = time.perf_counter()
    failures = []
    checked = 0
    for r, sigma2 in MODEL_POINTS:
        ctx = make_context(r, sigma2)
        alpha, _, _ = structural_forms(ctx)
        for N in _verification_set(ctx):
            rep = verify_isovector(N, ctx)
            checked += 1
            # the multiplier is the phi-derivative of the contact function
            F = contract(N, alpha).coeff(())
            if rep.lam != F.diff("phi"):
                failures.append((str(ctx.r), N.name, "lambda != F_phi"))
            if not rep.passed:
                failures.append((str(ctx.r), N.name, rep.to_json()))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < BUDGET_VERIFY
    line = (
        f"criterion 1 (exact verification, {checked} isovectors x "
        f"{len(MODEL_POINTS)} models, {elapsed:.2f}s): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    if failures:
        line += f" - first failure: {failures[0]}"
    record_criterion(1, line)
    print(line)
    assert ok, line


# -- criterion 2: structural identities ---------------------------------------


def test_criterion_2_structural_identities():
    started = time.perf_counter()
    problems = []

    _, dalpha, _ = structural_forms(DEFAULT)
    dx, dA = DiffForm.covector("dx"), DiffForm.covector("dA")
    dt, dB = DiffForm.covector("dt"), DiffForm.covector("dB")
    if str(dalpha) != "-dA^dx - dB^dt":
        problems.append(f"dalpha rendered as {dalpha}")
    if dalpha != wedge(dx, dA) + wedge(dt, dB):
        problems.append("dalpha != dx^dA + dt^dB")

    for r, sigma2 in MODEL_POINTS:
        ctx = make_context(r, sigma2)
        alpha, da, beta = structural_forms(ctx)
        if alpha.d() != da:
            problems.append(f"d(alpha) mismatch at r={r}")
        shift = dx - dt * ExpPoly.constant(ctx.rtilde)
        want = wedge(da, shift) - wedge(wedge(alpha, dx), dt) * ExpPoly.constant(ctx.r)
        if beta.d() != want:
            problems.append(f"d(beta) recombination fails at r={r}")

    # generic vector field: contraction into dalpha must be linear in the
    # components with the canonical signs
    comps = tuple(
        ExpPoly.term(Fraction(k + 2), exps, a, b)
        for k, (exps, a, b) in enumerate(
            [
                ((1, 1, 0, 0, 0), 0, 0),
                ((0, 2, 1, 0, 0), 0, 0),
                ((0, 0, 0, 1, 1), 0, 0),
                ((2, 0, 1, 0, 0), Fraction(1, 2), 0),
                ((0, 1, 0, 2, 0), 0, Fraction(-1)),
            ]
        )
    )
    N = Isovector(comps, name="generic")
    got = contract(N, structural_forms(DEFAULT)[1])
    want = dA * N.Nx - dx * N.NA + dB * N.Nt - dt * N.NB
    if got != want:
        problems.append("generic contraction into dalpha mismatch")

    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < BUDGET_IDENTITIES
    line = (
        f"criterion 2 (structural identities, exact, {elapsed:.3f}s): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    if problems:
        line += f" - {problems[0]}"
    record_criterion(2, line)
    print(line)
    assert ok, line


# -- criterion 3: bracket algebra ---------------------------------------------


def test_criterion_3_bracket_algebra():
    started = time.perf_counter()
    problems = []
    N = {i: basis_isovector(i, DEFAULT) for i in range(1, 7)}

    table = structure_constants(DEFAULT)
    expected = {
        (1, 2): ((1, Fraction(1)),),
        (1, 3): ((2, Fraction(2)),),
        (1, 5): ((4, Fraction(1)),),
        (2, 3): ((3, Fraction(1)),),
        (2, 4): ((4, Fraction(-1, 2)),),
        (2, 5): ((5, Fraction(1, 2)),),
        (3, 4): ((5, Fraction(-1)),),
        (4, 5): ((6, -1 / DEFAULT.sigma2),),
    }
    for i in range(1, 7):
        for j in range(1, 7):
            want = expected.get((i, j))
            if want is None and (j, i) in expected:
                want = tuple((k, -c) for k, c in expected[(j, i)])
            if want is None:
                want = ()
            if table[(i, j)] != want:
                problems.append(f"[N{i},N{j}] = {table[(i, j)]}, expected {want}")

    if bracket(N[2], N[5]) != Fraction(1, 2) * N[5]:
        problems.append("[N2,N5] != N5/2")
    if bracket(N[3], N[1]) != Fraction(-2) * N[2]:
        problems.append("[N3,N1] != -2 N2")

    Nu = solution_isovector(
        SolutionSpec.single(1, DEFAULT.r, 0) + SolutionSpec.mode_for(1, DEFAULT),
        DEFAULT,
        name="N_u",
    )
    Nv = solution_isovector(SolutionSpec.mode_for(2, DEFAULT), DEFAULT, name="N_v")

    pairs = list(itertools.combinations_with_replacement(range(1, 7), 2))
    assert len(pairs) == 21
    for i, j in pairs:
        left = gh_of(bracket(N[i], N[j]))
        right = bracket_gh(N[i], N[j])
        if left.g != right.g or left.h != right.h:
            problems.append(f"gh duality fails on (N{i},N{j})")
    for i in range(1, 6):  # five mixed pairs with the solution direction
        left = gh_of(bracket(N[i], Nu))
        right = bracket_gh(N[i], Nu)
        if left.g != right.g or left.h != right.h:
            problems.append(f"gh duality fails on (N{i},N_u)")

    if not all(c.is_zero() for c in bracket(Nu, Nv).components):
        problems.append("[N_u,N_v] != 0")

    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < BUDGET_ALGEBRA
    line = (
        f"criterion 3 (bracket algebra: 6x6 closure, duality on 21+5 pairs, "
        f"{elapsed:.2f}s): {'PASS' if ok else 'FAIL'}"
    )
    if problems:
        line += f" - {problems[0]}"
    record_criterion(3, line)
    print(line)
    assert ok, line


# -- criterion 4: finite flows on the canonical grid --------------------------


@pytest.mark.parametrize("i", FLOWS)
@pytest.mark.parametrize("kappa", KAPPAS)
def test_criterion_4_flow_case(flow_certificates, i, kappa):
    certs, _ = flow_certificates
    result = certs[(i, kappa)]
    rel = result.report.rel_max
    assert rel <= RESIDUAL_REL, (
        f"flow i={i} kappa={kappa:+.2f}: interior relative residual "
        f"{rel:.4e} > {RESIDUAL_REL:.1e} "
        f"(clipped nodes: {result.n_clipped_nodes})"
    )


def test_criterion_4_summary(flow_certificates):
    certs, elapsed = flow_certificates
    failing = sorted(
        (key for key, result in certs.items() if not result.verdict),
        key=lambda key: (key[0], key[1]),
    )
    n_pass = len(certs) - len(failing)
    ok = not failing and elapsed < BUDGET_FLOWS
    line = (
        f"criterion 4 (finite flows, {len(certs)} transform certifications, "
        f"tol {RESIDUAL_REL:.0e}, {elapsed:.2f}s): {'PASS' if ok else 'FAIL'}"
        f" - {n_pass}/{len(certs)} sub-cases pass"
    )
    if failing:
        worst = max(certs[key].report.rel_max for key in failing)
        cases = ", ".join(f"i={i} kappa={kappa:+.2f}" for i, kappa in failing)
        line += f"; failing: {cases}; worst rel residual {worst:.3e}"
    record_criterion(4, line)
    print(line)
    assert ok, line


# -- criterion 5: infinitesimal actions ---------------------------------------


@pytest.mark.parametrize("name", [name for name, _ in action_candidates()])
def test_criterion_5_action_case(action_residuals, name):
    rel = action_residuals[name]
    assert rel <= RESIDUAL_REL, (
        f"action of {name}: interior relative residual {rel:.4e} "
        f"> {RESIDUAL_REL:.1e}"
    )


def test_criterion_5_summary(action_residuals):
    failing = {
        name: rel for name, rel in action_residuals.items() if rel > RESIDUAL_REL
    }
    ok = not failing
    n_total = len(action_residuals)
    line = (
        f"criterion 5 (infinitesimal actions of N1..N6 and N_u, tol "
        f"{RESIDUAL_REL:.0e}): {'PASS' if ok else 'FAIL'}"
        f" - {n_total - len(failing)}/{n_total} sub-cases pass"
    )
    if failing:
        detail = ", ".join(f"{n}={rel:.3e}" for n, rel in sorted(failing.items()))
        line += f"; failing: {detail}"
    record_criterion(5, line)
    print(line)
    assert ok, line


# -- criterion 6: one-parameter group laws ------------------------------------


def test_criterion_6_group_laws(call_surface):
    rng = np.random.default_rng(42)
    t = rng.uniform(0.0, 0.8, size=100)
    S = rng.uniform(60.0, 160.0, size=100)
    pairs = {3: (0.07, -0.02), 4: (0.12, 0.05), 5: (-0.2, 0.35), 6: (0.4, -0.1)}
    gaps = {}
    for i, (k1, k2) in pairs.items():
        step = apply_transform(
            FiniteTransform(i, k2),
            apply_transform(FiniteTransform(i, k1), call_surface, DEFAULT),
            DEFAULT,
        )
        merged = apply_transform(FiniteTransform(i, k1 + k2), call_surface, DEFAULT)
        a, b = step.value(t, S), merged.value(t, S)
        mask = np.isfinite(a) & np.isfinite(b)
        scale = np.max(np.abs(b[mask]))
        gaps[i] = float(np.max(np.abs(a[mask] - b[mask])) / scale)
    ok = all(gap <= GROUP_LAW_REL for gap in gaps.values())
    detail = ", ".join(f"i={i}: {gap:.2e}" for i, gap in sorted(gaps.items()))
    line = (
        f"criterion 6 (group laws on 100 probe points, rel tol "
        f"{GROUP_LAW_REL:.0e}): {'PASS' if ok else 'FAIL'} - {detail}"
    )
    record_criterion(6, line)
    print(line)
    assert ok, line


# -- criterion 7: solver convergence and parity --------------------------------


def test_criterion_7_fd_convergence_and_parity():
    x_mid = math.log(CALL.strike)
    errors = []
    for nx, nt in ((301, 101), (601, 201), (1201, 401)):
        g = make_grid(0.0, CALL.maturity, nt, x_mid - 3.0, x_mid + 3.0, nx)
        fd = fd_solve(CALL, DEFAULT, g)
        want = bs_price(CALL, DEFAULT, 0.0, CALL.strike)
        errors.append(float(abs(fd.values[0, (nx - 1) // 2] - want)))
    ratios = [errors[k] / errors[k + 1] for k in range(2)]
    ratios_ok = all(RATIO_WINDOW[0] <= q <= RATIO_WINDOW[1] for q in ratios)

    put = OptionSpec(CALL.strike, CALL.maturity, "put")
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 1.0, size=50)
    S = rng.uniform(40.0, 250.0, size=50)
    c = bs_price(CALL, DEFAULT, t, S)
    p = bs_price(put, DEFAULT, t, S)
    forward = S - CALL.strike * np.exp(-DEFAULT.r_f * (CALL.maturity - t))
    parity_gap = float(np.max(np.abs(c - p - forward)) / CALL.strike)
    parity_ok = parity_gap <= PARITY_REL

    ok = ratios_ok and parity_ok
    line = (
        f"criterion 7 (solver convergence ratios {ratios[0]:.3f}, {ratios[1]:.3f} "
        f"in [{RATIO_WINDOW[0]}, {RATIO_WINDOW[1]}]; parity gap {parity_gap:.2e} "
        f"<= {PARITY_REL:.0e}): {'PASS' if ok else 'FAIL'}"
    )
    record_criterion(7, line)
    print(line)
    assert ok, line


# -- criterion 8: negative controls --------------------------------------------


def test_criterion_8_negative_controls(acceptance_grid):
    problems = []

    # bare boost: the contact condition holds, the 2-form condition fails
    boost = isovector_from_generator(
        Generator(c=ExpPoly.var("A") * ExpPoly.var("t"), d=ExpPoly.zero())
    )
    rep = verify_isovector(boost, DEFAULT)
    if rep.passed:
        problems.append("bare boost verified but must not")
    if str(rep.certificate.remainder) != "A*dx^dt":
        problems.append(
            f"boost remainder is {rep.certificate.remainder}, expected A*dx^dt"
        )

    # dx^dt is outside the ideal, with itself as the offending remainder
    cert = ideal_membership(
        wedge(DiffForm.covector("dx"), DiffForm.covector("dt")), DEFAULT
    )
    if cert.in_ideal or str(cert.remainder) != "dx^dt":
        problems.append(f"dx^dt membership remainder is {cert.remainder}")

    # C = S t is not a solution; certification must fail with a visible
    # residual even though the transform applied is an exact symmetry
    T, X = acceptance_grid.meshes()
    bogus = GridSolution(acceptance_grid, np.exp(X) * T, frame="price")
    result = certify_transform(
        FiniteTransform(6, 0.1), bogus, acceptance_grid, DEFAULT, RESIDUAL_REL
    )
    if result.verdict:
        problems.append("certify_transform accepted C = S t")
    if not (result.report.rel_max > 1e-2):
        problems.append(
            f"C = S t residual too small to report: {result.report.rel_max:.3e}"
        )

    ok = not problems
    line = (
        f"criterion 8 (negative controls report exact remainders/residuals): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    if problems:
        line += f" - {problems[0]}"
    record_criterion(8, line)
    print(line)
    assert ok, line


# -- supporting diagnostics (not criteria) -------------------------------------


@pytest.mark.slow
def test_flow_residual_floor_shrinks_at_second_order(call_surface):
    """Refinement diagnostic for the worst criterion-4 case (i=4 at kappa
    = +0.3): with dx halved it stays under the tolerance.  The residual
    instrument is fourth order, so the canonical grid passes as well; the
    name recalls the second-order floor this diagnostic once separated
    from flow defects."""
    fine = make_grid(0.0, 0.8, 801, math.log(0.5), math.log(200.0), 1201)
    result = certify_transform(
        FiniteTransform(4, 0.3, frame="price"), call_surface, fine, DEFAULT,
        RESIDUAL_REL,
    )
    assert result.report.rel_max <= RESIDUAL_REL, result.report.rel_max
