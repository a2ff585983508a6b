"""Grids, interior residual operators, the implicit solver, and CSV I/O."""

import math
import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bssym import grids
from bssym.grids import (
    _D1_TIERS,
    Grid,
    GridSolution,
    _first_derivative,
    _each_strip,
    _fd_boundaries,
    _first_finite,
    fd_solve,
    make_grid,
    read_csv,
    residual_e,
    residual_e2,
    write_csv,
)
from bssym.isovectors import SolutionSpec
from bssym.model import make_context
from bssym.pricing import OptionSpec, bs_price

DEFAULT = make_context(Fraction(1, 20), Fraction(1, 25))


def test_make_grid_basic():
    g = make_grid(0.0, 1.0, 5, -1.0, 1.0, 9)
    assert g.nt == 5 and g.nx == 9
    assert g.dt == pytest.approx(0.25)
    assert g.dx == pytest.approx(0.25)
    assert np.allclose(g.s_values, np.exp(g.x_values))
    T, X = g.meshes()
    assert T.shape == X.shape == (5, 9)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(1.0, 0.0, 5, -1.0, 1.0, 9)  # descending
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 1, -1.0, 1.0, 9)  # too few nodes


@pytest.mark.parametrize("x", [[np.nan, 1.0], [-np.inf, 0.0, np.inf], [0.0, np.inf]],
                         ids=["nan", "both-infinities", "inf"])
def test_grid_rejects_non_finite_nodes(x):
    with pytest.raises(ValueError, match="x_values must be finite"):
        Grid([0.0, 1.0], x)
    with pytest.raises(ValueError, match="t_values must be finite"):
        Grid(x, [0.0, 1.0])


# each node is finite, but 1.7e308 - (-1.7e308) is not
_WIDE = [-1.7e308, 1.7e308, 1.75e308]


def test_grid_rejects_spacing_past_the_float_range():
    with pytest.raises(ValueError, match="x_values spacing must be finite"):
        Grid([0.0, 1.0], _WIDE)
    with pytest.raises(ValueError, match="t_values spacing must be finite"):
        Grid(_WIDE, [0.0, 1.0])


@pytest.mark.parametrize("axis, bounds", [
    ("t", (-1.7e308, 1.75e308, 3, 0.0, 1.0, 3)),
    ("x", (0.0, 1.0, 3, -1.7e308, 1.75e308, 3)),
])
def test_make_grid_past_the_float_range_rejected_quietly(axis, bounds):
    # hi - lo overflows inside linspace; Grid refuses the nodes, with no warning
    with pytest.raises(ValueError, match=f"{axis}_values must be finite"):
        make_grid(*bounds)


def test_residual_report_json_is_its_fields_and_rel_max():
    # pinned whole: a field added later shows up here, not silently in a report
    report = grids.ResidualReport("E2", 1.0, 0.5, "4th-order-uniform", 4.0, 10, 2)
    assert report.to_json() == {
        "op": "E2", "max_abs_residual": 1.0, "interior_norm": 0.5, "rel_max": 0.25,
        "scale": 4.0, "stencil": "4th-order-uniform", "n_interior": 10, "n_clipped": 2}


def test_csv_with_spacing_past_the_float_range_rejected(tmp_path):
    path = tmp_path / "wide.csv"
    rows = "".join(f"{t!r},{u},1.0\n" for t in _WIDE for u in ("0.0", "1.0"))
    path.write_text("t,x,value\n" + rows)
    with pytest.raises(ValueError, match="t_values spacing must be finite"):
        read_csv(path)


@pytest.mark.parametrize("spot", ["0.0", "-1.0"])
def test_price_csv_with_nonpositive_spot_rejected(spot, tmp_path, recwarn):
    # S = 0 reads as x = -inf and S < 0 as NaN: not grid nodes
    path = tmp_path / "spot.csv"
    rows = "".join(f"{t},{u},1.0\n" for t in ("0.0", "1.0") for u in (spot, "1.0"))
    path.write_text("t,S,value\n" + rows)
    with pytest.raises(ValueError, match="x_values must be finite"):
        read_csv(path)
    assert not recwarn.list


def test_grid_solution_shape_checked():
    g = make_grid(0.0, 1.0, 3, -1.0, 1.0, 4)
    with pytest.raises(ValueError):
        GridSolution(g, np.zeros((4, 3)), frame="log")
    with pytest.raises(ValueError):
        GridSolution(g, np.zeros((3, 4)), frame="spot")


def exact_mode_values(grid, b, ctx):
    # e^{a t + b x} with a from the quadratic compatibility relation
    ((_, a, bb),) = SolutionSpec.mode_for(b, ctx).modes
    T, X = grid.meshes()
    return np.exp(float(a) * T + float(bb) * X)


def test_log_frame_residual_vanishes_on_exponential_solutions():
    g = make_grid(0.0, 0.8, 81, -0.5, 1.5, 101)
    vals = exact_mode_values(g, Fraction(2), DEFAULT)
    rep = residual_e2(GridSolution(g, vals, frame="log"), DEFAULT)
    # only the truncation floor of the fourth-order stencils remains
    assert rep.rel_max < 5e-4
    assert rep.n_interior == (81 - 2) * (101 - 2)


def test_log_frame_residual_is_fourth_order():
    # on an exact solution the residual is pure truncation error; halving
    # dt and dx must shrink it by about 2^4, which holds only if the
    # off-centred stencils on the first and last interior row and column
    # are fourth order too (a third-order edge would give about 8)
    errs = []
    for nt, nx in ((41, 51), (81, 101), (161, 201)):
        g = make_grid(0.0, 0.8, nt, -0.5, 1.5, nx)
        vals = exact_mode_values(g, Fraction(2), DEFAULT)
        rep = residual_e2(GridSolution(g, vals, frame="log"), DEFAULT)
        assert rep.stencil == "4th-order-uniform"
        errs.append(rep.max_abs_residual)
    ratios = [errs[k] / errs[k + 1] for k in range(2)]
    assert all(12.0 < q < 20.0 for q in ratios), ratios


def test_log_frame_residual_flags_non_solutions():
    g = make_grid(0.0, 0.8, 41, -0.5, 1.5, 51)
    T, X = g.meshes()
    rep = residual_e2(GridSolution(g, T * X * X, frame="log"), DEFAULT)
    assert rep.rel_max > 1e-2


def test_price_frame_residual_on_closed_form():
    spec = OptionSpec(100.0, 1.0, "call")
    g = make_grid(0.0, 0.8, 161, math.log(50.0), math.log(200.0), 121)
    T, X = g.meshes()
    vals = bs_price(spec, DEFAULT, T, np.exp(X))
    rep = residual_e(GridSolution(g, vals, frame="price"), DEFAULT)
    assert rep.op == "E"
    assert rep.rel_max < 2e-3
    assert rep.n_clipped == 0


def test_residual_skips_nan_nodes():
    g = make_grid(0.0, 0.8, 21, -0.5, 1.5, 31)
    vals = exact_mode_values(g, Fraction(1), DEFAULT)
    vals[5, 7] = np.nan
    rep = residual_e2(GridSolution(g, vals, frame="log"), DEFAULT)
    # the NaN node disables its own stencil and its four neighbours
    assert rep.n_clipped == 5
    assert np.isfinite(rep.max_abs_residual)


def test_residual_stays_fourth_order_beside_clipped_rows():
    g = make_grid(0.0, 0.8, 81, -0.5, 1.5, 101)
    vals = exact_mode_values(g, Fraction(2), DEFAULT)
    clean = residual_e2(GridSolution(g, vals, frame="log"), DEFAULT)
    # top rows clipped, as a forward time shift leaves them: row 58 takes
    # the stencil reaching one row forward, and only row 59 (whose
    # three-point stencil reaches row 60) is excluded
    clipped = vals.copy()
    clipped[60:] = np.nan
    rep = residual_e2(GridSolution(g, clipped, frame="log"), DEFAULT)
    assert rep.stencil == "4th-order-uniform"
    assert rep.n_interior == 58 * 99
    assert rep.max_abs_residual <= clean.max_abs_residual
    # row 42 between clipped rows 40 and 44 fits no fourth-order t stencil
    hemmed = vals.copy()
    hemmed[[40, 44]] = np.nan
    rep = residual_e2(GridSolution(g, hemmed, frame="log"), DEFAULT)
    assert rep.stencil == "4th-order-uniform+3-point-fallback"
    assert rep.n_interior == (79 - 6) * 99


def test_nan_node_takes_no_stencil():
    # rows 40 and 42 clipped: rows 39 to 43 are excluded, and the only
    # three-point t stencils that fit are those of the NaN nodes themselves,
    # whose residual is NaN whatever stencil they take; those nodes are
    # skipped, so the report names no fallback that no reported node used
    g = make_grid(0.0, 0.8, 81, -0.5, 1.5, 101)
    vals = exact_mode_values(g, Fraction(2), DEFAULT)
    vals[[40, 42]] = np.nan
    rep = residual_e2(GridSolution(g, vals, frame="log"), DEFAULT)
    assert rep.stencil == "4th-order-uniform"
    assert rep.n_interior == (79 - 5) * 99


def _node_by_node_derivative(v, h, axis):
    """Every node through `_first_finite`, the derivative's reference route."""
    tiers = [{k: w / (12.0 * h) for k, w in d1.items()} for d1 in _D1_TIERS]
    i, j = np.indices(v.shape).reshape(2, -1)
    out, _ = _first_finite(v, i, j, axis, tiers)
    return out.reshape(v.shape)


@pytest.mark.parametrize("clip", [False, True], ids=["canonical", "clipped"])
def test_first_derivative_block_bulk_matches_node_by_node(clip):
    g = make_grid(0.0, 0.8, 801, math.log(0.5), math.log(200.0), 601)
    T, X = g.meshes()
    v = bs_price(OptionSpec(100.0, 1.0, "call"), DEFAULT, T, np.exp(X))
    if clip:
        # clipped top rows, as a forward time shift leaves them, and a
        # clipped column and patch inside
        v[-7:] = np.nan
        v[:, 3] = np.nan
        v[300, 100:110] = np.nan
    for axis, h in ((0, g.dt), (1, g.dx)):
        want = _node_by_node_derivative(v, h, axis)
        got = _first_derivative(v, h, axis)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got).any()


def test_fd_matches_closed_form():
    spec = OptionSpec(100.0, 1.0, "call")
    x_mid = math.log(100.0)
    g = make_grid(0.0, 1.0, 101, x_mid - 3.0, x_mid + 3.0, 301)
    fd = fd_solve(spec, DEFAULT, g)
    assert fd.frame == "log"
    j = 150
    want = bs_price(spec, DEFAULT, 0.0, 100.0)
    assert abs(fd.values[0, j] - want) < 1e-2


def test_fd_error_shrinks_under_refinement():
    spec = OptionSpec(100.0, 1.0, "call")
    x_mid = math.log(100.0)
    errs = []
    for nx, nt in ((151, 51), (301, 101)):
        g = make_grid(0.0, 1.0, nt, x_mid - 3.0, x_mid + 3.0, nx)
        fd = fd_solve(spec, DEFAULT, g)
        errs.append(
            abs(fd.values[0, (nx - 1) // 2] - bs_price(spec, DEFAULT, 0.0, 100.0))
        )
    assert errs[1] < errs[0] / 3.0


def test_fd_terminal_row_is_payoff():
    spec = OptionSpec(100.0, 1.0, "put")
    g = make_grid(0.0, 1.0, 11, math.log(40.0), math.log(250.0), 41)
    fd = fd_solve(spec, DEFAULT, g)
    assert np.array_equal(fd.values[-1], spec.payoff(g.s_values))


def test_fd_put_boundaries():
    spec = OptionSpec(100.0, 1.0, "put")
    g = make_grid(0.0, 1.0, 21, math.log(40.0), math.log(250.0), 41)
    fd = fd_solve(spec, DEFAULT, g)
    tau = 1.0
    want_lo = 100.0 * math.exp(-DEFAULT.r_f * tau) - 40.0
    assert fd.values[0, 0] == pytest.approx(want_lo, rel=1e-12)
    assert fd.values[0, -1] == 0.0


def _fd_solve_banded(spec, ctx, grid):
    """fd_solve's scheme with one `solve_banded` call per step: each step
    matrix is built and factored anew."""
    from scipy.linalg import solve_banded

    t, nx, dx = grid.t_values, grid.nx, grid.dx
    a = 0.5 * ctx.sigma2_f / (dx * dx)
    b = ctx.rtilde_f / (2.0 * dx)
    lower, diag, upper = a - b, -2.0 * a - ctx.r_f, a + b

    def step(v, lo, hi, dt, theta):
        ab = np.zeros((3, nx - 2))
        ab[0, 1:] = -theta * dt * upper
        ab[1, :] = 1.0 - theta * dt * diag
        ab[2, :-1] = -theta * dt * lower
        rhs = v[1:-1] + (1.0 - theta) * dt * (
            lower * v[:-2] + diag * v[1:-1] + upper * v[2:]
        )
        rhs[0] += theta * dt * lower * lo
        rhs[-1] += theta * dt * upper * hi
        return np.concatenate(([lo], solve_banded((1, 1), ab, rhs), [hi]))

    lo_all, hi_all = _fd_boundaries(spec, ctx, t, grid)
    v = spec.payoff(grid.s_values)
    v[0], v[-1] = lo_all[-1], hi_all[-1]
    rows = [v]
    for n in range(grid.nt - 2, -1, -1):
        dt = float(t[n + 1] - t[n])
        if n == grid.nt - 2:
            lo_mid, hi_mid = _fd_boundaries(
                spec, ctx, np.asarray([t[n] + 0.5 * dt]), grid
            )
            v = step(v, float(lo_mid[0]), float(hi_mid[0]), 0.5 * dt, 1.0)
            v = step(v, lo_all[n], hi_all[n], 0.5 * dt, 1.0)
        else:
            v = step(v, lo_all[n], hi_all[n], dt, 0.5)
        rows.append(v)
    return np.array(rows[::-1])


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize(
    "r,sigma2",
    [(Fraction(1, 20), Fraction(1, 25)), (Fraction(3, 7), Fraction(5, 11)),
     (Fraction(-1, 3), Fraction(1, 50))],
)
def test_fd_solve_matches_per_step_solve_banded(kind, r, sigma2):
    # linspace grids have several distinct float steps (8 at nt = 101), and
    # nx = 3 and 4 leave the one- and two-unknown systems
    ctx = make_context(r, sigma2)
    spec = OptionSpec(100.0, 1.0, kind)
    x_mid = math.log(100.0)
    for nx, nt in ((301, 101), (601, 201), (101, 61), (3, 11), (4, 11), (5, 2)):
        g = make_grid(0.0, 1.0, nt, x_mid - 3.0, x_mid + 3.0, nx)
        got = fd_solve(spec, ctx, g).values
        want = _fd_solve_banded(spec, ctx, g)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_fd_solve_failures_match_solve_banded():
    from scipy.linalg import LinAlgError

    # a singular step: 1 - (dt/2) (sigma2/dx^2 + r) = 0 zeroes the diagonal
    # of the 3x3 Rannacher system, and an odd tridiagonal with zero diagonal
    # is singular
    call = OptionSpec(1.0, 1.0, "call")
    singular = (call, make_context(-3, 1), make_grid(0.0, 1.0, 2, -2.0, 2.0, 5))
    # dx^2 underflows: an infinite matrix
    inf_matrix = (call, DEFAULT, make_grid(0.0, 1.0, 5, -1e-160, 1e-160, 5))
    # S = e^x overflows: an infinite right-hand side
    inf_rhs = (call, DEFAULT, make_grid(0.0, 1.0, 5, 700.0, 720.0, 5))
    finite = "array must not contain infs or NaNs"
    for case, error, message in (
        (singular, LinAlgError, "singular matrix"),
        (inf_matrix, ValueError, finite),
        (inf_rhs, ValueError, finite),
    ):
        for solve in (fd_solve, _fd_solve_banded):
            with np.errstate(all="ignore"), pytest.raises(error) as info:
                solve(*case)
            assert str(info.value) == message


def test_fd_requires_grid_ending_at_maturity():
    spec = OptionSpec(100.0, 1.0, "call")
    g = make_grid(0.0, 0.8, 11, 3.0, 6.0, 21)
    with pytest.raises(ValueError):
        fd_solve(spec, DEFAULT, g)


finite_vals = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(st.lists(finite_vals, min_size=6, max_size=6))
@settings(max_examples=25)
def test_csv_round_trip_exact(flat):
    g = make_grid(0.0, 1.0, 2, -1.0, 1.0, 3)
    values = np.asarray(flat).reshape(2, 3)
    # a function-scoped tmp_path fixture would trip hypothesis's health check
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "roundtrip.csv")
        for frame in ("log", "price"):
            sol = GridSolution(g, values, frame=frame)
            write_csv(sol, path)
            back = read_csv(path)
            assert back.frame == frame
            assert np.array_equal(back.values, values)
            assert np.array_equal(back.grid.t_values, g.t_values)
            if frame == "log":
                assert np.array_equal(back.grid.x_values, g.x_values)
            else:
                # price-frame files carry S; x is recovered through a log
                assert np.array_equal(back.grid.s_values, g.s_values)


def test_csv_preserves_nan_gaps(tmp_path):
    g = make_grid(0.0, 1.0, 2, -1.0, 1.0, 3)
    values = np.asarray([[1.0, np.nan, 2.0], [0.5, 1.5, np.nan]])
    sol = GridSolution(g, values, frame="log")
    path = tmp_path / "nan.csv"
    write_csv(sol, path)
    back = read_csv(path)
    assert np.array_equal(np.isnan(back.values), np.isnan(values))
    mask = ~np.isnan(values)
    assert np.array_equal(back.values[mask], values[mask])


def test_csv_read_matches_float_per_field(tmp_path):
    fields = ["nan", "inf", "-inf", "-0.0", "5e-324", "2.2250738585072014e-308",
              "1e-310", "0.1", "-1.7976931348623157e+308"]
    t_axis, x_axis = ["0.0", "0.5", "1.0"], ["-1.0", "0.0", "1.0"]
    lines = ["t,x,value\n"]
    for k, v in enumerate(fields):
        lines.append(f"{t_axis[k // 3]},{x_axis[k % 3]},{v}\n")
    path = tmp_path / "special.csv"
    path.write_text("".join(lines))
    back = read_csv(path)
    want = np.asarray([float(v) for v in fields]).reshape(3, 3)
    assert np.array_equal(back.values.view(np.uint64), want.view(np.uint64))
    assert back.values.flags.c_contiguous
    assert np.array_equal(back.grid.t_values, [float(t) for t in t_axis])
    assert np.array_equal(back.grid.x_values, [float(x) for x in x_axis])


@pytest.mark.parametrize("rows, message", [
    # a full rectangle, but u descends within each t
    ([(0, 1, 10), (0, 0, 20), (1, 1, 30), (1, 0, 40)], "not t-major"),
    # (0, 0) twice and (1, 1) missing
    ([(0, 0, 10), (0, 0, 20), (0, 1, 30), (1, 0, 40)], "not t-major"),
    ([(0, 0), (0, 1)], "3 fields"),
    # a full 1 x 2 rectangle with one field too many per row
    ([(0, 0, 10, 99), (0, 1, 20, 99)], "3 fields"),
], ids=["u-descends", "duplicate-and-missing", "two-fields", "four-fields"])
def test_csv_rows_out_of_place_rejected(rows, message, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x,value\n" + "".join(",".join(map(str, row)) + "\n" for row in rows))
    with pytest.raises(ValueError, match=message):
        read_csv(path)


def test_csv_header_only_is_empty(tmp_path, recwarn):
    path = tmp_path / "empty.csv"
    path.write_text("t,S,value\n")
    with pytest.raises(ValueError, match="empty grid CSV"):
        read_csv(path)
    assert not recwarn.list


# -- strips on every CPU -------------------------------------------------------


_NINE = [(k, k + 1) for k in range(9)]


def test_each_strip_runs_every_strip_once_and_every_third_in_the_caller(three_cpus):
    seen = []
    _each_strip(lambda lo, hi: seen.append((lo, threading.get_ident())), _NINE)
    assert sorted(lo for lo, _ in seen) == list(range(9))
    caller = threading.get_ident()
    assert sorted(lo for lo, ident in seen if ident == caller) == [0, 3, 6]


def test_each_strip_on_one_cpu_is_the_serial_loop(monkeypatch):
    monkeypatch.setattr(grids, "_cpus", lambda: 1)
    seen = []
    _each_strip(lambda lo, hi: seen.append((lo, threading.get_ident())), _NINE)
    assert seen == [(k, threading.get_ident()) for k in range(9)]


def test_each_strip_raises_the_first_failing_strip_in_row_order(three_cpus):
    # strip 2 fails at once; strip 1, on another thread, fails 0.2 s later
    def fn(lo, hi):
        if lo == 1:
            time.sleep(0.2)
        if lo in (1, 2):
            raise ValueError(f"strip {lo}")

    with pytest.raises(ValueError, match="strip 1"):
        _each_strip(fn, _NINE)


def test_each_strip_nested_in_a_strip_runs_inline():
    # in a child process, so that a deadlock fails this test, not the run
    script = textwrap.dedent("""
        import threading
        import numpy as np
        from bssym import grids

        grids._cpus = lambda: 3
        strips = [(k, k + 1) for k in range(9)]
        out, threads = np.zeros((9, 9)), set()

        def row(lo, hi):
            def cell(c_lo, c_hi):
                threads.add((lo, threading.get_ident()))
                out[lo, c_lo] = 10 * lo + c_lo

            grids._each_strip(cell, strips)

        grids._each_strip(row, strips)
        assert np.array_equal(out, 10 * np.arange(9)[:, None] + np.arange(9))
        # each row's cells ran on the thread that ran the row
        assert len(threads) == 9
    """)
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)


# -- the residual report in place -----------------------------------------------


def _gather_report(op, res, values, stencil):
    """The report as full-size gathers take it, `values[finite]` and
    `res[mask]`: the reference that the in-place report must match bit for
    bit wherever res holds no infinity."""
    mask = np.isfinite(res)
    n_interior = int(mask.sum())
    if n_interior == 0:
        raise ValueError("no evaluable interior nodes for the residual stencil")
    finite = np.isfinite(values)
    finite_vals = values if finite.all() else values[finite]
    scale = grids._max_abs(finite_vals) if finite_vals.size else 0.0
    picked = res if n_interior == res.size else res[mask]
    max_abs = grids._max_abs(picked)
    np.multiply(picked, picked, out=picked)
    return grids.ResidualReport(
        op=op,
        max_abs_residual=max_abs,
        interior_norm=float(np.sqrt(np.mean(picked))),
        stencil=stencil,
        scale=scale,
        n_interior=n_interior,
        n_clipped=int(res.size - n_interior),
    )


# magnitudes whose squares, summed over any drawn grid, stay in range
_report_floats = st.one_of(
    st.floats(-1e100, 1e100, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]),
)


@st.composite
def _report_inputs(draw):
    """(res, values, strip nodes): residuals with clipped (NaN) nodes in
    one of the patterns a grid gives, and samples that may hold NaN and
    +-inf."""
    nt, nx = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    shape = (nt - 2, nx - 2)
    res = np.array(draw(st.lists(_report_floats, min_size=shape[0] * shape[1],
                                 max_size=shape[0] * shape[1]))).reshape(shape)
    pattern = draw(st.sampled_from(["none", "scattered", "rows", "columns", "one"]))
    if pattern == "scattered":
        res[np.array(draw(st.lists(st.booleans(), min_size=res.size,
                                   max_size=res.size))).reshape(shape)] = np.nan
    elif pattern == "rows":
        res[draw(st.lists(st.integers(0, shape[0] - 1), max_size=shape[0])), :] = np.nan
    elif pattern == "columns":
        res[:, draw(st.lists(st.integers(0, shape[1] - 1), max_size=shape[1]))] = np.nan
    elif pattern == "one":
        keep = draw(st.integers(0, res.size - 1))
        kept = res.flat[keep]
        res[...] = np.nan
        res.flat[keep] = kept
    values = np.array(draw(st.lists(
        st.one_of(_report_floats, st.sampled_from([np.nan, np.inf, -np.inf])),
        min_size=nt * nx, max_size=nt * nx))).reshape(nt, nx)
    return res, values, draw(st.sampled_from([1, 3, 7, 16, 1 << 15]))


@given(_report_inputs())
@settings(max_examples=200)
def test_report_in_place_keeps_the_gather_reports_bits(inputs):
    res, values, strip_nodes = inputs
    try:
        want = _gather_report("E2", res.copy(), values, "s")
    except ValueError:
        with pytest.raises(ValueError, match="no evaluable interior nodes"):
            grids._finish_report("E2", res.copy(), values, "s")
        return
    old = grids._STRIP_NODES
    grids._STRIP_NODES = strip_nodes  # strips of one row and up
    try:
        got = grids._finish_report("E2", res.copy(), values, "s")
    finally:
        grids._STRIP_NODES = old
    assert [repr(getattr(got, f)) for f in vars(want)] == \
        [repr(getattr(want, f)) for f in vars(want)]


def test_an_overflowing_residual_is_counted_not_clipped():
    # C = S is a solution; one node at 1e308 has finite footprints all
    # round, so its stencils overflow rather than clip
    g = make_grid(0.0, 0.8, 41, 4.0, 5.0, 41)
    for big in (1e308, 1e307):
        v = np.exp(np.broadcast_to(g.x_values, (41, 41)))
        v[20, 20] = big
        with np.errstate(all="ignore"):
            rep = residual_e2(GridSolution(g, v, frame="log"), DEFAULT)
        assert rep.n_clipped == 0
        assert rep.max_abs_residual == rep.interior_norm == rep.rel_max == math.inf
        assert not rep.rel_max <= 5e-4


def test_a_clipped_node_names_no_fallback():
    # C = S with three NaN nodes: (20, 20) fits only the three-point t
    # stencil, but its x stencils all reach the NaN at (20, 19), so it is
    # clipped and the report names no stencil that no counted node used
    g = make_grid(0.0, 0.8, 41, 4.0, 5.0, 41)
    v = np.exp(np.broadcast_to(g.x_values, (41, 41)))
    v[[20, 18, 22], [19, 20, 20]] = np.nan
    rep = residual_e2(GridSolution(g, v, frame="log"), DEFAULT)
    assert rep.stencil == "4th-order-uniform"
    assert rep.n_clipped == 15


def test_an_overflowing_stencil_takes_no_later_one():
    # a finite footprint whose sum overflows serves its node with inf,
    # where a later stencil would give a finite value
    tiers = [{-1: 4.0, 0: 1.0}, {0: 1.0}]
    i, j = np.zeros(1, dtype=int), np.full(1, 2)
    v = np.ones((1, 6))
    v[0, 1] = 1e308
    with np.errstate(over="ignore"):
        out, three = _first_finite(v, i, j, 1, tiers)
    assert out.tolist() == [math.inf] and not three.any()
    v[0, 1] = np.nan  # a non-finite footprint: the next stencil serves
    out, three = _first_finite(v, i, j, 1, tiers)
    assert out.tolist() == [1.0] and three.all()


def test_root_mean_square_of_a_huge_residual_stays_in_range():
    # scaling the samples by 2^k scales every residual by 2^k exactly, and
    # the report with it, though the squares at 2^1000 leave the float range
    g = make_grid(0.0, 0.8, 41, 4.0, 5.0, 41)
    v = np.exp(np.broadcast_to(g.x_values, (41, 41))) + g.t_values[:, None] ** 3
    clean = residual_e2(GridSolution(g, v, frame="log"), DEFAULT)
    for k in (600, 1000):
        with np.errstate(all="raise"):
            rep = residual_e2(GridSolution(g, v * 2.0 ** k, frame="log"), DEFAULT)
        assert rep.max_abs_residual == math.ldexp(clean.max_abs_residual, k)
        assert rep.interior_norm == math.ldexp(clean.interior_norm, k)
        assert rep.scale == math.ldexp(clean.scale, k)


def test_residual_of_the_canonical_grid_holds_one_grid_more(monkeypatch):
    # the residual, strip temporaries and nothing else of full size; the
    # report and the ring scan used to add two full-size masks (1.28 grids)
    import tracemalloc

    monkeypatch.setattr(grids, "_cpus", lambda: 1)
    g = make_grid(0.0, 0.8, 801, math.log(0.5), math.log(200.0), 601)
    T, X = g.meshes()
    sol = GridSolution(g, bs_price(OptionSpec(100.0, 1.0, "call"), DEFAULT, T, np.exp(X)),
                       frame="price")
    del T, X
    residual_e(sol, DEFAULT)
    tracemalloc.start()
    try:
        rep = residual_e(sol, DEFAULT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_clipped == 0
    assert peak < 1.15 * sol.values.nbytes
