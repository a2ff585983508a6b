"""Command-line harness: config handling, exit codes, output determinism."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bssym import cli
from bssym.cli import (
    _CONFIG_KEYS,
    ConfigError,
    _write_csv_text,
    build_config,
    load_config_file,
    main,
    make_parser,
    parse_pipeline,
)
from bssym.grids import GridSolution, make_grid, write_csv
from bssym.model import make_context
from bssym.pricing import ClosedFormSolution, OptionSpec, bs_price
from bssym.transforms import FiniteTransform, certify_transform, compose

FAST = ["--nt", "5", "--nx", "7", "--grid-x", "4.0:5.2"]
CANONICAL = make_context(Fraction(1, 20), Fraction(1, 25))


def run_cli(args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "bssym.cli", *args],
        capture_output=True,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


# -- config layer -------------------------------------------------------------


def test_defaults():
    cfg = build_config(make_args())
    assert str(cfg.r) == "1/20"
    assert str(cfg.sigma2) == "1/25"
    assert cfg.strike == 100.0
    assert cfg.maturity == 1.0
    assert cfg.kind == "call"
    assert cfg.grid_t == (0.0, 0.8)
    assert cfg.grid_x[0] == pytest.approx(math.log(0.5))
    assert cfg.grid_x[1] == pytest.approx(math.log(200.0))
    assert (cfg.nt, cfg.nx) == (801, 601)
    assert cfg.residual_rel == 5e-4


def make_args(**over):
    import argparse

    ns = argparse.Namespace(
        command="verify", r=None, sigma2=None, strike=None, maturity=None,
        grid_t=None, grid_x=None, nt=None, nx=None, pipeline=None, residual_rel=None,
        format=None, out=None, config=None,
    )
    for key, value in over.items():
        setattr(ns, key, value)
    return ns


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        """
        # model block
        r = 3/100
        sigma2 = 9/100   # variance
        kind = put
        nt = 11

        grid_t = 0:0.5
        """
    )
    cfg = build_config(make_args(config=str(cfg_file)))
    assert str(cfg.r) == "3/100"
    assert str(cfg.sigma2) == "9/100"
    assert cfg.kind == "put"
    assert cfg.nt == 11
    assert cfg.grid_t == (0.0, 0.5)


def test_flags_override_config(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("r = 1/20\nnt = 11\n")
    cfg = build_config(make_args(config=str(cfg_file), r="0", nt=21))
    assert cfg.r == 0
    assert cfg.nt == 21


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("volatility = 0.2\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config_file(str(cfg_file))


# one flag and a value for every config key that has a flag
FLAG_AND_FILE = {
    "r": ("--r", "3/100"),
    "sigma2": ("--sigma2", "9/100"),
    "strike": ("--strike", "80.5"),
    "maturity": ("--maturity", "2.0"),
    "grid_t": ("--grid-t", "0:0.5"),
    "grid_x": ("--grid-x", "3.5:5.5"),
    "nt": ("--nt", "11"),
    "nx": ("--nx", "13"),
    "pipeline": ("--pipeline", "4:0.1,6:-0.3"),
    "residual_rel": ("--tol", "0.001"),
    "format": ("--format", "csv"),
    "out": ("--out", "stage_dir"),
}


def test_flag_and_file_set_the_same_config(tmp_path):
    assert set(FLAG_AND_FILE) == set(_CONFIG_KEYS) - {"kind"}
    parser = make_parser()
    default = build_config(parser.parse_args(["price"]))
    for key, (flag, value) in FLAG_AND_FILE.items():
        cfg_file = tmp_path / f"{key}.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        by_flag = build_config(parser.parse_args(["price", flag, value]))
        by_file = build_config(parser.parse_args(["price", "--config", str(cfg_file)]))
        assert by_flag == by_file, key
        assert getattr(by_flag, key) != getattr(default, key), key


def test_dropped_group_law_key_is_unknown(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("group_law_abs = 1e-10\n")
    assert main(["verify", "--config", str(cfg_file)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unknown config key: 'group_law_abs'" in err


def test_malformed_config_line_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("r 1/20\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        load_config_file(str(cfg_file))


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config_file("/nonexistent/run.cfg")


def test_parse_pipeline():
    assert parse_pipeline("") == ()
    assert parse_pipeline("4:0.3") == ((4, 0.3),)
    assert parse_pipeline("3:0.1, 5:-0.05") == ((3, 0.1), (5, -0.05))
    with pytest.raises(ConfigError):
        parse_pipeline("4")
    with pytest.raises(ConfigError):
        parse_pipeline("a:b")


@pytest.mark.parametrize(
    "key,raw",
    [("r", "1/0"), ("r", "0.05"), ("nt", "1"), ("strike", "-3"),
     ("kind", "swap"), ("format", "xml"), ("grid_t", "1:0")],
)
def test_bad_values_rejected(key, raw, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {raw}\n")
    with pytest.raises(ConfigError):
        load_config_file(str(cfg_file))


# -- exit codes ---------------------------------------------------------------


def test_verify_exit_zero():
    code, out, _ = run_cli(["verify"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["all_passed"] is True
    assert len(obj["isovectors"]) == 7
    assert [rep["passed"] for rep in obj["isovectors"]] == [True] * 7


def test_verify_debug_fault_exits_one():
    code, out, _ = run_cli(["verify", "--debug-faulty-n5"])
    assert code == 1
    obj = json.loads(out)
    bad = [rep for rep in obj["isovectors"] if not rep["passed"]]
    assert len(bad) == 1
    assert bad[0]["name"] == "N5[h:=0]"
    assert bad[0]["certificate"]["remainder"] != "0"


def test_bad_rational_exits_two():
    code, _, err = run_cli(["verify", "--r", "1/0"])
    assert code == 2
    assert b"error:" in err


def test_unknown_flag_exits_two():
    code, _, _ = run_cli(["verify", "--volatility", "0.2"])
    assert code == 2


def test_unknown_subcommand_exits_two():
    code, _, _ = run_cli(["audit"])
    assert code == 2


def test_transform_requires_pipeline_and_out(tmp_path):
    code, _, err = run_cli(["transform", "--out", str(tmp_path / "o")])
    assert code == 2 and b"pipeline" in err
    code, _, err = run_cli(["transform", "--pipeline", "6:0.1"])
    assert code == 2 and b"--out" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--sigma2", "0"],
        ["verify", "--sigma2", "-1"],
        ["residual", "--maturity", "1e-9"],
        ["price", "--grid-x", "0:800", "--nt", "3", "--nx", "3"],
        ["price", "--grid-x=-800:0", "--nt", "3", "--nx", "3"],
        ["price", "--grid-x", "0:inf", "--nt", "3", "--nx", "3"],
        ["price", "--strike", "inf", *FAST],
        ["price", "--maturity", "inf", *FAST],
        ["transform", "--pipeline", "6:nan", "--out", "OUT", *FAST],
        ["transform", "--pipeline", "5:inf", "--out", "OUT", *FAST],
        ["transform", "--pipeline", "5:0.1", "--tol", "inf", "--out", "OUT", *FAST],
        ["transform", "--pipeline", "5:0.1", "--maturity", "1e-9", "--out", "OUT", *FAST],
        ["transform", "--pipeline", "5:0.1", "--grid-t", "0:2", "--out", "OUT", *FAST],
        ["transform", "--pipeline", "5:0.1", "--nt", "2", "--out", "OUT"],
        ["transform", "--pipeline", "5:0.1", "--nx", "2", "--out", "OUT"],
        ["residual", "--nt", "2", "--nx", "2"],
        ["residual", "--nt", "2", *FAST[2:]],
        ["residual", "--nx", "2"],
        ["verify", "--config", "DIR"],
        ["verify", "--config", "NOT_UTF8"],
        ["verify", "--out", "DIR"],
        ["transform", "--pipeline", "5:0.1", "--out", "FILE", *FAST],
        ["price", "--format", "xml"],
        ["price", "--nt", "100000", "--nx", "100000"],
        # N5 has h = rtilde/sigma2 = 0 here, so the fault would change nothing
        ["verify", "--debug-faulty-n5", "--r", "1", "--sigma2", "2"],
    ],
)
def test_degenerate_config_exits_two_cleanly(argv, tmp_path):
    out_dir = tmp_path / "o"
    (tmp_path / "not_utf8.cfg").write_bytes(b"r = 1/20 \xff\n")
    (tmp_path / "file").write_text("")
    paths = {"OUT": out_dir, "DIR": tmp_path, "NOT_UTF8": tmp_path / "not_utf8.cfg",
             "FILE": tmp_path / "file"}
    argv = [str(paths.get(a, a)) for a in argv]
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == b""
    assert b"Traceback" not in err
    assert err.startswith(b"error: ") and err.count(b"\n") == 1
    assert not out_dir.exists()


class GridBuilt(Exception):
    """Raised by a stand-in make_grid: the node cap let the grid through."""


def test_node_cap_is_checked_before_any_grid(monkeypatch):
    def make_grid(*args):
        raise GridBuilt(args)

    # the CLI reads make_grid from bssym.grids when it builds a grid
    monkeypatch.setattr("bssym.grids.make_grid", make_grid)
    code, out, err = run_in_process(["price", "--nt", "100000", "--nx", "100000"])
    assert (code, out) == (2, b"")
    assert err == (
        "error: bad grid: 100000x100000 is 10000000000 nodes, "
        f"over the limit of {cli.MAX_GRID_NODES}\n"
    )
    # one node over the limit is refused; the limit itself reaches make_grid
    assert cli.MAX_GRID_NODES == 5000 * 2000
    assert run_in_process(["price", "--nt", "5000", "--nx", "2001"])[0] == 2
    with pytest.raises(GridBuilt):
        main(["price", "--nt", "5000", "--nx", "2000"])


def test_format_is_checked_like_a_config_value(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("format = xml\n")
    want = (2, b"", "error: format must be json or csv, got 'xml'\n")
    assert run_in_process(["brackets", "--format", "xml"]) == want
    assert run_in_process(["brackets", "--config", str(cfg_file)]) == want
    code, out, _ = run_in_process(["price", "--help"])
    assert code == 0 and b"[--format {json,csv}]" in out


def test_transform_unsupported_flow_exits_two(tmp_path):
    code, _, err = run_cli(
        ["transform", "--pipeline", "2:0.1", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert b"flow" in err


# -- command outputs ----------------------------------------------------------


def test_brackets_json_and_determinism():
    code, out1, _ = run_cli(["brackets"])
    assert code == 0
    code, out2, _ = run_cli(["brackets"])
    assert out1 == out2  # byte identical
    obj = json.loads(out1)
    entries = {(e["i"], e["j"]): e["pretty"] for e in obj["table"]}
    assert entries[(2, 5)] == "1/2 · N5"
    assert entries[(3, 1)] == "-2 · N2"
    assert entries[(6, 4)] == "0"
    assert obj["j_checks"]["[Nu,Nv]=0"] == "pass"


def test_brackets_csv():
    code, out, _ = run_cli(["brackets", "--format", "csv"])
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "i,j,entry"
    assert len(lines) == 37
    assert "2,5,1/2 · N5" in lines


def test_price_json_table():
    lo, hi = math.log(100.0) - 1.0, math.log(100.0) + 1.0
    code, out, _ = run_cli(
        ["price", "--r", "0", "--nt", "3", "--nx", "5",
         "--grid-t", "0:0.5", "--grid-x", f"{lo}:{hi}"]
    )
    assert code == 0
    obj = json.loads(out)
    S = obj["grid"]["S"]
    j = min(range(len(S)), key=lambda k: abs(S[k] - 100.0))
    assert obj["table"][0][j] == pytest.approx(7.965567455405804, rel=1e-9)


def test_price_csv_round_trip(tmp_path):
    out_file = tmp_path / "prices.csv"
    code, _, _ = run_cli(
        ["price", "--format", "csv", "--out", str(out_file), *FAST]
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,S,value"
    assert len(lines) == 1 + 5 * 7


def test_price_rejects_grid_past_maturity():
    code, _, err = run_cli(["price", "--grid-t", "0:2.0", *FAST[:4]])
    assert code == 2
    assert b"maturity" in err


def test_transform_writes_stages_and_verdicts(tmp_path):
    out_dir = tmp_path / "stages"
    code, out, _ = run_cli(
        ["transform", "--pipeline", "6:0.1,5:0.2", "--out", str(out_dir),
         "--nt", "41", "--nx", "61", "--tol", "1e-2"]
    )
    assert code == 0
    obj = json.loads(out)
    assert [s["stage"] for s in obj["stages"]] == [1, 2]
    assert all(s["verdict"] == "pass" for s in obj["stages"])
    assert (out_dir / "stage_1.csv").exists()
    assert (out_dir / "stage_2.csv").exists()
    disk = json.loads((out_dir / "verdicts.json").read_bytes())
    assert disk == obj


def test_transform_out_of_domain_exits_one(tmp_path):
    code, out, _ = run_cli(
        ["transform", "--pipeline", "3:5.0", "--out", str(tmp_path / "o"),
         "--nt", "11", "--nx", "21"]
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["error"]["kind"] == "pullback-out-of-domain"
    assert obj["error"]["n_clipped"] == obj["error"]["n_total"] == 11 * 21


@pytest.mark.parametrize("pipeline", ["6:800", "6:700"])
def test_transform_past_the_float_range_exits_two_and_writes_nothing(pipeline, tmp_path):
    # N6 pulls no node back: at kappa = 800 its prefactor e^800 overflows
    # at every node, which is not clipping; at 700 the values are finite
    # and the residual overflows
    out_dir = tmp_path / "o"
    code, out, err = run_cli(
        ["transform", "--pipeline", pipeline, "--out", str(out_dir), "--nt", "41", "--nx", "31"]
    )
    assert code == 2
    assert out == b""
    assert err.startswith(b"error: the configuration leaves the float range")
    assert not out_dir.exists()


def test_transform_of_a_zero_surface_fails(tmp_path):
    # at r = -700 every call price on this grid underflows to 0, so the
    # residual is 0 against a scale of 0 and proves nothing about the flow
    code, out, _ = run_cli(
        ["transform", "--r=-700", "--pipeline", "5:0.1", "--out", str(tmp_path / "o"), *FAST]
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["all_passed"] is False
    (stage,) = obj["stages"]
    assert stage["verdict"] == "fail"
    assert stage["report"]["scale"] == 0.0
    assert stage["rel_max_residual"] == 0.0


def test_residual_report():
    code, out, _ = run_cli(["residual", *FAST])
    assert code == 0
    obj = json.loads(out)
    ratios = obj["fd"]["convergence_ratios"]
    assert len(ratios) == 2
    assert all(3.5 <= r <= 4.5 for r in ratios)
    assert obj["fd"]["terminal_matches_payoff"] is True
    assert obj["closed_form"]["E"]["op"] == "E"
    assert obj["closed_form"]["E2"]["op"] == "E2"


def test_main_returns_int_in_process(capsys):
    assert main(["verify", "--r", "bad"]) == 2
    assert main(["verify", "--r"]) == 2  # argparse's usage error
    assert main(["verify", "--help"]) == 0
    capsys.readouterr()


def test_negative_values_as_separate_tokens():
    assert run_in_process(["verify", "--r", "-1/3"]) == run_in_process(["verify", "--r=-1/3"])
    code, out, err = run_in_process(["price", "--grid-x", "-0.5:1", "--nt", "3", "--nx", "3"])
    assert (code, err) == (0, "")
    assert json.loads(out)["grid"]["S"][0] == math.exp(-0.5)
    code, out, err = run_in_process(["price", "--strike", "-3"])
    assert (code, out) == (2, b"")
    assert err == "error: strike must be positive and finite, got '-3'\n"
    code, out, err = run_in_process(["price", "--nt", "abc"])
    assert (code, out) == (2, b"")
    assert err.startswith("error: bad value for nt: 'abc'") and err.count("\n") == 1


def run_in_process(argv):
    """main(argv) in this process: (exit code, stdout bytes, stderr text)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
        out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


# SHA-256 of the stdout of the exact subcommands, and their exit codes, as
# the flat-dict ExpPoly layout produced them (the rtilde = 0 ones as the
# table of all 36 bracketed pairs produced them): neither the term storage
# nor the order of the exact work may change a byte of what it proves.
OTHER_POINT = ["--r", "3/7", "--sigma2", "5/11"]
ZERO_RTILDE = ["--r", "1", "--sigma2", "2"]  # rtilde = r - sigma2/2 = 0
ZERO_RATE = ["--r", "0", "--sigma2", "2"]  # the bond mode of N_u is the constant 1
NEGATIVE_RATE = ["--r", "-1/20", "--sigma2", "1/25"]
GOLDEN = [
    (["verify"], 0,
     "21728147dde0bb0a27639eefa9dab07fff92aa898ce8c8fe2263192f54b243f1"),
    (["verify", "--debug-faulty-n5"], 1,
     "9f0a4179e9db7a121aa2a1d72ada2b89521f02b99a79026ab3e1dcf1ba15a3ac"),
    (["brackets"], 0,
     "679ac52955cdbad4ec94402d4402e26f63fa3c76fb334dee753d0f8c490b1922"),
    (["brackets", "--format", "csv"], 0,
     "76526c6fd49eb40f7e0bc9eac9e4749bf9004c367f176d536ad8f8845d108a51"),
    (["verify", *OTHER_POINT], 0,
     "6a85023b5c28ad702701350d73652ae05d46b10bce8bc8446a8d13bfc4ad1a8c"),
    (["verify", "--debug-faulty-n5", *OTHER_POINT], 1,
     "facd8ef4d0bab670af4ba50d58271f835aebcd5c2285f337a7742ade0caad68a"),
    (["brackets", *OTHER_POINT], 0,
     "9efd08b34c6011fee6f1df212125914b6cf21ce8397e06a6980bab5ea06b5cb7"),
    (["brackets", "--format", "csv", *OTHER_POINT], 0,
     "d32b5869f865f4c107899ce2cb45f6d6c5b6185c7e7cf81fe865c9fed5a5a0cd"),
    (["verify", *ZERO_RTILDE], 0,
     "3af17a2b402b123951bd6f3ddbd89dc5c4cc56708b75a31ba04c8b91ef838ff5"),
    (["brackets", *ZERO_RTILDE], 0,
     "67b3b45234b3de90e4379c62116c20fda688268fd6645fd60a3b5142d2f163eb"),
    (["brackets", "--format", "csv", *ZERO_RTILDE], 0,
     "75ae46ac515f36f8fd3ee80f4cca5f171e0cd0232ac6ff56ad925f7daa5fd014"),
    (["verify", *ZERO_RATE], 0,
     "0403d43fe232d2ba49d0d0e69a19467ac57a8ac34fbb943d92524cc2b2b035c9"),
    (["brackets", *ZERO_RATE], 0,
     "5a88ce9f5302c582f156c8291c177baf28f5f7807cf3735704e8f051259499ca"),
    (["verify", *NEGATIVE_RATE], 0,
     "e478f5fc883b309ee4c8243f35ee0e333c255a193f2aefded19d4d07e2241747"),
    (["verify", "--debug-faulty-n5", *NEGATIVE_RATE], 1,
     "cf349945d3d4116229f881c5c5dec41497d60367529082b7bb19d27edb82d248"),
    (["brackets", *NEGATIVE_RATE], 0,
     "b0dfe1b76896f08dbc5a5a439dc7fd2518d0806dd9f954954718ee2adf11bb21"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_exact_subcommands_golden_bytes(argv, code, digest):
    got_code, out, err = run_in_process(argv)
    assert (got_code, err) == (code, "")
    assert hashlib.sha256(out).hexdigest() == digest


# SHA-256 over the stdout of a four-stage transform, then each stage CSV and
# verdicts.json in name order, and its exit code (the coarse grid fails the
# default tolerance), as flows computed in (t, x) produced them: how a
# pipeline is evaluated may not change a byte of what it writes.
TRANSFORM_GOLDEN = (
    ["transform", "--pipeline", "4:0.2,5:-0.3,3:0.1,6:0.2", "--nt", "41", "--nx", "31"],
    1,
    "61a9fe421b9044e764269fed9a8298fec269ff5528965f53894935c09d275567",
)


def test_transform_golden_bytes(tmp_path):
    argv, code, digest = TRANSFORM_GOLDEN
    out_dir = tmp_path / "o"
    got_code, out, err = run_in_process([*argv, "--out", str(out_dir)])
    assert (got_code, err) == (code, "")
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [*(f"stage_{k}.csv" for k in range(1, 5)), "verdicts.json"]
    h = hashlib.sha256(out)
    for name in names:
        h.update((out_dir / name).read_bytes())
    assert h.hexdigest() == digest


# SHA-256 of the stdout of the numeric subcommands on the FAST grid, their
# exit codes and their stderr, as the per-command set-up and envelopes
# produced them: how the CLI sets up a grid and writes its report may not
# change a byte.  Kept apart from GOLDEN, which also runs without numpy.
# Like TRANSFORM_GOLDEN, these digests rest on numpy's and scipy's float bits.
NUMERIC_GOLDEN = [
    (["price", *FAST], 0,
     "4ad8aabfaad4aa95f3e50a9ab6e5c6dc8e2533a8ff9a332aae773e057257d6f4", ""),
    (["price", "--format", "csv", *FAST], 0,
     "31e19596ae5bd40191386d6877b8bb2e6e08a717fe2efa2a0d09e922befd9fba", ""),
    (["residual", *FAST], 0,
     "51212f465e7ffee76b3a6cd251c823eb2f86d2538bc81b8bebd4a06a084873d6", ""),
    (["residual", "--format", "csv", *FAST], 0,
     "f1810302fa846788f6e5de503d400befd58eb6d220b2a82a525821b99164eb95", ""),
    (["residual", *FAST, "--r=-1/20"], 0,
     "7cee611034246b2c553d2379c8ecb60bd8a9c103bfe8664c9f552a17d0bde58a", ""),
    # every node pulls back outside the closed form's domain: a verdict
    (["transform", "--pipeline", "3:5.0", "--out", "OUT", *FAST], 1,
     "2f39990b233a22c9a42cf0cac63da5fe2ac8721dee24ac3fbe6d156c39ff8463", ""),
    # the prefactor e^800 overflows at every node: a float-range error
    (["transform", "--pipeline", "6:800", "--out", "OUT", *FAST], 2,
     hashlib.sha256(b"").hexdigest(),
     "error: the configuration leaves the float range: stage 1: 35 of 35 nodes overflow\n"),
]


@pytest.mark.parametrize(
    "argv,code,digest,err", NUMERIC_GOLDEN, ids=[" ".join(g[0]) for g in NUMERIC_GOLDEN]
)
def test_numeric_subcommands_golden_bytes(argv, code, digest, err, tmp_path):
    argv = [str(tmp_path / "o") if a == "OUT" else a for a in argv]
    got_code, out, got_err = run_in_process(argv)
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out).hexdigest() == digest


# -- CSV bytes and imports ------------------------------------------------------


def reference_csv(sol) -> bytes:
    """The documented grid CSV layout, written out line by line."""
    if sol.frame == "log":
        col, axis = "x", sol.grid.x_values
    else:
        col, axis = "S", sol.grid.s_values
    lines = [f"t,{col},value\n"]
    for t, row in zip(sol.grid.t_values.tolist(), sol.values.tolist()):
        for u, v in zip(axis.tolist(), row):
            lines.append(f"{t!r},{u!r},{v!r}\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("frame", ["log", "price"])
def test_csv_writers_match_reference_bytes(frame, tmp_path):
    g = make_grid(0.0, 1.0, 3, -1.0, 1.0, 4)
    values = np.array(
        [[np.nan, np.inf, -np.inf, -0.0],
         [5e-324, 0.1, -2.5e-310, 1e300],
         [0.0, 1.0 / 3.0, np.nan, 123456.789]]
    )
    sol = GridSolution(g, values, frame=frame)
    expected = reference_csv(sol)
    path = tmp_path / "sol.csv"
    write_csv(sol, path)
    assert path.read_bytes() == expected
    buf = io.StringIO()
    _write_csv_text(sol, buf)
    assert buf.getvalue().encode() == expected


def test_price_csv_matches_reference_bytes(tmp_path):
    grid = make_grid(0.0, 0.8, 5, 4.0, 5.2, 7)
    spec = OptionSpec(100.0, 1.0, "call")
    T, X = grid.meshes()
    values = bs_price(spec, CANONICAL, T, np.exp(X))
    expected = reference_csv(GridSolution(grid, values, frame="price"))
    code, out, _ = run_cli(["price", "--format", "csv", *FAST])
    assert code == 0
    assert out == expected
    out_file = tmp_path / "prices.csv"
    code, out, _ = run_cli(
        ["price", "--format", "csv", "--out", str(out_file), *FAST]
    )
    assert code == 0 and out == b""
    assert out_file.read_bytes() == expected


def test_transform_stage_csv_matches_reference_bytes(tmp_path):
    # the time translation pushes the last rows past the grid: NaN nodes
    grid = make_grid(0.0, 0.8, 5, 4.0, 5.2, 7)
    call = ClosedFormSolution(OptionSpec(100.0, 1.0, "call"), CANONICAL)
    pipe = compose(FiniteTransform(3, 0.25, frame="price"))
    samples = certify_transform(pipe, call, grid, CANONICAL, 5e-4).samples
    assert np.isnan(samples.values).any()
    out_dir = tmp_path / "stages"
    code, _, _ = run_cli(
        ["transform", "--pipeline", "3:0.25", "--out", str(out_dir), *FAST]
    )
    assert code in (0, 1)
    assert (out_dir / "stage_1.csv").read_bytes() == reference_csv(samples)


_LOADED_NUMERIC = """
import json, sys
import bssym
assert not any(m.split(".")[0] in ("numpy", "scipy") for m in sys.modules)
from bssym.cli import main
argv = json.loads(sys.argv[1])
if argv:
    assert main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))))
"""


@pytest.mark.parametrize(
    "argv,loaded,absent",
    [
        ([], [], ["numpy", "scipy"]),
        (["verify"], [], ["numpy", "scipy"]),
        (["brackets"], [], ["numpy", "scipy"]),
        (["price", *FAST], ["numpy", "scipy.special"], ["scipy.interpolate"]),
        (["residual", *FAST], ["numpy", "scipy.special", "scipy.linalg"],
         ["scipy.interpolate"]),
    ],
)
def test_scipy_loads_only_where_called(argv, loaded, absent, tmp_path):
    # `import bssym` and `import bssym.cli` load neither numpy nor scipy, and
    # each subcommand loads only what it calls
    if argv:
        argv = [*argv, "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_NUMERIC, json.dumps(argv)],
        capture_output=True, check=True,
    )
    modules = set(json.loads(proc.stdout))
    assert all(name in modules for name in loaded)
    for name in absent:
        assert not any(m == name or m.startswith(name + ".") for m in modules)


def test_every_public_name_resolves():
    import bssym

    namespace = {}
    exec("from bssym import *", namespace)
    assert len(bssym.__all__) == 57
    assert all(namespace[name] is getattr(bssym, name) for name in bssym.__all__)
    # a numeric name is the submodule's own object, read on each lookup
    assert bssym.fd_solve is bssym.grids.fd_solve
    assert bssym.sample_surface is bssym.transforms.sample_surface


_WITHOUT_NUMPY = """
import hashlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy now fails
from bssym.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stderr = io.StringIO()
    code = main(argv)
    sys.stdout.flush()
    digest = hashlib.sha256(sys.stdout.buffer.getvalue()).hexdigest()
    results.append((code, digest, sys.stderr.getvalue()))
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
print(json.dumps(results))
"""


def run_without_numpy(argvs):
    """[exit code, stdout SHA-256, stderr] of main(argv) for each argv, in a
    process where numpy cannot be imported."""
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(argvs)],
        capture_output=True, check=True,
    )
    assert proc.stderr == b""
    return json.loads(proc.stdout)


def test_exact_subcommands_run_without_numpy():
    got = run_without_numpy([g[0] for g in GOLDEN])
    assert got == [[code, digest, ""] for _, code, digest in GOLDEN]


def test_numeric_subcommands_without_numpy_exit_two(tmp_path):
    # a usage error naming the missing module, not a traceback or exit 1
    argvs = [["price", *FAST], ["residual", *FAST],
             ["transform", "--pipeline", "5:0.1", "--out", str(tmp_path / "o"), *FAST]]
    error = "error: missing dependency: no module named 'numpy'\n"
    assert run_without_numpy(argvs) == [[2, hashlib.sha256(b"").hexdigest(), error]] * 3
    assert not (tmp_path / "o").exists()


# -- the CLI contract under generated configs -------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


_rationals = st.one_of(
    st.sampled_from(["0", "-1", "1/0", "0/7", "1/20", "-3/7", "2", "1.5", "x"]),
    st.fractions(max_denominator=10**6).map(str),
    st.integers(min_value=-10**30, max_value=10**30).map(str),
    st.tuples(st.integers(-10**12, 10**12), st.integers(1, 10**12)).map(
        lambda pq: f"{pq[0]}/{pq[1]}"
    ),
)
_floats = st.one_of(
    st.sampled_from(["1", "0.5", "80", "100.0", "1e-3"]),
    st.sampled_from(["0", "-1", "1e-300", "5e-324", "1e300", "inf", "nan", "-inf"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=1e-9, max_value=1e3).map(repr),
)
_ranges = st.one_of(
    st.sampled_from(["0:0.8", "0:0.5", "4.0:5.2", "3.5:5.5", "-1:1"]),
    st.sampled_from(
        ["-800:800", "0:1e-300", "1e-300:2e-300", "0:5e-324", "-700:-690",
         "700:710", "0:1e308", "1:1", "2:1", "0:nan"]
    ),
    st.tuples(_floats, _floats).map(lambda lh: f"{lh[0]}:{lh[1]}"),
)
_kappas = st.one_of(
    st.sampled_from(["0", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "50"]),
    st.floats(min_value=-1.0, max_value=1.0).map(repr),
)
_pipelines = st.lists(
    st.tuples(st.integers(0, 7), _kappas).map(lambda ik: f"{ik[0]}:{ik[1]}"),
    min_size=1, max_size=2,
).map(",".join)


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["verify", "brackets", "price", "residual", "transform"]))
    argv = [command, "--nt", str(draw(st.integers(2, 9))),
            "--nx", str(draw(st.integers(2, 9)))]
    for flag, values in (
        ("--r", _rationals), ("--sigma2", _rationals), ("--strike", _floats),
        ("--maturity", _floats), ("--grid-t", _ranges), ("--grid-x", _ranges),
        ("--tol", _floats), ("--pipeline", _pipelines),
    ):
        if draw(st.booleans()):
            value = draw(values)
            argv += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
    if command == "verify" and draw(st.booleans()):
        argv.append("--debug-faulty-n5")
    return argv


@given(cli_argvs())
@example(["transform", "--pipeline", "6:800", "--nt", "41", "--nx", "31"])
@example(["transform", "--pipeline", "6:700", "--nt", "41", "--nx", "31"])
def test_cli_contract_holds_on_generated_configs(argv):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if argv[0] == "transform":
            argv = [*argv, "--out", f"{tmp}/out"]
        code, out, err = run_in_process(argv)
    assert not caught  # a warning would be one more line on stderr
    assert code in (0, 1, 2)
    if code == 2:
        assert out == b""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        json.loads(out, parse_constant=_reject_constant)
