"""Batch command-line harness.

Subcommands: verify, brackets, transform, price, residual.  A flat
"key = value" config file (with '#' comments) holds the same settings as the
flags; flags override the file; unknown keys are rejected.  Exit codes are
strict: 0 success, 1 mathematical failure, 2 usage or config error (a
missing numpy or scipy too, which `main` maps).  The numeric commands set
up through one `_priced` (context, its floats, closed form, checked grid),
and each JSON report is one `_report` envelope: schema, command, model, and
the option where priced.  They set no numpy error state: the numeric layer
is quiet where a value passes the float range, and the commands check the
values it returns.

Output is deterministic byte-for-byte for identical configuration: JSON is
emitted with sorted keys and fixed indentation, CSV rows use repr floats,
and nothing time- or environment-dependent is written.

A process pays only for the command it runs.  `import bssym.cli` loads the
model and nothing else of bssym; each subcommand imports its own layer when
it runs.  The `bssym` script and `python -m bssym.cli` both start through
`process_main`, which runs `main` with the cyclic garbage collector off and
freezes what is left before exit.  `main` is the same command without that
process policy, for callers that run it in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from typing import TYPE_CHECKING

# Only the model is imported here.  Each subcommand imports its own layer
# inside the functions that use it: the exact layer for verify and
# brackets, numpy and the numeric modules for the others.  Each call reads
# the name from its module, so a rebinding there (a profiler's wrapper, a
# test's stand-in) is what the command calls.
from .model import make_context, parse_rational

if TYPE_CHECKING:
    import numpy as np

    from .grids import GridSolution
    from .isovectors import Isovector
    from .pricing import OptionSpec


class ConfigError(Exception):
    """Bad configuration or usage; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    r: Fraction = Fraction(1, 20)
    sigma2: Fraction = Fraction(1, 25)
    strike: float = 100.0
    maturity: float = 1.0
    kind: str = "call"
    grid_t: tuple = (0.0, 0.8)
    grid_x: tuple = (math.log(0.5), math.log(200.0))
    nt: int = 801
    nx: int = 601
    pipeline: tuple = ()
    residual_rel: float = 5e-4
    format: str = "json"
    out: str = None


# the keys of a config file; each flag sets the key its dest names
_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _parse_range(text: str, key: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{key} must be 'lo:hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{key} bounds must be numbers, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{key} bounds must be finite, got {text!r}")
    if not lo < hi:
        raise ConfigError(f"{key} needs lo < hi, got {text!r}")
    return (lo, hi)


def parse_pipeline(text: str) -> tuple:
    """Parse "i:kappa,i:kappa" into ((i, kappa), ...)."""
    text = text.strip()
    if not text:
        return ()
    stages = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"pipeline stage must be 'i:kappa', got {chunk!r}")
        try:
            i = int(parts[0])
            kappa = float(parts[1])
        except ValueError:
            raise ConfigError(f"bad pipeline stage {chunk!r}") from None
        if not math.isfinite(kappa):
            raise ConfigError(f"pipeline kappa must be finite, got {chunk!r}")
        stages.append((i, kappa))
    return tuple(stages)


# the keys whose value is one of a few words, and those words
_CHOICES = {"kind": ("call", "put"), "format": ("json", "csv")}


def _coerce(key: str, raw: str):
    try:
        if key in ("r", "sigma2"):
            return parse_rational(raw)
        if key in ("strike", "maturity", "residual_rel"):
            value = float(raw)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{key} must be positive and finite, got {raw!r}")
            return value
        if key in ("nt", "nx"):
            value = int(raw)
            if value < 2:
                raise ConfigError(f"{key} must be at least 2, got {raw!r}")
            return value
        if key in ("grid_t", "grid_x"):
            return _parse_range(raw, key)
        if key == "pipeline":
            return parse_pipeline(raw)
        if key in _CHOICES:
            if raw not in _CHOICES[key]:
                raise ConfigError(f"{key} must be {' or '.join(_CHOICES[key])}, got {raw!r}")
            return raw
        if key == "out":
            return raw
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
    raise ConfigError(f"unknown config key: {key!r}")


# a file that cannot be read or written (or decoded)
_FILE_ERRORS = (OSError, ValueError)


@contextlib.contextmanager
def _config_errors(prefix: str = "", errors=ValueError):
    """Report an expected error as a config error: its message after prefix."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def load_config_file(path: str) -> dict:
    """Flat "key = value" lines; '#' starts a comment; unknown keys rejected."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with _config_errors(f"cannot read config file {path!r}: ", _FILE_ERRORS):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    values = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}"
            )
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key: {key!r}")
        values[key] = _coerce(key, raw)
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for key in _CONFIG_KEYS:
        raw = getattr(args, key, None)
        if raw is not None:
            overrides[key] = _coerce(key, str(raw))
    return replace(cfg, **overrides)


_OUT_OF_RANGE = "the configuration leaves the float range"

# the most nodes (nt * nx) one grid may have: about 21 times the canonical
# 801x601, checked before any array is allocated
MAX_GRID_NODES = 10**7


def _json_bytes(obj) -> bytes:
    try:
        text = json.dumps(
            obj, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False
        )
    except ValueError:
        raise ConfigError(_OUT_OF_RANGE + ": a reported number is not finite") from None
    return (text + "\n").encode("utf-8")


def _finite_prices(values: np.ndarray, what: str = "closed-form") -> np.ndarray:
    import numpy as np

    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{_OUT_OF_RANGE}: {what} prices are not finite")
    return values


def _emit(data: bytes, out: str | None) -> None:
    if out:
        with _config_errors(f"cannot write {out!r}: ", _FILE_ERRORS):
            parent = os.path.dirname(out)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(out, "wb") as fh:
                fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()


def _context(cfg: RunConfig):
    with _config_errors():
        return make_context(cfg.r, cfg.sigma2)


def _report(command: str, ctx, spec: OptionSpec | None = None, **fields) -> dict:
    """A command's schema-1 report: its name, the model, the option when
    spec is given, and its own fields."""
    obj = {"schema": 1, "command": command, "model": ctx.to_json(), **fields}
    if spec is not None:
        obj["option"] = asdict(spec)
    return obj


def _priced(cfg: RunConfig, stencils: bool = False):
    """(ctx, closed form, grid) of a numeric command: the grid is one the
    closed form prices, ending by maturity, and with `stencils` one the
    residual stencils act on (3 nodes per axis).  The checks run in a fixed
    order, so a config with several faults reports the same first one."""
    from .grids import _s_axis, make_grid
    from .pricing import ClosedFormSolution, OptionSpec

    ctx = _context(cfg)
    # the numeric layer reads the model as floats: float() of a rational past
    # the float range raises, and a positive sigma2 may still read as 0.0
    with _config_errors(f"{_OUT_OF_RANGE}: the model: ", OverflowError):
        floats = (ctx.r_f, ctx.rtilde_f, ctx.stilde_f, ctx.sigma2_f)
    if floats[-1] == 0.0:
        raise ConfigError(f"{_OUT_OF_RANGE}: the model: sigma2 reads as 0.0")
    if stencils and (cfg.nt < 3 or cfg.nx < 3):
        raise ConfigError(
            f"residual stencils need nt and nx of at least 3, got {cfg.nt}x{cfg.nx}"
        )
    if cfg.nt * cfg.nx > MAX_GRID_NODES:
        raise ConfigError(
            f"bad grid: {cfg.nt}x{cfg.nx} is {cfg.nt * cfg.nx} nodes, "
            f"over the limit of {MAX_GRID_NODES}"
        )
    with _config_errors("bad grid: "):
        grid = make_grid(
            cfg.grid_t[0], cfg.grid_t[1], cfg.nt,
            cfg.grid_x[0], cfg.grid_x[1], cfg.nx,
        )
        _s_axis(grid)  # S = e^x must read back from a price CSV
    # the stencil weights go up to 16 / (12 h^2)
    if stencils and min(grid.dt, grid.dx) ** 2 < 2.0 / sys.float_info.max:
        raise ConfigError(_OUT_OF_RANGE + ": grid spacing too fine for the stencils")
    if grid.t_values[-1] > cfg.maturity:
        raise ConfigError(f"grid_t extends past maturity {cfg.maturity}")
    return ctx, ClosedFormSolution(OptionSpec(cfg.strike, cfg.maturity, cfg.kind), ctx), grid


def _sample_nu(ctx) -> Isovector:
    """Deterministic two-mode solution isovector used by verify/brackets."""
    from .isovectors import SolutionSpec, solution_isovector

    modes = SolutionSpec.single(1, ctx.r, 0) + SolutionSpec.mode_for(1, ctx)
    return solution_isovector(modes, ctx, name="N_u")


# -- subcommands -----------------------------------------------------------


def cmd_verify(cfg: RunConfig, debug_faulty_n5: bool = False) -> int:
    from .exppoly import ExpPoly
    from .isovectors import Isovector, basis_isovector, verify_isovector

    ctx = _context(cfg)
    if debug_faulty_n5 and ctx.rtilde == 0:
        raise ConfigError(
            "--debug-faulty-n5 needs r != sigma2/2: there N5 has h = 0, "
            "so forcing h to 0 breaks nothing"
        )
    candidates = []
    for i in range(1, 7):
        N = basis_isovector(i, ctx)
        if i == 5 and debug_faulty_n5:
            N = Isovector(
                (N.Nt, N.Nx, ExpPoly.zero(), N.NA, N.NB), name="N5[h:=0]"
            )
        candidates.append(N)
    candidates.append(_sample_nu(ctx))
    reports = [verify_isovector(N, ctx) for N in candidates]
    all_passed = all(rep.passed for rep in reports)
    obj = _report(
        "verify", ctx,
        isovectors=[rep.to_json() for rep in reports], all_passed=all_passed,
    )
    _emit(_json_bytes(obj), cfg.out)
    return 0 if all_passed else 1


def cmd_brackets(cfg: RunConfig) -> int:
    from .isovectors import (
        SolutionSpec,
        basis_isovector,
        bracket,
        bracket_gh,
        gh_of,
        in_solution_ideal,
        pretty_combination,
        solution_isovector,
        structure_constants,
    )

    ctx = _context(cfg)
    table = structure_constants(ctx)
    entries = []
    for i in range(1, 7):
        for j in range(1, 7):
            terms = table[(i, j)]
            entries.append(
                {
                    "i": i,
                    "j": j,
                    "terms": [{"k": k, "coeff": str(c)} for k, c in terms],
                    "pretty": pretty_combination(terms),
                }
            )

    Nu = _sample_nu(ctx)
    Nv = solution_isovector(SolutionSpec.mode_for(2, ctx), ctx, name="N_v")
    basis = [basis_isovector(i, ctx) for i in range(1, 7)]
    j_ideal = all(in_solution_ideal(bracket(N, Nu), ctx) for N in basis)
    uv_zero = all(c.is_zero() for c in bracket(Nu, Nv).components)
    # bracket and bracket_gh are both exactly antisymmetric, so the pairs
    # k <= l decide the same verdict as all ordered pairs
    family = basis + [Nu]
    duality = all(
        gh_of(bracket(M, N)) == bracket_gh(M, N)
        for k, M in enumerate(family)
        for N in family[k:]
    )
    checks = {
        "[Ni,Nu] in J": "pass" if j_ideal else "fail",
        "[Nu,Nv]=0": "pass" if uv_zero else "fail",
        "gh duality": "pass" if duality else "fail",
    }
    ok = j_ideal and uv_zero and duality

    if cfg.format == "csv":
        buf = io.StringIO()
        buf.write("i,j,entry\n")
        for e in entries:
            buf.write(f"{e['i']},{e['j']},{e['pretty']}\n")
        _emit(buf.getvalue().encode(), cfg.out)
    else:
        obj = _report("brackets", ctx, table=entries, j_checks=checks)
        _emit(_json_bytes(obj), cfg.out)
    return 0 if ok else 1


def cmd_transform(cfg: RunConfig) -> int:
    from .grids import write_csv
    from .transforms import (
        FiniteTransform,
        TransformDomainError,
        certify_transform,
        compose,
    )

    if not cfg.pipeline:
        raise ConfigError("transform needs a nonempty pipeline ('i:kappa,...')")
    if not cfg.out:
        raise ConfigError("transform needs --out (directory for stage files)")
    ctx, call, grid = _priced(cfg, stencils=True)
    with _config_errors():
        transforms = [
            FiniteTransform(i, kappa, frame="price") for i, kappa in cfg.pipeline
        ]

    # every stage is certified before anything is written, so that a
    # configuration error leaves no files behind
    results = []
    obj = None
    for stage in range(1, len(transforms) + 1):
        pipe = compose(*transforms[:stage])
        try:
            with _config_errors(f"{_OUT_OF_RANGE}: stage {stage}: ", OverflowError):
                results.append(
                    (pipe, certify_transform(pipe, call, grid, ctx, cfg.residual_rel))
                )
        except TransformDomainError as exc:
            obj = {
                "schema": 1,
                "command": "transform",
                "error": {
                    "stage": stage,
                    "kind": "pullback-out-of-domain",
                    "message": str(exc),
                    "n_clipped": exc.n_clipped,
                    "n_total": exc.n_total,
                },
            }
            break
    if obj is None:
        verdicts = [
            {
                "stage": stage,
                "transforms": [tr.to_json() for tr in pipe],
                "csv": f"stage_{stage}.csv",
                **result.to_json(),
            }
            for stage, (pipe, result) in enumerate(results, start=1)
        ]
        obj = _report(
            "transform", ctx, call.spec,
            stages=verdicts, all_passed=all(v["verdict"] == "pass" for v in verdicts),
        )
    data = _json_bytes(obj)
    with _config_errors(f"cannot write {cfg.out!r}: ", _FILE_ERRORS):
        os.makedirs(cfg.out, exist_ok=True)
        for stage, (_, result) in enumerate(results, start=1):
            write_csv(result.samples, os.path.join(cfg.out, f"stage_{stage}.csv"))
        if "error" not in obj:
            with open(os.path.join(cfg.out, "verdicts.json"), "wb") as fh:
                fh.write(data)
    sys.stdout.buffer.write(data)
    return 0 if obj.get("all_passed") else 1


def cmd_price(cfg: RunConfig) -> int:
    from .transforms import sample_surface

    ctx, call, grid = _priced(cfg)
    sol = sample_surface(call, grid)
    values = _finite_prices(sol.values)
    if cfg.format == "csv":
        buf = io.StringIO()
        _write_csv_text(sol, buf)
        _emit(buf.getvalue().encode(), cfg.out)
    else:
        obj = _report(
            "price", ctx, call.spec,
            grid={"t": grid.t_values.tolist(), "S": grid.s_values.tolist()},
            table=values.tolist(),
        )
        _emit(_json_bytes(obj), cfg.out)
    return 0


def _write_csv_text(sol: GridSolution, buf) -> None:
    from .grids import csv_chunks

    buf.writelines(csv_chunks(sol))


_FD_LEVELS = ((301, 101), (601, 201), (1201, 401))


def cmd_residual(cfg: RunConfig) -> int:
    import numpy as np

    from .grids import fd_solve, make_grid, residual_e, residual_e2
    from .pricing import bs_price
    from .transforms import sample_surface

    ctx, call, grid = _priced(cfg, stencils=True)
    spec = call.spec
    sol_price = sample_surface(call, grid)
    _finite_prices(sol_price.values)
    # E(C)(t, e^x) = E2(phi)(t, x) on the same node values: one residual, two
    # names; on finite prices, a stencil that is nowhere finite has overflowed
    with _config_errors(f"{_OUT_OF_RANGE}: "):
        rep_e = residual_e(sol_price, ctx)
    rep_e2 = replace(rep_e, op="E2")
    del sol_price  # the report is taken: the FD study needs no closed-form grid

    # strike-centered convergence study for the FD solver
    x_mid = math.log(cfg.strike)
    at_strike = bs_price(spec, ctx, 0.0, cfg.strike)  # the closed form, once
    errors = []
    terminal_ok = True
    for nx, nt in _FD_LEVELS:
        with _config_errors("the FD study cannot run on this configuration: "):
            g = make_grid(0.0, spec.maturity, nt, x_mid - 3.0, x_mid + 3.0, nx)
            fd = fd_solve(spec, ctx, g)
        _finite_prices(fd.values, "FD")
        if not np.array_equal(fd.values[-1], spec.payoff(g.s_values)):
            terminal_ok = False
        j = (nx - 1) // 2
        err = abs(fd.values[0, j] - at_strike)
        errors.append(float(err))
    # the finest level has the largest stencil weights, so it alone decides
    # whether a residual leaves the float range
    with _config_errors(f"{_OUT_OF_RANGE}: "):
        fd_report = residual_e2(fd, ctx)
    # an exact FD level leaves its ratio undefined, and NaN reports it
    ratios = [a / b if b else math.nan for a, b in zip(errors, errors[1:])]

    obj = _report(
        "residual", ctx, spec,
        closed_form={"E": rep_e.to_json(), "E2": rep_e2.to_json()},
        fd={
            "levels": [{"nx": nx, "nt": nt} for nx, nt in _FD_LEVELS],
            "errors_at_strike": errors,
            "convergence_ratios": ratios,
            "terminal_matches_payoff": terminal_ok,
            "finest_E2": fd_report.to_json(),
        },
    )
    data = _json_bytes(obj)
    if cfg.format == "csv":
        buf = io.StringIO()
        buf.write("section,key,value\n")
        for op, rep in (("E", rep_e), ("E2", rep_e2)):
            for key, value in sorted(rep.to_json().items()):
                buf.write(f"closed_form.{op},{key},{value}\n")
        for idx, err in enumerate(errors):
            buf.write(f"fd,error_level_{idx},{err!r}\n")
        for idx, ratio in enumerate(ratios):
            buf.write(f"fd,ratio_{idx},{ratio!r}\n")
        buf.write(f"fd,terminal_matches_payoff,{terminal_ok}\n")
        _emit(buf.getvalue().encode(), cfg.out)
    else:
        _emit(data, cfg.out)
    return 0


# -- entry point -------------------------------------------------------------


# each subcommand, called with the config and the parsed flags
_COMMANDS = {
    "verify": lambda cfg, args: cmd_verify(cfg, args.debug_faulty_n5),
    "brackets": lambda cfg, args: cmd_brackets(cfg),
    "transform": lambda cfg, args: cmd_transform(cfg),
    "price": lambda cfg, args: cmd_price(cfg),
    "residual": lambda cfg, args: cmd_residual(cfg),
}


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--r", help="interest rate as p/q")
    sp.add_argument("--sigma2", help="variance rate as p/q")
    sp.add_argument("--strike")
    sp.add_argument("--maturity")
    sp.add_argument("--grid-t", dest="grid_t", help="t range as lo:hi")
    sp.add_argument("--grid-x", dest="grid_x", help="x range as lo:hi")
    sp.add_argument("--nt")
    sp.add_argument("--nx")
    sp.add_argument("--pipeline", help="transform pipeline 'i:kappa,i:kappa'")
    sp.add_argument(
        "--tol", dest="residual_rel", metavar="TOL",
        help="relative residual tolerance",
    )
    # checked by _coerce, as a config file's format is; the metavar keeps the
    # help text naming the choices
    sp.add_argument("--format", metavar="{%s}" % ",".join(_CHOICES["format"]))
    sp.add_argument("--out", help="output file (or directory for transform)")
    sp.add_argument("--config", help="flat key=value config file")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bssym",
        description="symmetry algebra of the pricing equation: verification, "
        "brackets, flows, pricing and residual audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        _add_common_flags(sp)
        if name == "verify":
            sp.add_argument(
                "--debug-faulty-n5",
                action="store_true",
                help="replace N5 by a deliberately broken variant (h forced to 0)",
            )
        # a token naming no flag is a value, so "--r -1/3" parses (argparse's
        # own pattern admits only plain negative numbers); set after the flags
        # are added, since argparse tests each new flag name against it
        sp._negative_number_matcher = re.compile(r"-.")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code
    try:
        cfg = build_config(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:  # a numeric command without numpy or scipy
        print(f"error: missing dependency: no module named {exc.name!r}", file=sys.stderr)
        return 2


def process_main() -> None:
    """The process entry of both `bssym` and `python -m bssym.cli`: `main`
    with the cyclic collector off, then every object it left frozen, so that
    no collection walks what numpy and scipy made, during import or at
    interpreter exit.  Reference counting still frees everything acyclic,
    and exit flushes and runs atexit handlers as usual.  `main` itself sets
    no process policy, since tests and replays call it in-process."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    process_main()
