"""bssym benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli-cold,algebra-sweep,certify-sweep}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
The run measures ``round(seconds / cycle_seconds)`` whole cycles of the
workload's fixed case mix, checks every output against an oracle that does
not use the code under test, and prints one report line (every metric, the
environment, failures) followed by the result line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
perfbench/README.md for what each metric means and what should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

from setups import CLI_COMMANDS  # noqa: E402  (after the thread pins)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# the reference kernel's median time on the reference machine (2-core Xeon,
# Python 3.11, numpy 2.4); see SpeedProbe
REF_KERNEL_S = 0.0054

END_TO_END = {  # name -> unit; what BENCHMARK.json lists
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("cli-cold", "algebra-sweep", "certify-sweep")
IMPORT_PROBES = {  # metric -> (untimed imports, timed imports)
    "import.numpy_s": ((), ("numpy",)),
    "import.scipy_s": (("numpy",), ("scipy.special", "scipy.interpolate", "scipy.linalg")),
    "import.bssym_s": ((), ("bssym",)),
    "import.bssym_cli_s": ((), ("bssym.cli",)),
}


def per_layer_units() -> dict:
    """Per-layer metric -> unit; what BENCHMARK.json lists."""
    from tracing import TIME_METRICS

    units = {name: "s" for name in IMPORT_PROBES}
    units.update({name: "s" for name in TIME_METRICS.values()})
    units.update({
        "forms.lie_components": "count",
        "ideal.in_ideal_ratio": "ratio",
        "pricing.nodes_per_s": "1/s",
        "grids.write_mb_per_s": "MB/s",
        "grids.read_mb_per_s": "MB/s",
        "transforms.clipped_ratio": "ratio",
    })
    for cmd in CLI_COMMANDS:
        units[f"cli.cold_s.{cmd}"] = "s"
        units[f"cli.inproc_s.{cmd}"] = "s"
        units[f"cli.startup_s.{cmd}"] = "s"
        units[f"cli.out_bytes.{cmd}"] = "bytes"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe(args, env) -> tuple:
    """Run probe.py in a fresh interpreter; (wall seconds to its first
    stdout line, that line)."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), *args], env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or not line:
            raise RuntimeError(f"probe {args} failed with exit {proc.returncode}")
    return elapsed, line


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class SpeedProbe:
    """Machine speed, sampled before every op with a fixed reference kernel.

    On the shared 2-core VM the benchmark was built on, CPU speed drifts by
    15-20% within a minute (other tenants), and that moves every op alike.
    Each op time is therefore scaled by
    ``REF_KERNEL_S / median of the kernel samples around the op``: seconds at
    the reference machine's speed.  The kernel is benchmark code, so a change
    to bssym cannot move it.  The report keeps the raw numbers too.
    """

    WINDOW = 4  # samples on each side of an op

    def __init__(self):
        import numpy as np

        self._np = np
        self._array = np.random.default_rng(0).random(100000)
        self._floats = self._array[:1000].tolist()
        self.samples = []

    def sample(self) -> int:
        """Run the kernel once (a little of what each layer does: Fraction
        arithmetic, an interpreter loop, numpy, float-to-text); return the
        sample's index."""
        started = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 150):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        total = 0
        for i in range(15000):
            total += i * i % 7
        self._np.sort(self._np.exp(self._array))
        "".join(f"{v!r}\n" for v in self._floats)
        self.samples.append(time.perf_counter() - started)
        return len(self.samples) - 1

    def factor(self, index: int, lo: int = 0, hi: int = None) -> float:
        """Speed factor around sample ``index``, from samples in [lo, hi)."""
        hi = len(self.samples) if hi is None else hi
        window = self.samples[max(lo, index - self.WINDOW): min(hi, index + self.WINDOW + 1)]
        return REF_KERNEL_S / statistics.median(window)

    def scale(self, timed, lo=0, hi=None) -> list:
        """[(seconds, sample index)] -> seconds at the reference speed."""
        return [t * self.factor(j, lo, hi) for t, j in timed]


def scaled(values: dict, units: dict, factor: float) -> dict:
    """Times times ``factor``, rates divided by it, other units unchanged."""
    out = {}
    for name, value in values.items():
        unit = units[name]
        if unit == "s":
            value *= factor
        elif unit.endswith("/s"):
            value /= factor
        out[name] = value
    return out


def tail(values) -> tuple:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, or the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def measure(workload_name, seed, seconds, traced, root=ROOT) -> tuple:
    """One run; returns (report, result) as the two printed dicts."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    import setups
    import workloads
    from tracing import Tracer

    env = child_env()
    work = root / "perfbench" / ".work"
    workdir = work / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    speed = SpeedProbe()
    try:
        # set-up: fresh interpreters, then this process's own
        setup_times = []
        for n in range(SETUP_REPEATS):
            probe_dir = workdir / f"probe{n}"
            probe_dir.mkdir()
            for _ in range(3):
                index = speed.sample()
            setup_times.append(
                (probe(["setup", workload_name, str(seed), str(probe_dir)], env)[0], index))
            shutil.rmtree(probe_dir)
        for _ in range(3):
            speed.sample()
        setup_rng = random.Random(f"perfbench:{workload_name}:{seed}:setup")
        state = setups.SETUPS[workload_name](str(workdir), setup_rng)
        workload = workloads.WORKLOADS[workload_name](seed, str(workdir), env, state)

        layer = {}
        if traced:
            for metric, (pre, timed) in IMPORT_PROBES.items():
                args = ["import", *pre, "--", *timed]
                layer[metric] = statistics.median(
                    float(probe(args, env)[1]) for _ in range(IMPORT_REPEATS))

        tracer = Tracer()
        n_setup_samples = len(speed.samples)
        loop = run_cycles(workload, seconds, traced, tracer, speed)
        controls = workload.controls()
        extra = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = loop["attempted"] + len(controls)
    failures = loop["failures"] + [f"{kind}: {p}" for kind, problems in controls
                                   for p in problems]
    failed = loop["failed"] + sum(1 for _, problems in controls if problems)

    who = resource.RUSAGE_CHILDREN if workload_name == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    def summary(setup, ops, by_kind) -> dict:
        out = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(ops) / sum(ops),
            "op_s.p50": statistics.median(ops),
            "op_s.tail": tail(ops)[0],
            "peak_rss_mb": peak_rss_mb,
        }
        if workload_name == "cli-cold":
            for cmd in CLI_COMMANDS:  # median cold wall time per subcommand
                out[f"{cmd}_s"] = statistics.median(by_kind[cmd])
        return out

    raw = summary([t for t, _ in setup_times], [t for t, _ in loop["untraced_times"]],
                  {k: [t for t, _ in v] for k, v in loop["by_kind"].items()})
    scale_loop = lambda timed: speed.scale(timed, lo=n_setup_samples)  # noqa: E731
    end_to_end = summary(speed.scale(setup_times, hi=n_setup_samples),
                         scale_loop(loop["untraced_times"]),
                         {k: scale_loop(v) for k, v in loop["by_kind"].items()})
    _, tail_pct, tail_n = tail([t for t, _ in loop["untraced_times"]])
    units = dict(END_TO_END, **{f"{cmd}_s": "s" for cmd in CLI_COMMANDS})
    factor = REF_KERNEL_S / statistics.median(speed.samples[n_setup_samples:])
    end_to_end["error_rate"] = failed / attempted
    units["error_rate"] = "ratio"
    report = {
        "workload": workload_name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": environment(),
        "speed": {"factor": factor, "samples": len(speed.samples)},
        "cycles": loop["cycles"],
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "end_to_end": {name: {"value": v, "unit": units[name]}
                       for name, v in end_to_end.items()},
        "end_to_end_raw": raw,
        "op_s.tail_percentile": tail_pct,
        "op_s.tail_n": tail_n,
        "setup_runs_raw_s": [t for t, _ in setup_times],
        "op_s.p50_by_kind": {k: statistics.median(scale_loop(v))
                             for k, v in loop["by_kind"].items()},
    }
    layer_units = per_layer_units()
    if traced:
        by_kind = {k: statistics.median(t for t, _ in v) for k, v in loop["by_kind"].items()}
        layer.update(tracer.layer_metrics())
        layer.update(cli_layer(loop, by_kind, extra.get("out_bytes", {})))
        layer.update(overhead(loop))
        layer = scaled({name: layer.get(name, 0.0) for name in layer_units},
                       layer_units, factor)
        spans_path = work / f"spans-{workload_name}-{seed}.jsonl"
        tracer.dump(spans_path)
        report["per_layer"] = {name: {"value": v, "unit": layer_units[name]}
                               for name, v in layer.items()}
        report["spans"] = str(spans_path.relative_to(root))
        report["span_self_raw_s"] = dict(sorted(tracer.self_times().items()))
    chosen, values = (layer_units, layer) if traced else (END_TO_END, end_to_end)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": chosen[name]} for name in chosen},
    }
    return report, result


def run_cycles(workload, seconds, traced, tracer, speed) -> dict:
    """``seconds / workload.cycle_seconds`` whole cycles (two at least when
    traced, so that each traced cycle has an untraced twin).

    The work is fixed rather than the time, so that both commits of a
    comparison measure the same ops and the same order statistics; on the
    reference machine the cycles take about ``seconds``.  A run that takes
    far longer stops early.
    """
    n_cycles = max(2 if traced else 1, round(seconds / workload.cycle_seconds))
    deadline = time.perf_counter() + min(3 * seconds, 100)
    by_kind, untraced_times, cycle_times = {}, [], []
    replay = {}  # kind -> ([untraced seconds], [traced seconds])
    attempted = failed = 0
    failures = []
    cycle = 0
    while cycle < n_cycles and (cycle < 2 or time.perf_counter() < deadline):
        pair, on = cycle // 2, traced and cycle % 2 == 1
        total = 0.0
        ops = workload.cycle_ops(pair)
        if on:
            tracer.install()
        try:
            for op in ops:
                attempted += 1
                error = replayed = None
                index = speed.sample()
                if on and op.replay is None:
                    tracer.begin_op()
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # a crashed op is a failed op
                    error = f"{op.kind}: crashed: {exc!r}"
                elapsed = time.perf_counter() - t0
                if not on or op.replay is not None:
                    by_kind.setdefault(op.kind, []).append((elapsed, index))
                    untraced_times.append((elapsed, index))
                if traced and op.replay is not None and error is None:
                    replayed, rep_s, error = replay_op(op, tracer, on)
                    replay.setdefault(op.kind, ([], []))[int(on)].append(rep_s)
                    elapsed = rep_s
                total += elapsed
                if error is None:
                    try:
                        problems = op.check(out, replayed)
                    except Exception as exc:  # malformed output
                        problems = [f"{op.kind}: check raised {exc!r}"]
                else:
                    problems = [error]
                if problems:
                    failed += 1
                    failures += problems
        finally:
            if on:
                tracer.uninstall()
        cycle_times.append((len(ops), total))
        cycle += 1
    return {"by_kind": by_kind, "untraced_times": untraced_times, "replay": replay,
            "cycle_times": cycle_times, "cycles": cycle, "attempted": attempted,
            "failed": failed, "failures": failures}


def replay_op(op, tracer, on) -> tuple:
    """In-process replay of a cold op, traced when ``on``."""
    if on:
        tracer.begin_op()
        idx = tracer.enter("cli.main")
    t0 = time.perf_counter()
    try:
        return op.replay(), time.perf_counter() - t0, None
    except Exception as exc:
        return None, time.perf_counter() - t0, f"{op.kind}: replay crashed: {exc!r}"
    finally:
        if on:
            tracer.leave(idx)


def cli_layer(loop, by_kind, out_bytes) -> dict:
    out = {}
    for cmd, (plain, _) in loop["replay"].items():
        inproc = statistics.median(plain)
        out[f"cli.cold_s.{cmd}"] = by_kind[cmd]
        out[f"cli.inproc_s.{cmd}"] = inproc
        out[f"cli.startup_s.{cmd}"] = by_kind[cmd] - inproc
        out[f"cli.out_bytes.{cmd}"] = out_bytes.get(cmd, 0)
    return out


def overhead(loop) -> dict:
    """Traced minus untraced time of the same ops (cycle pairs), per op."""
    cycles = loop["cycle_times"]
    pairs = [(cycles[k], cycles[k + 1]) for k in range(0, len(cycles) - 1, 2)]
    plain = sum(p[1] for p, _ in pairs)
    traced = sum(t[1] for _, t in pairs)
    n_ops = sum(t[0] for _, t in pairs)
    return {"trace.overhead_s": (traced - plain) / n_ops,
            "trace.overhead_ratio": traced / plain - 1.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "bssym" / "__init__.py").is_file():
        print(f"error: no bssym sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
