"""Tiny-load smoke test of the benchmark.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs one tiny cycle (two when traced).  The test asserts that
the result line names exactly the metrics of BENCHMARK.json with their units,
and that an injected wrong output raises the failure count.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, report_line[-2000:]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads(report_line)["report"]
    for key in ("environment", "why", "op_s.tail_percentile", "op_s.tail_n"):
        assert key in report
    reported = set(report["end_to_end"])
    assert {m["name"] for m in SPEC["end_to_end"]} | {"error_rate"} <= reported
    if workload == "cli-cold":
        assert {f"{cmd}_s" for cmd in run.CLI_COMMANDS} <= reported
    assert all("unit" in v for v in report["end_to_end"].values())


def test_wrong_flow_prefactor_raises_error_rate(monkeypatch):
    import bssym.transforms as tr

    original = tr.FiniteTransform.prefactor
    monkeypatch.setattr(tr.FiniteTransform, "prefactor",
                        lambda self, ctx, t, u: original(self, ctx, t, u) * (1 + 1e-6))
    report, result = run.measure("certify-sweep", 7, 1, False)
    assert result["failed"] > 0 and result["correct"] is False
    assert report["end_to_end"]["error_rate"]["value"] > 0


def test_wrong_bracket_table_is_caught(tmp_path):
    import workloads

    cli = workloads.CliCold(7, str(tmp_path), {}, None)
    cfg = cli.config(0)
    out = cli.run_inproc(cfg.argv("brackets"))
    assert cli._check_brackets(cfg, out, random.Random(0)) == []
    obj = json.loads(out.stdout)
    entry = next(e for e in obj["table"] if (e["i"], e["j"]) == (2, 5))
    entry["terms"][0]["coeff"] = str(Fraction(1, 3))
    out.stdout = json.dumps(obj).encode()
    assert cli._check_brackets(cfg, out, random.Random(0))
