"""Smoke test: every workload and the traced run at tiny sizes, no timing asserts.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("verify-bulk", "verify-small", "audit-quadrature", "channel")
END_TO_END = {"setup_s", "op_p50_rel", "peak_rss_mb"}


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--seed", "3", "--seconds", "0.5", "--scale", "0.01", *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def declared(kind: str) -> set[str]:
    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_end_to_end_metric(workload):
    result, report = bench("--workload", workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END == declared("end_to_end")
    for name in ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "op_tail_rel", "fail_frac", "peak_rss_mb"):
        assert f"  {name} " in report
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_the_roadmap_table():
    result, report = bench("--workload", "channel", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == declared("per_layer")
    assert "| `run_experiment`, " in report and "proposals per accepted shot" in report
    assert "every span closed inside its operation's span" in report


def in_process():
    """The benchmark's modules, imported in this process against the checkout's mdhv."""
    sys.path.insert(0, str(RUN.parent))
    import program

    program.import_mdhv()
    import layers
    import tracing
    import workloads

    return layers, tracing, workloads


def test_a_missing_layer_function_is_a_problem_not_a_zero(monkeypatch):
    layers, tracing, _ = in_process()
    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + [("mdhv.sphere", "no_such_sampler", "sphere.x", None)])
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert any("no_such_sampler" in p for p in tracer.problems)
    # a pass that reaches no layer reads NaN everywhere, never 0
    assert all(math.isnan(v) for v in layers.pass_metrics([], Counter()).values())


def test_pooled_test_fails_a_bias_no_single_row_shows():
    _, _, workloads = in_process()
    workloads.check_pooled(1000.0, 1000, "unbiased")
    # a bias of one standard error in each of 1000 trials adds ~1 to each: no row nears the 5-sigma gate
    with pytest.raises(workloads.CheckFailed):
        workloads.check_pooled(2000.0, 1000, "biased")


def test_refuses_to_run_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "channel", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
