"""Checks on the benchmark itself: trace completeness, report bytes under
tracing, the bypass predictions, and the output contract.

    python3 -m pytest bench/test_bench.py

About a minute on two cores; most of it is one short round of each
workload under cProfile.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import heckelab  # noqa: E402
from heckelab import cli  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, run_round  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def short(workload):
    """The workload with every suite at 2 samples (S2 3 ignores it)."""
    return dataclasses.replace(workload, suites=tuple(
        dataclasses.replace(s, samples=2) for s in workload.suites))


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_round(request):
    """One short round untraced, then the same round traced under cProfile."""
    workload = short(WORKLOADS[request.param])
    plain = run_round(cli, workload, DEFAULT_SEED)
    tracer = Tracer(heckelab)
    profile = cProfile.Profile()
    with tracer:
        profile.enable()
        traced = run_round(cli, workload, DEFAULT_SEED)
        profile.disable()
    return request.param, plain, traced, tracer, pstats.Stats(profile).stats


def test_rounds_pass(traced_round):
    _, plain, traced, _, _ = traced_round
    assert plain.ok, plain.error
    assert traced.ok, traced.error


def test_trace_counts_every_call(traced_round):
    """A binding the tracer missed would call the original unwrapped, so
    cProfile would count more calls of it than the wrapper did."""
    _, _, _, tracer, profiled = traced_round
    mismatched = {}
    for key, fn in tracer.targets.items():
        code = fn.__code__
        row = profiled.get((code.co_filename, code.co_firstlineno, code.co_name))
        profiled_calls = row[1] if row else 0
        if profiled_calls != tracer.stats[key].calls:
            mismatched[key] = (profiled_calls, tracer.stats[key].calls)
    assert not mismatched, mismatched
    assert sum(s.calls for s in tracer.stats.values()) > 0


def test_tracing_keeps_report_bytes(traced_round):
    _, plain, traced, _, _ = traced_round
    assert traced.sha256 == plain.sha256


def test_bypass_predictions(traced_round):
    name, _, _, tracer, _ = traced_round
    kernel_calls = (tracer.stats["theta.theta_raw"].calls
                    + tracer.stats["theta.theta_raw_deriv"].calls)
    if name == "rational-slices":
        assert kernel_calls == 0
    else:
        assert kernel_calls > 0
    if name == "curve-membership":
        assert tracer.stats["rational.polymat_mul"].calls == 0
        assert tracer.stats["pseries.series_mul"].calls == 0


def test_uninstall_restores_every_binding():
    before = {(m, k): v for m in Tracer(heckelab).modules.values()
              for k, v in vars(m).items()}
    commands = dict(cli.COMMANDS)
    mul = heckelab.rational.PolyMat2.__mul__
    with Tracer(heckelab):
        assert cli.COMMANDS["compute-space"] is not commands["compute-space"]
        assert heckelab.rational.PolyMat2.__mul__ is not mul
    assert heckelab.rational.PolyMat2.__mul__ is mul
    after = {(m, k): v for m in Tracer(heckelab).modules.values()
             for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert cli.COMMANDS == commands


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    done = _run(["--workload", "curve-membership", "--seed", "3", "--seconds", "0",
                 "--trace", trace])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "curve-membership", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
