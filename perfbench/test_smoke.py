"""Smoke test of the benchmark at tiny sizes (n <= 8, a few hundred shots).

Run from the repository root with ``python3 -m pytest perfbench``; the
repository's own suite (``testpaths = ["tests"]``) does not collect it, so
it stays out of that suite's timing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        metrics = result["metrics"]
        assert metrics["op_tail_s"]["value"] >= metrics["op_p50_s"]["value"]


@pytest.mark.parametrize("count", [1, 2, 10, 11, 12, 40, 100])
def test_tail_is_p90_and_not_below_median(count):
    durations = list(np.random.default_rng(count).permutation(np.arange(1.0, count + 1)))
    tail, beyond = run._tail(durations)
    assert tail >= np.median(durations)
    assert tail == sorted(durations)[-1 - beyond]
    assert beyond == count - int(np.ceil(0.9 * count))


def test_same_seed_same_inputs(tmp_path):
    a = workloads.make("paraxial-1d", 5, tmp_path, smoke=True)
    b = workloads.make("paraxial-1d", 5, tmp_path, smoke=True)
    c = workloads.make("paraxial-1d", 6, tmp_path, smoke=True)
    assert a.z_values == b.z_values != c.z_values
    assert np.array_equal(a.states[0].amplitudes, b.states[0].amplitudes)
    cli_a = workloads.make("cli-defaults", 5, tmp_path, smoke=True)
    assert cli_a.cli_seed == workloads.make("cli-defaults", 5, tmp_path, smoke=True).cli_seed


def test_wrong_result_fails_the_check(tmp_path):
    workload = workloads.make("paraxial-1d", 5, tmp_path, smoke=True)
    quantum, reference = workload.op(0)
    workload.check(0, (quantum, reference))
    with pytest.raises(workloads.CheckFailed):
        workload.check(0, (quantum, reference * np.exp(1e-6j)))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
