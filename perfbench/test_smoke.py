"""Smoke test of the benchmark: a tiny run of every workload, untraced and traced.

    python -m pytest perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1]), proc.stderr


def _assert_metrics(lines, result, spec_metrics):
    units = {m["name"]: m["unit"] for m in spec_metrics}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_end_to_end_metrics(workload):
    lines, result, stderr = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, stderr
    _assert_metrics(lines, result, SPEC["end_to_end"])
    assert f"error_rate 0.0 ratio (0 of {result['attempted']})" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_outputs(workload):
    # The traced run repeats the untraced requests and counts any request whose
    # outputs differ between the two as failed.
    lines, result, stderr = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, stderr
    _assert_metrics(lines, result, SPEC["per_layer"])
