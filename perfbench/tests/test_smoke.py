"""Smoke test for the benchmark: every workload at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Asserts that each run prints every metric BENCHMARK.json names, with its
unit, and that no operation failed its output check. No timing thresholds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--records", "300",
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload: str) -> None:
    lines, result = run(workload, trace=0)
    assert_metrics(result, SPEC["end_to_end"])
    error_rate = [line.split() for line in lines if line.split()[:1] == ["error_rate"]]
    assert [fields[1:3] for fields in error_rate] == [["0.0000", "ratio"]]
    assert sum(line.startswith("known defect, ") for line in lines) == 2


def test_traced_run_prints_every_per_layer_metric() -> None:
    lines, result = run(WORKLOADS[0], trace=1)
    assert_metrics(result, SPEC["per_layer"])
    for workload in WORKLOADS:
        assert any(line.strip().startswith(f"{workload}: traced op") for line in lines)
