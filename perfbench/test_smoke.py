"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Runs every workload at ``--tiny`` size, untraced and traced, and checks the
result line against ``BENCHMARK.json``: every end-to-end metric present,
finite and with its declared unit; the traced run emitting exactly the
declared per-layer names, so a renamed wrapper target fails here instead
of reporting 0.  Also checks that the benchmark refuses to run without the
source tree.  Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def _assert_metrics(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], m["name"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(workload):
    result = _result(_run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                          "--trace", "0", "--tiny"))
    _assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_exactly_the_declared_layers(workload):
    result = _result(_run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                          "--trace", "1", "--tiny"))
    _assert_metrics(result["metrics"], SPEC["per_layer"])
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
