"""Smoke test of the benchmark itself; asserts no wall-clock bounds.

    python3 -m pytest perfbench/smoke.py

Runs every workload at its smallest inputs, untraced and traced, and checks
the result line against BENCHMARK.json and that every answer passed the
output check. Also checks that the output check rejects wrong answers, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import model  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    argv[0] = sys.executable
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_schema_and_passes_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "answers_digest" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_output_check_rejects_wrong_plans():
    graph = model.Graph.from_file(ROOT / "fixtures" / "testbed6.json")
    req = {"src": 0, "dst": 5, "data_gb": 3.0, "budget": 100.0}
    path = [0, 1, 4, 5]
    configs = {i: model.node_config(graph.nodes[i], 1.0, req["data_gb"]) for i in path[:-1]}
    latency, cost = model.path_totals(graph, path, configs, req["data_gb"])
    plan = {
        "path": path,
        "per_node": {str(i): {"method": m, "bandwidth_mbps": bw} for i, (m, bw) in configs.items()},
        "predicted_cost_usd": cost,
        "predicted_latency_s": latency,
        "fraction_k": 1.0,
    }
    assert model.check_plan(graph, req, plan) == []
    assert model.check_plan(graph, {**req, "budget": cost / 2}, plan)
    assert model.check_plan(graph, req, {**plan, "predicted_cost_usd": cost * 1.01})
    assert model.check_plan(graph, req, {**plan, "path": [0, 4, 5]})
    assert model.check_plan(graph, req, {**plan, "fraction_k": 0.05})
