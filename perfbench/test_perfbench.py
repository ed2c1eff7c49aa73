"""Fast self-test of the benchmark at a tiny run length.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

Each case runs the benchmark command of ``BENCHMARK.json`` as a separate
process, as a benchmark driver would.
"""

from __future__ import annotations

import fnmatch
import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MOVES = json.loads((HERE / "moves.json").read_text())["groups"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = 3  # short, yet long enough for every workload to beat chance


def _command(cwd: Path, workload: str, trace: int, seed: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@functools.lru_cache(maxsize=None)
def run_bench(workload: str, trace: int, seed: int = 0) -> dict:
    proc = _command(ROOT, workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reaches_every_span_of_the_full_method():
    metrics = run_bench("full_triplet", 1)["metrics"]
    for name, got in metrics.items():
        if name.endswith((".ms", ".self_ms", ".calls")):
            assert got["value"] > 0, name
    assert metrics["trace.samples_per_s.traced"]["value"] > 0
    assert metrics["trace.samples_per_s.untraced"]["value"] > 0


def test_local_loss_layers_are_idle_without_the_local_loss():
    metrics = run_bench("episodic_global", 1)["metrics"]
    for name in ("losses.mine_semihard_triplets.ms", "losses.triplets",
                 "nets.metric_forward.ms", "autodiff.grad.metric.ms"):
        assert metrics[name]["value"] == 0, name


def test_counts_repeat_across_processes():
    first = run_bench("full_triplet", 1)["metrics"]
    second = json.loads(_command(ROOT, "full_triplet", 1, 0)
                        .stdout.strip().splitlines()[-1])["metrics"]
    counted = [n for n in first if n.startswith("autodiff.nodes.")
               or n in ("autodiff.value_mb", "losses.triplets",
                        "losses.semihard_frac", "losses.active_triplet_frac")]
    assert counted
    for name in counted:
        assert first[name] == second[name], name


def test_every_autodiff_op_has_a_count():
    sys.path.insert(0, str(ROOT / "src"))
    from masf import autodiff

    names = {m["name"] for m in SPEC["per_layer"]}
    for op in [*autodiff._FORWARD, "leaf", "const"]:
        assert f"autodiff.nodes.op.{op}" in names, op


def test_moves_map_every_per_layer_metric_once():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["per_layer"]:
        groups = [g["name"] for g in MOVES
                  if any(fnmatch.fnmatchcase(m["name"], p) for p in g["metrics"])]
        assert len(groups) == 1, (m["name"], groups)
    for g in MOVES:
        assert set(g["moves"]) <= e2e, g["name"]
        for on in [*g["moves"].values(), g["unchanged_on"]]:
            assert set(on) <= set(WORKLOADS), g["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(tmp_path, WORKLOADS[0], 0, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
