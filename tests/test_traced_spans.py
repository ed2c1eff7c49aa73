"""The training and diagnostics path reaches every span the benchmark traces.

The benchmark's tracer (``perfbench/tracer.py``) wraps library functions by
rebinding module attributes, so a call that bypasses the attribute (through a
private alias, say) drops out of its per-layer metrics. This runs the traced
full-method workload in this process, as ``perfbench/test_perfbench.py`` does
through the benchmark command, and checks that every timed or counted span of
``BENCHMARK.json`` was reached. It reads the files under ``perfbench/`` and
writes none.
"""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_SUFFIXES = (".ms", ".self_ms", ".calls")


def test_traced_full_method_reaches_every_span(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workload = importlib.import_module("workload")

    result = workload.run("full_triplet", 0, 0.5, True)
    assert result["failed"] == 0, result["runs"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = [m["name"] for m in spec["per_layer"]
             if m["name"].endswith(SPAN_SUFFIXES)]
    assert spans
    missing = [name for name in spans if not result["metrics"].get(name, 0) > 0]
    assert not missing, f"spans the traced run never reached: {missing}"
