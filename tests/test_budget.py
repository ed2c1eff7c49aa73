"""Cost budget of one meta step, counted per op.

A few seed-0 steps of each benchmark configuration (the canonical study,
target 3, sources 0/1/2, triplet local loss) are trained while two counters
run: graph nodes built, by op (every ``_make``, ``leaf`` and ``const``, each
of which must return a node holding a read-only float64 array), and op calls
of the value-mode sweeps (every ``_on_values``). The counts are
exact, so a change that makes the engine do more work per step fails here,
where timing would only show noise. The full_triplet step also builds every
op of ``autodiff._FORWARD``, so an op that only tests build fails here.

The peak memory of one triplet loss, miner and hinge, is bounded the same
way: the bytes that ``tracemalloc`` sees at its peak, in units of one [N, N]
float64 buffer, so a change that adds such a buffer fails here.

The bounds are the counts of the current code. A change that lowers a count
lowers its bound with it; one that must raise a bound says why. Print the
current counts with ``PYTHONPATH=src python tests/test_budget.py``.
"""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from masf import autodiff as ad
from masf import bench, engine, harness, losses

TARGET = 3
SEED = 0
STEPS = 3
CONFIGS = {  # batch size per source domain, local loss on or off
    "full_triplet": dict(batch_size=25, use_local=True),
    "episodic_global": dict(batch_size=25, use_local=False),
    "wide_triplet": dict(batch_size=50, use_local=True),
}

# per config: the most graph nodes and value-mode op calls of any step, by op
BUDGET = {
    "full_triplet": {
        "graph": {"add": 6, "broadcast": 2, "const": 33, "div": 2, "exp": 3,
                  "gather_rows": 1, "leaf": 10, "log": 3, "matmul": 16,
                  "mul": 16, "neg": 1, "relu": 5, "scatter_rows": 1,
                  "sqrt": 1, "square": 1, "sub": 10, "sum": 6, "sum_to": 3},
        "values": {"add": 25, "broadcast": 11, "div": 10, "matmul": 28,
                   "mul": 38, "neg": 11, "scatter_rows": 1, "sum_to": 12},
    },
    "episodic_global": {
        "graph": {"add": 4, "broadcast": 2, "const": 25, "div": 1, "exp": 3,
                  "gather_rows": 1, "leaf": 6, "log": 3, "matmul": 13,
                  "mul": 14, "neg": 1, "relu": 4, "scatter_rows": 1,
                  "sub": 10, "sum": 4, "sum_to": 3},
        "values": {"add": 20, "broadcast": 7, "div": 4, "matmul": 21,
                   "mul": 23, "neg": 9, "scatter_rows": 1, "sum_to": 8},
    },
    "wide_triplet": {
        "graph": {"add": 6, "broadcast": 2, "const": 33, "div": 2, "exp": 3,
                  "gather_rows": 1, "leaf": 10, "log": 3, "matmul": 16,
                  "mul": 16, "neg": 1, "relu": 5, "scatter_rows": 1,
                  "sqrt": 1, "square": 1, "sub": 10, "sum": 6, "sum_to": 3},
        "values": {"add": 25, "broadcast": 11, "div": 10, "matmul": 28,
                   "mul": 38, "neg": 11, "scatter_rows": 1, "sum_to": 12},
    },
}


# per batch size N (75 and 150 are the benchmark's): the peak bytes traced
# during one triplet_loss_semihard call, in units of N^2 * 8
TRIPLET_PEAK = {75: 4.41, 150: 3.98}


def triplet_peak(n: int) -> float:
    """Peak traced bytes of one triplet loss on N rows of five classes, over
    N^2 * 8; the call before the traced one warms every cache."""
    rng = np.random.default_rng(0)
    e, labels = ad.leaf(rng.normal(size=(n, 8))), np.arange(n) % 5
    losses.triplet_loss_semihard(e, labels, 1.0)
    tracemalloc.start()
    try:
        losses.triplet_loss_semihard(e, labels, 1.0)
        return tracemalloc.get_traced_memory()[1] / (n * n * 8)
    finally:
        tracemalloc.stop()


def step_counts(name: str, monkeypatch) -> list[dict[str, Counter]]:
    """Graph nodes and value-mode op calls by op, one entry per step."""
    cfg = harness.canonical_experiment_config()
    datasets = bench.canonical_datasets()
    sources = {k: d for k, d in datasets.items() if k != TARGET}
    hp = replace(cfg.hp, episodic=True, use_global=True,
                 local_loss_kind=engine.TRIPLET, **CONFIGS[name])
    state = engine.make_state(harness.architecture(cfg, datasets), hp, SEED)

    count = {"graph": Counter(), "values": Counter()}

    def counted(kind, fn, op_of):
        def wrapper(*args, **kwargs):
            count[kind][op_of(args)] += 1
            out = fn(*args, **kwargs)
            if kind == "graph":  # Expr freezes its array without converting it
                v = out.value
                assert type(v) is np.ndarray and v.dtype == np.float64, out
                assert not v.flags.writeable, out
            return out
        return wrapper

    monkeypatch.setattr(ad, "_make", counted("graph", ad._make, lambda a: a[0]))
    monkeypatch.setattr(ad, "leaf", counted("graph", ad.leaf, lambda a: "leaf"))
    monkeypatch.setattr(ad, "const", counted("graph", ad.const, lambda a: "const"))
    monkeypatch.setattr(ad, "_on_values",
                        counted("values", ad._on_values, lambda a: a[0]))

    steps = []

    def sink(record):
        steps.append({kind: Counter(c) for kind, c in count.items()})
        for c in count.values():
            c.clear()

    engine.train(state, sources, STEPS, sink)
    return steps


def max_counts(steps: list[dict[str, Counter]]) -> dict[str, dict[str, int]]:
    out = {}
    for kind in ("graph", "values"):
        total = Counter()
        for step in steps:
            total |= step[kind]  # the larger count of each op
        out[kind] = dict(sorted(total.items()))
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_step_stays_within_budget(name, monkeypatch):
    got = max_counts(step_counts(name, monkeypatch))
    for kind, bounds in BUDGET[name].items():
        over = {op: (n, bounds.get(op, 0)) for op, n in got[kind].items()
                if n > bounds.get(op, 0)}
        assert not over, f"{name} {kind}: (count, bound) by op {over}"


def test_full_triplet_step_builds_every_op(monkeypatch):
    """An op that only tests build has no place in the engine."""
    got = max_counts(step_counts("full_triplet", monkeypatch))
    unbuilt = set(ad._FORWARD) - set(got["graph"]) - set(got["values"])
    assert not unbuilt, f"ops no full_triplet step builds: {sorted(unbuilt)}"


@pytest.mark.parametrize("n", sorted(TRIPLET_PEAK))
def test_triplet_loss_peak_memory(n):
    peak = triplet_peak(n)
    assert peak <= TRIPLET_PEAK[n], f"N={n}: peak {peak:.3f} N^2 * 8 bytes"


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        for case in sorted(CONFIGS):
            print(f"{case!r}: {max_counts(step_counts(case, mp))},")
            mp.undo()
    print({n: round(triplet_peak(n), 3) for n in sorted(TRIPLET_PEAK)})
