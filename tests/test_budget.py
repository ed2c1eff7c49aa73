"""Cost budget of one meta step, counted per op and per Python call.

A few seed-0 steps of each benchmark configuration (the canonical study,
target 3, sources 0/1/2, triplet local loss) are trained while two counters
run: graph nodes built, by op (every ``_make``, ``leaf`` and ``const``, each
of which must return a node holding a read-only float64 array), and op calls
of the value-mode sweeps (every ``_on_values``). The counts are
exact, so a change that makes the engine do more work per step fails here,
where timing would only show noise. The full_triplet step also builds every
op of ``autodiff._FORWARD``, so an op that only tests build fails here, and
wide_triplet, at twice its batch, counts the same, so work that grows with
the batch size fails here too.

A second pass of the same steps counts Python calls (``sys.setprofile``
``call`` events) per code object, and bounds each step's total and the calls
of each code object of ``autodiff``, ``engine``, ``losses`` and ``nets``, so
added bookkeeping fails here too. Neither pass changes a computed value.

The same node and value-op counters also run over the first steps of a few
cells of every ablation row, with each local loss, and find one count table
per (row, local loss, inner clip fired, outer clip fired), so a step whose
graph depends on the data it draws fails here.

The peak memory of one triplet loss, miner and hinge, is bounded the same
way: the bytes that ``tracemalloc`` sees at its peak, in units of one [N, N]
float64 buffer, so a change that adds such a buffer fails here.

The bounds are the counts of the current code. A change that lowers a count
lowers its bound with it; one that must raise a bound says why. Print the
current counts with ``PYTHONPATH=src python tests/test_budget.py``.
"""

import gc
import sys
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

# per config: the most graph nodes and value-mode op calls of any step, by
# op; wide_triplet shares full_triplet's table, as its counts must be equal
BUDGET = {
    "full_triplet": {
        "graph": {"add": 6, "broadcast": 2, "const": 31, "div": 2, "exp": 3,
                  "gather_rows": 1, "leaf": 10, "log": 3, "matmul": 16,
                  "mul": 16, "neg": 1, "relu": 5, "scatter_rows": 1,
                  "sqrt": 1, "square": 1, "sub": 10, "sum": 9},
        "values": {"add": 25, "broadcast": 11, "div": 10, "matmul": 28,
                   "mul": 38, "neg": 11, "scatter_rows": 1, "sum": 12},
    },
    "episodic_global": {
        "graph": {"add": 4, "broadcast": 2, "const": 23, "div": 1, "exp": 3,
                  "gather_rows": 1, "leaf": 6, "log": 3, "matmul": 13,
                  "mul": 14, "neg": 1, "relu": 4, "scatter_rows": 1,
                  "sub": 10, "sum": 7},
        "values": {"add": 20, "broadcast": 7, "div": 4, "matmul": 21,
                   "mul": 23, "neg": 9, "scatter_rows": 1, "sum": 8},
    },
}
BUDGET["wide_triplet"] = BUDGET["full_triplet"]


CALL_MODULES = ("masf.autodiff", "masf.engine", "masf.losses", "masf.nets")
# per config: the most Python calls of any step, in total and by code object
# of CALL_MODULES (see max_calls); wide_triplet shares full_triplet's table
CALLS = {
    "full_triplet": {
        "autodiff.<lambda>": 267, "autodiff.Expr.__init__": 118,
        "autodiff.GradMap.__getitem__": 16, "autodiff.GradMap.__init__": 3,
        "autodiff.GradMap.__init__.<locals>.<dictcomp>": 3,
        "autodiff.GradMap.__iter__": 2, "autodiff._broadcast": 13,
        "autodiff._elementwise": 28, "autodiff._fwd_div": 12,
        "autodiff._fwd_log": 3, "autodiff._fwd_matmul": 44,
        "autodiff._fwd_scatter_rows": 2, "autodiff._fwd_sqrt": 1,
        "autodiff._gather": 1, "autodiff._indices": 1, "autodiff._make": 77,
        "autodiff._on_graph": 18,
        "autodiff._on_values": 136, "autodiff._path": 3,
        "autodiff._sum_to": 69, "autodiff._sum_to.<locals>.<genexpr>": 8,
        "autodiff._vjp_matmul_a": 13, "autodiff._vjp_matmul_b": 20,
        "autodiff.add": 5, "autodiff.as_expr": 47, "autodiff.clip_by_norm": 2,
        "autodiff.const": 31, "autodiff.div": 1, "autodiff.exp": 3,
        "autodiff.gather_rows": 1, "autodiff.global_norm": 2,
        "autodiff.global_norm.<locals>.<listcomp>": 2, "autodiff.grad": 3,
        "autodiff.grad.<locals>.<listcomp>": 3,
        "autodiff.grad.<locals>.<setcomp>": 3, "autodiff.leaf": 10,
        "autodiff.log": 3, "autodiff.log_softmax": 1,
        "autodiff.log_sum_exp": 2, "autodiff.matmul": 11, "autodiff.mean": 1,
        "autodiff.mul": 12, "autodiff.reduce_sum": 6, "autodiff.relu": 5,
        "autodiff.softmax": 1, "autodiff.sqrt": 1, "autodiff.square": 1,
        "autodiff.sub": 10, "autodiff.values_only": 4,
        "engine.__create_fn__.<locals>.__init__": 2,
        "engine._clipped_grads": 2, "engine._descend": 3,
        "engine._descend.<locals>.<listcomp>": 3, "engine._finite": 6,
        "engine._local_loss": 1, "engine._mean_task_loss": 1,
        "engine._stack": 2, "engine._stack.<locals>.<listcomp>": 4,
        "engine.check_n_meta_test": 1, "engine.decayed_lr": 1,
        "engine.draw_batches": 1, "engine.meta_step": 1,
        "engine.meta_step.<locals>.<listcomp>": 2, "engine.split_domains": 1,
        "engine.split_domains.<locals>.<listcomp>": 2,
        "losses._check_local_batch": 1, "losses._pair_form": 2,
        "losses._sq_dists": 2, "losses.class_means": 1,
        "losses.distance_matrix": 1, "losses.global_alignment_loss": 1,
        "losses.global_alignment_loss.<locals>.<listcomp>": 3,
        "losses.global_alignment_loss.<locals>.<listcomp>.<listcomp>": 2,
        "losses.global_alignment_loss.<locals>.<setcomp>": 1,
        "losses.mine_semihard_triplets": 1, "losses.soft_label_matrix": 1,
        "losses.task_loss": 1, "losses.triplet_loss_semihard": 1,
        "nets.ParamSet.__post_init__": 5, "nets.ParamSet.out_width": 1,
        "nets.ParamSet.replace": 5, "nets.__create_fn__.<locals>.__init__": 5,
        "nets._mlp": 5, "nets.feature_forward": 2, "nets.metric_forward": 1,
        "nets.sgd_step": 2, "nets.sgd_step.<locals>.<listcomp>": 2,
        "nets.task_forward": 2, "total": 1398
    },
    "episodic_global": {
        "autodiff.<lambda>": 204, "autodiff.Expr.__init__": 93,
        "autodiff.GradMap.__getitem__": 12, "autodiff.GradMap.__init__": 2,
        "autodiff.GradMap.__init__.<locals>.<dictcomp>": 2,
        "autodiff.GradMap.__iter__": 2, "autodiff._broadcast": 9,
        "autodiff._elementwise": 23, "autodiff._fwd_div": 5,
        "autodiff._fwd_log": 3, "autodiff._fwd_matmul": 34,
        "autodiff._fwd_scatter_rows": 2, "autodiff._gather": 1,
        "autodiff._indices": 1, "autodiff._make": 64,
        "autodiff._on_graph": 18,
        "autodiff._on_values": 93, "autodiff._path": 2, "autodiff._sum_to": 54,
        "autodiff._sum_to.<locals>.<genexpr>": 4,
        "autodiff._vjp_matmul_a": 10, "autodiff._vjp_matmul_b": 16,
        "autodiff.add": 3, "autodiff.as_expr": 43, "autodiff.clip_by_norm": 2,
        "autodiff.const": 23, "autodiff.exp": 3, "autodiff.gather_rows": 1,
        "autodiff.global_norm": 2,
        "autodiff.global_norm.<locals>.<listcomp>": 2, "autodiff.grad": 2,
        "autodiff.grad.<locals>.<listcomp>": 2,
        "autodiff.grad.<locals>.<setcomp>": 2, "autodiff.leaf": 6,
        "autodiff.log": 3, "autodiff.log_softmax": 1,
        "autodiff.log_sum_exp": 2, "autodiff.matmul": 8, "autodiff.mean": 1,
        "autodiff.mul": 10, "autodiff.reduce_sum": 4, "autodiff.relu": 4,
        "autodiff.softmax": 1, "autodiff.sub": 10, "autodiff.values_only": 2,
        "engine.__create_fn__.<locals>.__init__": 2,
        "engine._clipped_grads": 2, "engine._descend": 2,
        "engine._descend.<locals>.<listcomp>": 2, "engine._finite": 5,
        "engine._mean_task_loss": 1, "engine._stack": 2,
        "engine._stack.<locals>.<listcomp>": 4, "engine.check_n_meta_test": 1,
        "engine.decayed_lr": 1, "engine.draw_batches": 1,
        "engine.meta_step": 1, "engine.meta_step.<locals>.<listcomp>": 2,
        "engine.split_domains": 1,
        "engine.split_domains.<locals>.<listcomp>": 2, "losses._pair_form": 1,
        "losses.class_means": 1, "losses.global_alignment_loss": 1,
        "losses.global_alignment_loss.<locals>.<listcomp>": 3,
        "losses.global_alignment_loss.<locals>.<listcomp>.<listcomp>": 2,
        "losses.global_alignment_loss.<locals>.<setcomp>": 1,
        "losses.soft_label_matrix": 1, "losses.task_loss": 1,
        "nets.ParamSet.__post_init__": 4, "nets.ParamSet.out_width": 1,
        "nets.ParamSet.replace": 4, "nets.__create_fn__.<locals>.__init__": 4,
        "nets._mlp": 4, "nets.feature_forward": 2, "nets.sgd_step": 2,
        "nets.sgd_step.<locals>.<listcomp>": 2, "nets.task_forward": 2,
        "total": 1064
    },
}
CALLS["wide_triplet"] = CALLS["full_triplet"]


# the (target, seed) cells whose steps the step-shape test compares; past
# iteration 3 no canonical step clipped, so SHAPE_STEPS steps reach unclipped ones
SHAPE_CELLS = [(0, 0), (1, 1), (2, 2), (3, 3)]  # one per target
SHAPE_STEPS = 6

# per batch size N (75 and 150 are the benchmark's): the peak bytes traced
# during one triplet_loss_semihard call, in units of N^2 * 8
TRIPLET_PEAK = {75: 4.392, 150: 3.777}


def triplet_peak(n: int) -> float:
    """Peak traced bytes of one triplet loss on N rows of five classes, over
    N^2 * 8. The interpreter's free lists serve objects without a traced
    allocation, so the reading would depend on what ran before in the
    process: a full collection empties them, the call before the traced one
    refills them as the loss does and warms every cache, and no collection
    runs in between."""
    rng = np.random.default_rng(0)
    e, labels = ad.leaf(rng.normal(size=(n, 8))), np.arange(n) % 5
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        losses.triplet_loss_semihard(e, labels, 1.0)
        tracemalloc.start()
        losses.triplet_loss_semihard(e, labels, 1.0)
        return tracemalloc.get_traced_memory()[1] / (n * n * 8)
    finally:
        tracemalloc.stop()
        if collecting:
            gc.enable()


def initial_state(name: str) -> tuple[engine.EpisodeState, dict]:
    """The seed-0 state of config ``name`` and its source datasets."""
    cfg = harness.canonical_experiment_config()
    datasets = bench.canonical_datasets()
    sources = {k: d for k, d in datasets.items() if k != TARGET}
    hp = replace(cfg.hp, episodic=True, use_global=True,
                 local_loss_kind=engine.TRIPLET, **CONFIGS[name])
    return engine.make_state(harness.architecture(cfg, datasets), hp, SEED), sources


def install_counters(monkeypatch) -> dict[str, Counter]:
    """Count graph nodes and value-mode op calls by op from now on."""
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
    return count


def counted_steps(state: engine.EpisodeState, sources: dict, steps: int,
                  count: dict[str, Counter]
                  ) -> list[tuple[engine.MetricsRecord, dict[str, Counter]]]:
    """Each step's record and the counts of :func:`install_counters`."""
    out = []

    def sink(record):
        out.append((record, {kind: Counter(c) for kind, c in count.items()}))
        for c in count.values():
            c.clear()

    for c in count.values():
        c.clear()
    engine.train(state, sources, steps, sink)
    return out


def step_counts(name: str, monkeypatch) -> list[dict[str, Counter]]:
    """Graph nodes and value-mode op calls by op, one entry per step."""
    state, sources = initial_state(name)
    count = install_counters(monkeypatch)
    return [counts for _, counts in counted_steps(state, sources, STEPS, count)]


def max_counts(steps: list[dict[str, Counter]]) -> dict[str, dict[str, int]]:
    out = {}
    for kind in ("graph", "values"):
        total = Counter()
        for step in steps:
            total |= step[kind]  # the larger count of each op
        out[kind] = dict(sorted(total.items()))
    return out


def step_calls(name: str) -> list[Counter]:
    """Python calls by (module, code object), one entry per step: a batch
    draw and a meta step, as ``engine.train`` takes them."""
    state, sources = initial_state(name)
    steps = []

    def profile(frame, event, arg):
        if event == "call":
            steps[-1][frame.f_globals.get("__name__"), frame.f_code] += 1

    # a collection would call gc.callbacks, which other tests may have set
    before, collecting = sys.getprofile(), gc.isenabled()
    gc.disable()
    try:
        for _ in range(STEPS):
            steps.append(Counter())
            sys.setprofile(profile)
            batches = engine.draw_batches(sources, state.hp.batch_size, state.data_rng)
            state, _ = engine.meta_step(state, batches)
            sys.setprofile(before)
    finally:
        sys.setprofile(before)
        if collecting:
            gc.enable()
    return steps


def max_calls(steps: list[Counter]) -> dict[str, int]:
    """The most calls of any step, in total and by code object of
    CALL_MODULES. A code object is labelled ``module.qualname``
    (``autodiff.grad``), not by its first line, so that moving a function
    keeps its label; the lambdas of a module share a label, and so do its
    dataclass-generated ``__init__``s."""
    out = Counter()
    for step in steps:
        labelled = Counter(total=sum(step.values()))
        for (module, code), n in step.items():
            if module in CALL_MODULES:
                labelled[f"{module.removeprefix('masf.')}.{code.co_qualname}"] += n
        out |= labelled
    return dict(sorted(out.items()))


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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_step_calls_stay_within_budget(name):
    got, bounds = max_calls(step_calls(name)), CALLS[name]
    over = {k: (n, bounds.get(k, 0)) for k, n in got.items() if n > bounds.get(k, 0)}
    assert not over, f"{name} calls: (count, bound) by code object {over}"


def test_counts_do_not_grow_with_batch_size(monkeypatch):
    """wide_triplet doubles full_triplet's batch, and its step makes the same
    graph nodes, value-mode ops and Python calls."""
    def measured(name):
        counts = max_counts(step_counts(name, monkeypatch))
        monkeypatch.undo()  # the calls are counted without the node counters
        return counts, max_calls(step_calls(name))

    assert measured("wide_triplet") == measured("full_triplet")


def step_shapes(monkeypatch) -> dict[tuple, set]:
    """The distinct per-op count tables of the steps of each (row, local
    loss, inner clip fired, outer clip fired): SHAPE_STEPS steps of each
    SHAPE_CELLS cell, for every row with the triplet loss and every local
    row with the contrastive loss. A clip fires when its norm exceeds the
    threshold, as ``ad.clip_by_norm`` decides."""
    cfg = harness.canonical_experiment_config()
    datasets = bench.canonical_datasets()
    count = install_counters(monkeypatch)
    shapes = {}
    for flags in harness.ALL_ROWS:
        kinds = (engine.TRIPLET, engine.CONTRASTIVE) if flags[2] else (engine.TRIPLET,)
        for kind in kinds:
            config = replace(cfg, hp=replace(cfg.hp, local_loss_kind=kind))
            for target, seed in SHAPE_CELLS:
                state, train, _ = harness.prepare_run(
                    config, flags, datasets, target, harness._run_seed(seed, target))
                clip = state.hp.clip_threshold
                for r, counts in counted_steps(state, train, SHAPE_STEPS, count):
                    key = (flags, kind, r.inner_grad_norm > clip,
                           r.outer_grad_norm > clip)
                    shapes.setdefault(key, set()).add(tuple(
                        (k, tuple(sorted(c.items()))) for k, c in counts.items()))
    return shapes


def test_one_step_shape_per_row_loss_and_clips(monkeypatch):
    """Every cell of an ablation row builds the same graph and value-mode
    ops in a step whose clips fire alike, whatever its data: a batch of
    cells can then share one step's graph."""
    shapes = step_shapes(monkeypatch)
    unclipped = {key[:2] for key in shapes if not any(key[2:])}
    assert len(unclipped) == 12, "a (row, loss) pair never trained unclipped"
    many = {key: len(tables) for key, tables in shapes.items() if len(tables) > 1}
    assert not many, f"count tables per (row, loss, inner clip, outer clip): {many}"


@pytest.mark.parametrize("n", sorted(TRIPLET_PEAK))
def test_triplet_loss_peak_memory(n):
    peak = triplet_peak(n)
    assert peak <= TRIPLET_PEAK[n], f"N={n}: peak {peak:.3f} N^2 * 8 bytes"


def print_distinct(tables: dict[str, dict]) -> None:
    """Each distinct table once, after the configs that measure it."""
    names = {}
    for name, table in tables.items():
        names.setdefault(repr(table), []).append(name)
    for table, same in names.items():
        print(f"{' = '.join(map(repr, same))}: {table},")


if __name__ == "__main__":
    counts = {}
    with pytest.MonkeyPatch.context() as mp:
        for case in sorted(CONFIGS):
            counts[case] = max_counts(step_counts(case, mp))
            mp.undo()
    print_distinct(counts)
    print_distinct({case: max_calls(step_calls(case)) for case in sorted(CONFIGS)})
    print({n: round(triplet_peak(n), 4) for n in sorted(TRIPLET_PEAK)})
