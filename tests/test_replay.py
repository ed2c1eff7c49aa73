"""Replayed steps against the graph engine, byte for byte.

``engine.meta_step`` records the first step of a state in which neither
gradient clips, and replays that plan on later steps. The graph engine is
the definition: each test here runs the same training twice, once as the
library does and once with ``engine._replay`` patched to replay nothing,
and compares sha256 digests of psi, theta, phi and every ``MetricsRecord``.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from masf import autodiff as ad
from masf import bench, engine, harness

TARGET = 3
STEPS = 30


def graph_engine(monkeypatch) -> None:
    monkeypatch.setattr(engine, "_replay", lambda plan, inputs, rng: None)


def count_replays(monkeypatch) -> list:
    """From now on, whether each attempted replay went through (True) or
    fell back to the graph engine (False)."""
    real, outcomes = engine._replay, []

    def replay(plan, inputs, rng):
        found = real(plan, inputs, rng)
        outcomes.append(found is not None)
        return found
    monkeypatch.setattr(engine, "_replay", replay)
    return outcomes


def digest(state: engine.EpisodeState, records) -> str:
    h = hashlib.sha256()
    for pset in (state.psi, state.theta, state.phi):
        for t in pset.tensors:
            h.update(t.value.tobytes())
    for r in records:
        h.update(repr(r.row()).encode())
    return h.hexdigest()


def cell(flags, kind, seed, **hp):
    cfg = harness.canonical_experiment_config()
    config = replace(cfg, hp=replace(cfg.hp, local_loss_kind=kind, **hp))
    state, train, _ = harness.prepare_run(config, flags, bench.canonical_datasets(),
                                          TARGET, harness._run_seed(seed, TARGET))
    return state, train


def trained(flags, kind, seed, steps=STEPS, **hp):
    state, train = cell(flags, kind, seed, **hp)
    records = []
    state = engine.train(state, train, steps, records.append)
    return state, records


ROW_LOSSES = [(flags, kind) for flags in harness.ALL_ROWS
              for kind in ((engine.TRIPLET, engine.CONTRASTIVE) if flags[2]
                           else (engine.TRIPLET,))]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("flags, kind", ROW_LOSSES,
                         ids=lambda x: x if isinstance(x, str) else
                         "e{:d}g{:d}l{:d}".format(*x))
def test_replay_matches_the_graph_engine(flags, kind, seed, monkeypatch):
    outcomes = count_replays(monkeypatch)
    state, records = trained(flags, kind, seed)
    assert state.plan is not None, "the row recorded no plan"
    assert sum(outcomes) >= STEPS - 6, outcomes  # clips fire in the first steps
    replayed = digest(state, records)
    graph_engine(monkeypatch)
    state, records = trained(flags, kind, seed)
    assert replayed == digest(state, records)


def test_replay_crosses_a_decay_boundary(monkeypatch):
    outcomes = count_replays(monkeypatch)
    flags, kwargs = harness.ALL_ROWS[7], dict(decay_every=4, decay_rate=0.5)
    state, records = trained(flags, engine.CONTRASTIVE, 0, 12, **kwargs)
    assert all(outcomes) and len(outcomes) == 11
    assert len({r.outer_lr for r in records}) == 3
    replayed = digest(state, records)
    graph_engine(monkeypatch)
    assert replayed == digest(*trained(flags, engine.CONTRASTIVE, 0, 12, **kwargs))


def scaled_steps(state, train, steps, scaled_at, factor):
    """``steps`` steps, with every feature scaled by ``factor`` at step
    ``scaled_at``; the state and the records."""
    records = []
    for t in range(steps):
        batches = engine.draw_batches(train, state.hp.batch_size, state.data_rng)
        if t == scaled_at:
            batches = {k: (x * factor, y) for k, (x, y) in batches.items()}
        state, record = engine.meta_step(state, batches)
        records.append(record)
    return state, records


@pytest.mark.parametrize("flags, kind", [(harness.ALL_ROWS[7], engine.TRIPLET),
                                         (harness.ALL_ROWS[7], engine.CONTRASTIVE),
                                         (harness.ALL_ROWS[1], engine.TRIPLET)])
def test_a_failed_guard_reruns_the_step_on_the_graph_engine(flags, kind, monkeypatch):
    """Scaled features make both clips fire after the plan exists: the
    replay stops at its clip guard, puts algo_rng back, and the graph engine
    takes the step, and every later step, as it would have."""
    outcomes = count_replays(monkeypatch)
    state, records = scaled_steps(*cell(flags, kind, 0), 8, 4, 30.0)
    clip = state.hp.clip_threshold
    assert records[4].inner_grad_norm > clip and records[4].outer_grad_norm > clip
    # step 0 recorded the plan; outcomes[k] is step k + 1's
    assert outcomes[2:4] == [True, False] and all(outcomes[4:])
    replayed = digest(state, records)
    graph_engine(monkeypatch)
    assert replayed == digest(*scaled_steps(*cell(flags, kind, 0), 8, 4, 30.0))


def narrowed(steps):
    """Three steps at batch 25, then ``steps`` at batch 20."""
    state, train = cell(harness.ALL_ROWS[7], engine.TRIPLET, 0)
    state = engine.train(state, train, 3)
    state = replace(state, hp=replace(state.hp, batch_size=20))
    records = []
    return engine.train(state, train, steps, records.append), records


def test_a_new_batch_shape_runs_on_the_graph_engine(monkeypatch):
    """A plan replays only the shapes it was recorded for."""
    outcomes = count_replays(monkeypatch)
    replayed = digest(*narrowed(3))
    assert outcomes == [True, True]  # the two steps at batch 25
    graph_engine(monkeypatch)
    assert replayed == digest(*narrowed(3))


def poisoned(state):
    """``state`` with a NaN weight, which makes the task loss NaN."""
    w = np.array(state.theta["w0"].value)
    w[0, 0] = np.nan
    return replace(state, theta=state.theta.replace([ad.leaf(w), state.theta["b0"]]))


def failed_run(tmp_path, monkeypatch, name):
    """A run that gets a NaN weight at iteration 3: its error message and
    the bytes of its partial metrics.csv."""
    real_step = engine.meta_step

    def step(state, batches):
        return real_step(poisoned(state) if state.t == 3 else state, batches)

    monkeypatch.setattr(engine, "meta_step", step)
    path = tmp_path / name / "metrics.csv"
    cfg = harness.canonical_experiment_config()
    with pytest.raises(engine.NonFiniteLossError) as failure:
        harness.run_single(replace(cfg, iterations=8), harness.ALL_ROWS[7],
                           TARGET, 0, bench.canonical_datasets(), path)
    return str(failure.value), path.read_bytes()


def test_a_non_finite_loss_fails_as_on_the_graph_engine(tmp_path, monkeypatch):
    outcomes = count_replays(monkeypatch)
    message, metrics = failed_run(tmp_path, monkeypatch, "replayed")
    assert outcomes == [True, True, False]  # steps 1 and 2 replayed, 3 fell back
    assert message == "task loss is non-finite at iteration 3: nan"
    graph_engine(monkeypatch)
    assert failed_run(tmp_path, monkeypatch, "graph") == (message, metrics)


def test_an_array_from_no_recorded_source_records_no_plan(monkeypatch):
    """A recording fails closed: an array that no input, op or host call
    gave, here a log-sum-exp row max taken outside ``ad.host``, leaves the
    state without a plan, and every step runs on the graph engine."""
    def frozen_max(a):
        m = ad.const(a.value.max(axis=-1, keepdims=True))
        return ad.add(ad.log(ad.reduce_sum(ad.exp(ad.sub(a, m)), axis=-1)), m)

    monkeypatch.setattr(ad, "log_sum_exp", frozen_max)
    outcomes = count_replays(monkeypatch)
    state, _ = trained(harness.ALL_ROWS[7], engine.TRIPLET, 0, 4)
    assert state.plan is None and outcomes == []
