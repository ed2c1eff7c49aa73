"""Golden check of trained parameters and per-step metrics.

A few meta steps of the canonical study are trained for three rows (full
method with each local-loss kind, and the non-episodic global + local row)
and compared with ``data/golden_meta_steps.npz``. The tolerance is explicit
so that a change which only reorders floating-point sums (a different graph
shape, say) can still pass. The stored values are not bit-exact on every
host: on a 2-vCPU x86-64 host with numpy 2.4.6 freshly trained values differ
from them by up to 4.4e-16 at any commit. So this file cannot show that a
refactor is exact; compare the trained values of the change with those of
its parent, on one host, for that.

Regenerate the file (only when a change of the trained values is intended)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from masf import bench, engine, harness

GOLDEN = Path(__file__).parent / "data" / "golden_meta_steps.npz"
RTOL = 1e-12
STEPS = 4
TARGET = 3
SEED = 0
CASES = {
    "full_triplet": dict(local_loss_kind=engine.TRIPLET),
    # a lower threshold makes the inner and outer clipping fire
    "full_contrastive": dict(local_loss_kind=engine.CONTRASTIVE,
                             clip_threshold=1.0),
    "pooled_global_local": dict(local_loss_kind=engine.TRIPLET, episodic=False),
}


def train_case(name: str) -> dict[str, np.ndarray]:
    """Final psi/theta/phi and the MetricsRecord rows of one case."""
    cfg = harness.canonical_experiment_config()
    datasets = bench.canonical_datasets()
    sources = {k: d for k, d in datasets.items() if k != TARGET}
    hp = replace(cfg.hp, **CASES[name])
    records = []
    state = engine.make_state(harness.architecture(cfg, datasets), hp, SEED)
    state = engine.train(state, sources, STEPS, records.append)
    out = {f"{name}/records": np.array([r.row() for r in records], dtype=np.float64)}
    for pset in (state.psi, state.theta, state.phi):
        for key, tensor in pset.entries:
            out[f"{name}/{pset.role}/{key}"] = np.array(tensor.value)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    golden = np.load(GOLDEN)
    got = train_case(name)
    expected = {k: golden[k] for k in golden.files if k.startswith(f"{name}/")}
    assert sorted(got) == sorted(expected)
    for key, value in got.items():
        np.testing.assert_allclose(value, expected[key], rtol=RTOL, atol=0,
                                   err_msg=key)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    arrays = {}
    for case in sorted(CASES):
        arrays.update(train_case(case))
    np.savez_compressed(GOLDEN, **arrays)
    print(f"wrote {GOLDEN} ({len(arrays)} arrays)")
