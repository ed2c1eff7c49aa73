"""Golden check of how a run is set up, before any training.

For targets 0-3 and seeds 0-2 of the canonical study, ``data/golden_setup.json``
holds the run seed that ``harness._run_seed`` derives, and the row indices of
each source's train and holdout split from ``harness.prepare_run``. The
indices are recovered by matching each split row to its row in the source
domain. They are integer outputs of the RNG streams, so unlike the trained
values in ``tests/test_golden.py`` they compare exactly on every host, and a
change to a stream's seed or key fails here.

Regenerate the file (only when a change of the run set-up is intended) with
``PYTHONPATH=src python tests/test_golden_setup.py``.
"""

import json
from pathlib import Path

import pytest

from masf import bench, harness

GOLDEN = Path(__file__).parent / "data" / "golden_setup.json"
TARGETS = range(4)
SEEDS = range(3)
FLAGS = (True, True, True)


def row_indices(domain, part) -> list[int]:
    """The position of each row of ``part`` in ``domain``."""
    index = {row.tobytes(): i for i, row in enumerate(domain.features)}
    assert len(index) == len(domain), "source rows are not distinct"
    return [index[row.tobytes()] for row in part.features]


def set_up(target: int, seed: int) -> dict:
    """The run seed and each source's split indices of one cell."""
    cfg = harness.canonical_experiment_config()
    datasets = bench.canonical_datasets()
    run_seed = harness._run_seed(seed, target)
    _, train, holdout = harness.prepare_run(cfg, FLAGS, datasets, target, run_seed)
    return {"target": target, "seed": seed, "run_seed": run_seed,
            "train": {str(k): row_indices(datasets[k], d) for k, d in train.items()},
            "holdout": {str(k): row_indices(datasets[k], d)
                        for k, d in holdout.items()}}


def golden_cells() -> dict[tuple[int, int], dict]:
    cells = json.loads(GOLDEN.read_text())["cells"]
    return {(c["target"], c["seed"]): c for c in cells}


def test_file_covers_every_cell():
    assert sorted(golden_cells()) == [(t, s) for t in TARGETS for s in SEEDS]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("seed", SEEDS)
def test_matches_golden(target, seed):
    expected = golden_cells()[target, seed]
    got = set_up(target, seed)
    assert got["run_seed"] == expected["run_seed"]
    for part in ("train", "holdout"):
        assert sorted(got[part]) == sorted(expected[part])
        for k, rows in got[part].items():
            assert rows == expected[part][k], f"{part} rows of source {k}"


if __name__ == "__main__":
    cells = [set_up(t, s) for t in TARGETS for s in SEEDS]
    lines = ",\n".join("  " + json.dumps(c) for c in cells)
    GOLDEN.write_text('{"cells": [\n' + lines + "\n]}\n")
    print(f"wrote {GOLDEN}: {len(cells)} cells")
