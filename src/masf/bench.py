"""Synthetic multi-domain classification benchmark with controllable shift.

Each domain draws samples from shared class-conditional Gaussian latents
(the domain-invariant semantic structure) and then applies a domain-specific
transform: a rotation of a 2-D latent subspace, per-feature affine
scale/shift and additive noise. The class signal is split between the
rotated subspace (a cue that drifts across domains) and an untouched
subspace (a weaker but invariant cue), so a model that leans on the
drifting cue generalizes worse to held-out rotations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import keys

# latent layout constants: class means sit on circles in dims (0,1) (rotated
# per domain) and dims (2,3) (invariant); remaining dims are distractors
VARIANT_DIMS = (0, 1)
INVARIANT_DIMS = (2, 3)


@dataclass(frozen=True)
class DomainSpec:
    """Generator parameters for one domain; CANONICAL holds the benchmark's."""

    domain_id: int
    n_samples: int
    num_classes: int
    input_dim: int
    rotation_deg: float
    scale: float
    shift: float
    noise_sigma: float
    variant_radius: float    # class-circle radius in the rotated dims
    invariant_radius: float  # class-circle radius in the stable dims
    latent_sigma: float      # within-class spread of the latents

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be at least 1, got {self.num_classes}")
        dims = max(VARIANT_DIMS + INVARIANT_DIMS) + 1
        if self.input_dim < dims:
            raise ValueError(f"input_dim must be at least {dims}: the class "
                             f"latents use dims 0-{dims - 1}, got {self.input_dim}")
        if self.scale == 0:
            raise ValueError(f"scales entry of domain {self.domain_id} must be non-"
                             f"zero to keep the transform invertible, got {self.scale}")
        if self.n_samples < 2 * self.num_classes:
            raise ValueError(f"n_samples must be at least 2 * num_classes = "
                             f"{2 * self.num_classes}, got {self.n_samples}")


def as_labels(labels, num_classes: int | None = None) -> np.ndarray:
    """``labels`` as an int64 array; a ValueError if one is not a whole
    number or, given ``num_classes``, not in [0, num_classes)."""
    values = np.asarray(labels)
    if values.dtype.kind not in "biu":
        whole = np.isfinite(values) & (np.floor(values) == values)
        if not whole.all():
            raise ValueError(f"label {values[~whole][0]} is not a whole number")
    values = values.astype(np.int64, copy=False)
    if num_classes is not None:
        bad = (values < 0) | (values >= num_classes)
        if bad.any():
            raise ValueError(f"label out of range [0, {num_classes}): "
                             f"{values[bad][0]}")
    return values


@dataclass
class DomainDataset:
    features: np.ndarray  # [N, input_dim]
    labels: np.ndarray    # [N] ints in [0, C)
    domain_id: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = as_labels(self.labels)
        if self.labels.size and self.labels.min() < 0:
            raise ValueError(f"domain {self.domain_id}: label "
                             f"{self.labels.min()} is negative")

    def __len__(self):
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @cached_property
    def strata(self) -> tuple[np.ndarray, np.ndarray]:
        """Each class's row count, and the rows stably sorted by class. Kept
        from the first draw or split: the arrays must not change after that."""
        return np.bincount(self.labels), np.argsort(self.labels, kind="stable")

    def rows(self, idx: np.ndarray) -> "DomainDataset":
        """The rows ``idx`` of this domain, in that order. They passed
        ``__post_init__``, which does not run again; ``strata`` is not kept."""
        part = object.__new__(DomainDataset)
        vars(part).update(features=self.features[idx], labels=self.labels[idx],
                          domain_id=self.domain_id)
        return part


def _class_latent_means(spec: DomainSpec) -> np.ndarray:
    """Shared class means: circles in the variant and invariant subspaces."""
    c = spec.num_classes
    angles = 2.0 * np.pi * np.arange(c) / c
    means = np.zeros((c, spec.input_dim))
    means[:, VARIANT_DIMS[0]] = spec.variant_radius * np.cos(angles)
    means[:, VARIANT_DIMS[1]] = spec.variant_radius * np.sin(angles)
    # offset the invariant circle so the two cues are not redundant copies
    means[:, INVARIANT_DIMS[0]] = spec.invariant_radius * np.cos(angles + 0.7)
    means[:, INVARIANT_DIMS[1]] = spec.invariant_radius * np.sin(angles + 0.7)
    return means


def make_domain(spec: DomainSpec, base_seed: int) -> DomainDataset:
    """Deterministic dataset for one domain given (spec, seed); the classes
    share the samples evenly, the lower classes taking the remainder."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=base_seed, spawn_key=(spec.domain_id,)))
    labels = np.sort(np.arange(spec.n_samples) % spec.num_classes)
    x = _class_latent_means(spec)[labels] + rng.normal(
        0.0, spec.latent_sigma, size=(spec.n_samples, spec.input_dim))

    angle = np.deg2rad(spec.rotation_deg)
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    x[:, list(VARIANT_DIMS)] = x[:, list(VARIANT_DIMS)] @ rot.T
    x = x * spec.scale + spec.shift
    x = x + rng.normal(0.0, spec.noise_sigma, size=x.shape)

    order = rng.permutation(spec.n_samples)
    return DomainDataset(x[order], labels[order], spec.domain_id)


def sample_batch(dataset: DomainDataset, batch_size: int, stratified: bool,
                 rng: np.random.Generator) -> DomainDataset:
    """Stratified mini-batch without replacement: every class gets at least
    one row (required by class-mean estimation); ``stratified`` must be True."""
    n = len(dataset)
    if batch_size > n:
        raise ValueError("batch_size exceeds dataset size")
    if not stratified:
        raise ValueError("stratified must be True: every batch is stratified")
    counts, order = dataset.strata
    c = len(counts)
    if batch_size < c:
        raise ValueError("stratified batch needs batch_size >= num_classes")
    if not counts.all():
        raise ValueError(f"domain {dataset.domain_id} has no row of class "
                         f"{np.flatnonzero(counts == 0)[0]}")
    # one uniform row per class; the array-bounded draw makes the same draws
    # as rng.choice(members) called once per class in class order
    chosen = order[np.cumsum(counts) - counts + rng.integers(0, counts)]
    rest = np.ones(n, dtype=bool)  # rows not chosen yet
    rest[chosen] = False
    extra = rng.choice(np.flatnonzero(rest), size=batch_size - c, replace=False)
    idx = rng.permutation(np.concatenate([chosen, extra]))
    return dataset.rows(idx)


def train_test_split(dataset: DomainDataset, train_fraction: float,
                     rng: np.random.Generator) -> tuple[DomainDataset, DomainDataset]:
    """Disjoint stratified split; union reproduces the original multiset."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    counts, order = dataset.strata
    # a class without rows permutes an empty slice, which draws nothing
    train = np.zeros(len(dataset), dtype=bool)
    for members in np.split(order, np.cumsum(counts)[:-1]):
        cut = int(round(train_fraction * len(members)))
        train[rng.permutation(members)[:cut]] = True
    return dataset.rows(np.flatnonzero(train)), dataset.rows(np.flatnonzero(~train))


# ---------------------------------------------------------------------------
# CSV interchange


def export_csv(datasets: list[DomainDataset], path: str | Path) -> None:
    datasets = list(datasets)
    dim = datasets[0].features.shape[1]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["domain", "label"] + [f"f{i}" for i in range(dim)])
        for ds in datasets:
            for x, y in zip(ds.features, ds.labels):
                writer.writerow([ds.domain_id, int(y)]
                                + [format(v, ".17g") for v in x])


def csv_cell(path, row: int, column: str, text: str | None, kind=float):
    """``text``, the cell in 1-based ``row`` (the header is row 1) and
    ``column`` of CSV file ``path``, as a ``kind``. A missing cell (None),
    one that does not parse, or a float that is not finite is a ValueError
    naming all three."""
    got = "no cell" if text is None else repr(text)
    expected = f"{path}, row {row}, column {column!r}: expected"
    try:
        value = kind(text)
    except (TypeError, ValueError):
        raise ValueError(f"{expected} {kind.__name__}, got {got}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{expected} a finite float, got {got}")
    return value


def import_csv(path: str | Path) -> list[DomainDataset]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])  # [] for an empty file
        if header[:2] != ["domain", "label"]:
            raise ValueError(f"{path}: no 'domain,label,...' CSV header")
        kinds = [int, int] + [float] * (len(header) - 2)
        rows = []
        for row in filter(None, reader):  # blank lines hold no sample
            if len(row) > len(header):
                raise ValueError(f"{path}, row {reader.line_num}: more cells than columns")
            row += [None] * (len(header) - len(row))
            dom, label, *x = (csv_cell(path, reader.line_num, *cell)
                              for cell in zip(header, row, kinds))
            rows.append((dom, label, np.array(x)))
    if not rows:
        raise ValueError(f"{path}: CSV file has no samples")
    out = []
    for dom in sorted({r[0] for r in rows}):
        sel = [r for r in rows if r[0] == dom]
        try:
            out.append(DomainDataset(np.stack([r[2] for r in sel]),
                                     np.array([r[1] for r in sel]), dom))
        except ValueError as exc:  # a negative label
            raise ValueError(f"{path}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# canonical frozen benchmark (calibrated once; the only copy of its values)

CANONICAL = {
    "num_domains": 4,
    "num_classes": 5,
    "input_dim": 16,
    "n_samples": 500,
    "rotations_deg": [0.0, 30.0, 60.0, 90.0],
    "scales": [1.0, 1.1, 0.9, 1.05],
    "shifts": [0.0, 0.15, -0.15, 0.1],
    "noise_sigma": 0.25,
    "variant_radius": 2.0,
    "invariant_radius": 1.2,
    "latent_sigma": 0.55,
    "base_seed": 2024,
}


# the per-domain lists of CANONICAL, and the DomainSpec field each one sets
_PER_DOMAIN = {"rotations_deg": "rotation_deg", "scales": "scale",
               "shifts": "shift"}


def canonical_domain_specs(overrides: dict | None = None) -> list[DomainSpec]:
    """The canonical domain specs with ``overrides`` (keys of CANONICAL)
    applied; a bad key or value is a ValueError that names the key."""
    overrides = overrides or {}
    unknown = set(overrides) - set(CANONICAL)
    if unknown:
        raise ValueError(f"unknown benchmark keys: {sorted(unknown, key=repr)}")
    cfg = {**CANONICAL, **{k: keys.read(k, v) for k, v in overrides.items()}}
    n, _ = cfg.pop("num_domains"), cfg.pop("base_seed")
    for key in _PER_DOMAIN:
        if len(cfg[key]) < n:
            raise ValueError(f"benchmark key {key!r} has {len(cfg[key])} "
                             f"entries for num_domains={n}")
    lists = {attr: cfg.pop(key) for key, attr in _PER_DOMAIN.items()}
    return [DomainSpec(domain_id=k, **cfg,
                       **{attr: values[k] for attr, values in lists.items()})
            for k in range(n)]


def canonical_datasets(overrides: dict | None = None) -> dict[int, DomainDataset]:
    """The canonical domains, with ``overrides`` (keys of CANONICAL) applied;
    a domain whose features overflow is a ValueError naming the domain and
    every key that scales its features."""
    seed = (overrides or {}).get("base_seed", CANONICAL["base_seed"])
    datasets = {}
    for s in canonical_domain_specs(overrides):
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            ds = datasets[s.domain_id] = make_domain(s, seed)
        if not np.isfinite(ds.features).all():
            raise ValueError(
                f"benchmark domain {s.domain_id} has non-finite features; its "
                f"rotations_deg, scales and shifts entries are {s.rotation_deg}, "
                f"{s.scale} and {s.shift}, and noise_sigma, latent_sigma, "
                f"variant_radius and invariant_radius are {s.noise_sigma}, "
                f"{s.latent_sigma}, {s.variant_radius} and {s.invariant_radius}")
    return datasets

