"""Synthetic multi-domain classification benchmark with controllable shift.

Each domain draws samples from shared class-conditional Gaussian latents
(the domain-invariant semantic structure) and then applies a domain-specific
transform: a rotation of a 2-D latent subspace, per-feature affine
scale/shift, additive noise, and an optional feature permutation. The class
signal is split between the rotated subspace (a cue that drifts across
domains) and an untouched subspace (a weaker but invariant cue), so a model
that leans on the drifting cue generalizes worse to held-out rotations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

# latent layout constants: class means sit on circles in dims (0,1) (rotated
# per domain) and dims (2,3) (invariant); remaining dims are distractors
VARIANT_DIMS = (0, 1)
INVARIANT_DIMS = (2, 3)


@dataclass(frozen=True)
class DomainSpec:
    """Generator parameters for one domain."""

    domain_id: int
    n_samples: int
    num_classes: int
    input_dim: int = 16
    rotation_deg: float = 0.0
    scale: float = 1.0
    shift: float = 0.0
    noise_sigma: float = 0.25
    permute_features: bool = False
    variant_radius: float = 2.0     # class-circle radius in the rotated dims
    invariant_radius: float = 1.2   # class-circle radius in the stable dims
    latent_sigma: float = 0.55      # within-class spread of the latents
    class_priors: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.scale == 0:
            raise ValueError("scale must keep the transform invertible")
        if self.n_samples < 2 * self.num_classes:
            raise ValueError("need at least 2 samples per class")
        if self.class_priors is not None:
            if len(self.class_priors) != self.num_classes:
                raise ValueError("priors length must equal num_classes")
            if abs(sum(self.class_priors) - 1.0) > 1e-9:
                raise ValueError("priors must sum to 1")

    @property
    def priors(self) -> np.ndarray:
        if self.class_priors is None:
            return np.full(self.num_classes, 1.0 / self.num_classes)
        return np.asarray(self.class_priors)


@dataclass
class DomainDataset:
    features: np.ndarray  # [N, input_dim]
    labels: np.ndarray    # [N] ints in [0, C)
    domain_id: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)

    def __len__(self):
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass
class Batch:
    features: np.ndarray
    labels: np.ndarray
    domain_id: int


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


def _label_counts(priors: np.ndarray, n: int) -> np.ndarray:
    """Deterministic proportional allocation; every class gets >= 1."""
    counts = np.floor(priors * n).astype(np.int64)
    counts = np.maximum(counts, 1)
    while counts.sum() > n:
        counts[np.argmax(counts)] -= 1
    while counts.sum() < n:
        counts[np.argmin(counts - priors * n)] += 1
    return counts


def make_domain(spec: DomainSpec, base_seed: int) -> DomainDataset:
    """Deterministic dataset for one domain given (spec, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=base_seed, spawn_key=(spec.domain_id,)))
    counts = _label_counts(spec.priors, spec.n_samples)
    labels = np.repeat(np.arange(spec.num_classes), counts)
    means = _class_latent_means(spec)
    latents = means[labels] + rng.normal(0.0, spec.latent_sigma,
                                         size=(spec.n_samples, spec.input_dim))

    x = latents.copy()
    angle = np.deg2rad(spec.rotation_deg)
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    x[:, list(VARIANT_DIMS)] = x[:, list(VARIANT_DIMS)] @ rot.T
    x = x * spec.scale + spec.shift
    x = x + rng.normal(0.0, spec.noise_sigma, size=x.shape)
    if spec.permute_features:
        perm_rng = np.random.default_rng(base_seed + 7919)
        x = x[:, perm_rng.permutation(spec.input_dim)]

    order = rng.permutation(spec.n_samples)
    return DomainDataset(x[order], labels[order], spec.domain_id)


def leave_one_out_splits(domain_ids) -> list[tuple[list, object]]:
    """Every domain once as the unseen target, the rest as sources."""
    ids = list(domain_ids)
    if len(ids) < 2:
        raise ValueError("need at least 2 domains for leave-one-out")
    return [([d for d in ids if d != target], target) for target in ids]


def sample_batch(dataset: DomainDataset, batch_size: int, stratified: bool,
                 rng: np.random.Generator) -> Batch:
    """Mini-batch without replacement; stratified mode guarantees every
    class at least one sample (required by class-mean estimation)."""
    n = len(dataset)
    if batch_size > n:
        raise ValueError("batch_size exceeds dataset size")
    if not stratified:
        idx = rng.choice(n, size=batch_size, replace=False)
        return Batch(dataset.features[idx], dataset.labels[idx],
                     dataset.domain_id)
    c = dataset.num_classes
    if batch_size < c:
        raise ValueError("stratified batch needs batch_size >= num_classes")
    chosen = []
    for cls in range(c):
        members = np.flatnonzero(dataset.labels == cls)
        chosen.append(rng.choice(members))
    chosen = np.asarray(chosen)
    remaining = np.setdiff1d(np.arange(n), chosen)
    extra = rng.choice(remaining, size=batch_size - c, replace=False)
    idx = rng.permutation(np.concatenate([chosen, extra]))
    return Batch(dataset.features[idx], dataset.labels[idx], dataset.domain_id)


def train_test_split(dataset: DomainDataset, train_fraction: float,
                     rng: np.random.Generator) -> tuple[DomainDataset, DomainDataset]:
    """Disjoint stratified split; union reproduces the original multiset."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    train_idx, test_idx = [], []
    for cls in np.unique(dataset.labels):
        members = rng.permutation(np.flatnonzero(dataset.labels == cls))
        cut = int(round(train_fraction * len(members)))
        train_idx.extend(members[:cut])
        test_idx.extend(members[cut:])
    train_idx = np.sort(np.asarray(train_idx, dtype=np.int64))
    test_idx = np.sort(np.asarray(test_idx, dtype=np.int64))
    return (DomainDataset(dataset.features[train_idx], dataset.labels[train_idx],
                          dataset.domain_id),
            DomainDataset(dataset.features[test_idx], dataset.labels[test_idx],
                          dataset.domain_id))


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


def import_csv(path: str | Path) -> list[DomainDataset]:
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header[:2] != ["domain", "label"]:
            raise ValueError(f"{path}: unexpected CSV header")
        for row in reader:
            rows.append((int(row[0]), int(row[1]),
                         np.array([float(v) for v in row[2:]])))
    out = []
    for dom in sorted({r[0] for r in rows}):
        sel = [r for r in rows if r[0] == dom]
        out.append(DomainDataset(np.stack([r[2] for r in sel]),
                                 np.array([r[1] for r in sel]), dom))
    return out


# ---------------------------------------------------------------------------
# canonical frozen benchmark (calibrated once; see bench/specs/canonical.yaml)

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


def canonical_domain_specs(overrides: dict | None = None) -> list[DomainSpec]:
    cfg = dict(CANONICAL)
    if overrides:
        cfg.update(overrides)
    specs = []
    for k in range(cfg["num_domains"]):
        specs.append(DomainSpec(
            domain_id=k,
            n_samples=cfg["n_samples"],
            num_classes=cfg["num_classes"],
            input_dim=cfg["input_dim"],
            rotation_deg=cfg["rotations_deg"][k],
            scale=cfg["scales"][k],
            shift=cfg["shifts"][k],
            noise_sigma=cfg["noise_sigma"],
            variant_radius=cfg["variant_radius"],
            invariant_radius=cfg["invariant_radius"],
            latent_sigma=cfg["latent_sigma"],
        ))
    return specs


def canonical_datasets(overrides: dict | None = None) -> dict[int, DomainDataset]:
    """The canonical domains, with ``overrides`` (keys of CANONICAL) applied."""
    seed = (overrides or {}).get("base_seed", CANONICAL["base_seed"])
    return {s.domain_id: make_domain(s, seed)
            for s in canonical_domain_specs(overrides)}


def load_spec_file(path: str | Path) -> tuple[list[DomainSpec], int]:
    """Read a benchmark spec (YAML mapping like CANONICAL) from disk."""
    with open(path) as f:
        cfg = yaml.safe_load(f)
    base = dict(CANONICAL)
    base.update(cfg or {})
    return canonical_domain_specs(base), base["base_seed"]
