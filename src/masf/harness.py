"""Experiment harness: accuracy, diagnostics, ablation grid, CSV reports."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import bench, engine, losses, nets
from .bench import DomainDataset
from .engine import Hyperparams
from .nets import ParamSet

# Table-style ablation grid: (episodic, use_global, use_local)
ALL_ROWS = [
    (False, False, False),  # DeepAll baseline
    (True, False, False),
    (False, True, False),
    (False, False, True),
    (False, True, True),
    (True, True, False),
    (True, False, True),
    (True, True, True),    # full method
]

CORE_ROWS = [ALL_ROWS[0], ALL_ROWS[1], ALL_ROWS[2], ALL_ROWS[3], ALL_ROWS[7]]


def evaluate_accuracy(psi: ParamSet, theta: ParamSet,
                      dataset: DomainDataset) -> float:
    """Fraction of argmax-correct predictions (ties -> lowest class index)."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    logits = nets.task_forward(
        theta, nets.feature_forward(psi, ad.const(dataset.features))).value
    return float(np.mean(np.argmax(logits, axis=1) == dataset.labels))


def _embed(psi: ParamSet, phi: ParamSet, features: np.ndarray) -> np.ndarray:
    z = nets.feature_forward(psi, ad.const(features))
    return nets.metric_forward(phi, z).value


def margin_triples(domain_a: DomainDataset, domain_b: DomainDataset,
                   n_pairs: int, rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n_pairs`` (anchor, positive, negative) row indices: anchors from
    domain_a, positives and negatives from domain_b.

    Anchors are uniform over the rows of domain_a whose class has both a
    positive and a negative in domain_b; each positive is uniform over the
    anchor's class in domain_b and each negative over the other classes.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    for d in (domain_a, domain_b):
        if len(np.unique(d.labels)) < 2:
            raise ValueError("margin statistic needs >= 2 classes per domain")
    c = max(domain_a.num_classes, domain_b.num_classes)
    same_count = np.bincount(domain_b.labels, minlength=c)
    diff_count = len(domain_b) - same_count  # > 0: domain_b has 2 classes
    eligible = np.flatnonzero(same_count[domain_a.labels] > 0)
    if eligible.size == 0:
        raise ValueError("no class of domain_a has a positive in domain_b")
    # row k of pools: the rows of class k in index order, then the others
    pools = np.argsort(domain_b.labels != np.arange(c)[:, None], axis=1,
                       kind="stable")
    anchors = eligible[rng.integers(eligible.size, size=n_pairs)]
    cls = domain_a.labels[anchors]
    positives = pools[cls, rng.integers(0, same_count[cls])]
    negatives = pools[cls, same_count[cls] + rng.integers(0, diff_count[cls])]
    return anchors, positives, negatives


def margin_statistic(psi: ParamSet, phi: ParamSet, domain_a: DomainDataset,
                     domain_b: DomainDataset, n_pairs: int,
                     rng: np.random.Generator) -> float:
    """Monte-Carlo mean negative-pair distance minus mean positive-pair
    distance between two domains, in metric-embedding space.

    The pairs are drawn by :func:`margin_triples` in three bulk calls
    (anchors, positives, negatives). They replaced a per-pair loop of scalar
    draws that resampled ineligible anchors: the law is the same, but a seed
    now gives another Monte Carlo stream, and so another estimate.
    """
    anchors, positives, negatives = margin_triples(domain_a, domain_b,
                                                   n_pairs, rng)
    e_a = _embed(psi, phi, domain_a.features)
    e_b = _embed(psi, phi, domain_b.features)
    # a stacked row-by-column matmul takes each row's dot product, the same
    # sum np.linalg.norm takes of a single row
    rows_a = e_a[anchors]
    pos, neg = (np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).ravel())
                for d in (rows_a - e_b[positives], rows_a - e_b[negatives]))
    return float(np.mean(neg) - np.mean(pos))


def target_alignment(psi: ParamSet, theta: ParamSet, source: DomainDataset,
                     target: DomainDataset, tau: float) -> float:
    """Soft-confusion alignment loss between a source and the target domain."""
    num_classes = max(source.num_classes, target.num_classes)
    batches = {"source": (source.features, source.labels),
               "target": (target.features, target.labels)}
    loss = losses.global_alignment_loss(batches, [("source", "target")],
                                        psi, theta, tau, num_classes)
    return float(loss.value)


def silhouette_score(embeddings: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette value: (b - a) / max(a, b) per sample.

    a = mean intra-class distance, b = smallest mean distance to another
    class. Samples in singleton clusters score 0, as does the 0/0 case.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    classes, cls = np.unique(np.asarray(labels), return_inverse=True)
    if classes.size < 2:
        raise ValueError("silhouette score needs at least 2 classes")
    one_hot = (cls[:, None] == np.arange(classes.size)).astype(np.float64)
    sizes = one_hot.sum(axis=0)
    # summed distance from each sample to each class; the sample's own zero
    # distance adds nothing to its class sum
    sums = losses.distance_matrix(embeddings) @ one_hot
    rows = np.arange(cls.size)
    own = sizes[cls]
    a = sums[rows, cls] / np.maximum(own - 1, 1)
    mean_to = sums / sizes
    mean_to[rows, cls] = np.inf
    b = mean_to.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(cls.size)
    scored = (own > 1) & (denom != 0)  # singletons and the 0/0 case score 0
    scores[scored] = (b - a)[scored] / denom[scored]
    return float(scores.mean())


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class ExperimentConfig:
    """One study; the defaults are the canonical study (see Hyperparams)."""

    hp: Hyperparams = field(default_factory=Hyperparams)
    bench_overrides: dict = field(default_factory=dict)
    rows: list = field(default_factory=lambda: list(ALL_ROWS))
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    iterations: int = 200
    train_fraction: float = 0.7
    feature_widths: tuple[int, ...] = (32, 16)
    metric_widths: tuple[int, ...] = (16, 8)
    out_dir: str = "runs"
    targets: list | None = None  # None = every leave-one-out split

    def resolved_out_dir(self) -> Path:
        return Path(os.environ.get("MASF_OUT_DIR") or self.out_dir)


def canonical_experiment_config(**overrides) -> ExperimentConfig:
    """The canonical study, ExperimentConfig(), with fields overridden."""
    unknown = set(overrides) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"unknown config field {sorted(unknown)[0]!r}")
    return replace(ExperimentConfig(), **overrides)


@dataclass
class Report:
    rows: list  # (target, episodic, use_global, use_local, seed, accuracy)

    def summary(self) -> list[tuple]:
        """(flags, mean, std, failed) per ablation row; mean and std are over
        the finished runs (nan for none, std nan for fewer than 2)."""
        by_flags: dict[tuple, list[float]] = {}
        for target, e, g, l, seed, acc in self.rows:
            by_flags.setdefault((e, g, l), []).append(acc)
        items = []
        for flags, accs in sorted(by_flags.items()):
            accs = np.asarray(accs)
            done = accs[~np.isnan(accs)]
            mean = float(done.mean()) if done.size else float("nan")
            std = float(done.std(ddof=1)) if done.size >= 2 else float("nan")
            items.append((flags, mean, std, accs.size - done.size))
        return items


def _run_seed(seed: int, target) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(int(target),))
    return int(ss.generate_state(1)[0])


def run_single(config: ExperimentConfig, flags: tuple, target, seed: int,
               datasets: dict[int, DomainDataset],
               metrics_path: Path | None = None,
               return_state: bool = False):
    """Train one (row, split, seed) cell and return target accuracy.

    Data preparation depends only on (seed, target), never on the ablation
    flags, so all rows of one cell see identical data order.
    """
    episodic, use_global, use_local = flags
    arch = nets.Architecture(
        input_dim=datasets[target].features.shape[1],
        num_classes=max(d.num_classes for d in datasets.values()),
        feature_widths=tuple(config.feature_widths),
        metric_widths=tuple(config.metric_widths))
    sources = sorted(k for k in datasets if k != target)
    hp = replace(config.hp, episodic=episodic, use_global=use_global,
                 use_local=use_local,
                 n_meta_train=len(sources) - config.hp.n_meta_test)

    run_seed = _run_seed(seed, target)
    split_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=run_seed, spawn_key=(1,)))
    train_parts, holdout_parts = {}, {}
    for k in sources:
        train_parts[k], holdout_parts[k] = bench.train_test_split(
            datasets[k], config.train_fraction, split_rng)

    state = engine.make_state(arch, hp, run_seed)
    records = []
    sink = records.append if metrics_path is not None else None
    try:
        state = engine.train(state, train_parts, config.iterations, sink)
    finally:  # a failed run keeps the records of its finished steps
        if metrics_path is not None:
            write_metrics_csv(records, metrics_path)
    acc = evaluate_accuracy(state.psi, state.theta, datasets[target])
    if return_state:
        return acc, state, train_parts, holdout_parts
    return acc


def _write_csv(path: Path, rows) -> None:
    """Write ``rows``, the header first, as the CSV file ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def write_metrics_csv(records, path: Path) -> None:
    _write_csv(path, [engine.MetricsRecord.FIELDS] + [
        [r.iteration] + [format(v, ".10g") for v in r.row()[1:]] for r in records])


def write_report_csv(report: Report, path: Path) -> None:
    _write_csv(path, [["target", "episodic", "global", "local", "seed", "accuracy"]] + [
        [target, int(e), int(g), int(l), seed, format(acc, ".6f")]
        for target, e, g, l, seed, acc in report.rows])


def run_experiment(config: ExperimentConfig,
                   datasets: dict[int, DomainDataset] | None = None) -> Report:
    """Full grid: every leave-one-out split x ablation row x seed."""
    if datasets is None:
        datasets = bench.canonical_datasets(config.bench_overrides)
    targets = config.targets
    if targets is None:
        targets = [t for _, t in bench.leave_one_out_splits(sorted(datasets))]

    out_dir = config.resolved_out_dir()
    rows = []
    for target in targets:
        for flags in config.rows:
            for seed in config.seeds:
                e, g, l = flags
                run_id = f"t{target}_e{int(e)}g{int(g)}l{int(l)}_s{seed}"
                try:
                    acc = run_single(config, flags, target, seed, datasets,
                                     out_dir / "runs" / run_id / "metrics.csv")
                except engine.NonFiniteLossError:
                    acc = float("nan")  # mark failed, keep going
                rows.append((target, e, g, l, seed, acc))

    report = Report(rows)
    write_report_csv(report, out_dir / "report.csv")
    return report


# ---------------------------------------------------------------------------
# dependency-free SVG line plots


def write_svg_lines(path: Path, series: dict[str, list[float]],
                    title: str = "", width: int = 640, height: int = 400) -> None:
    """Plot one polyline per named series into a standalone SVG file."""
    all_vals = [v for vals in series.values() for v in vals]
    if not all_vals:
        raise ValueError("nothing to plot")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lo, hi = min(all_vals), max(all_vals)
    span = (hi - lo) or 1.0
    pad, plot_w, plot_h = 50, width - 100, height - 100
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<text x="{width // 2}" y="20" text-anchor="middle">{title}</text>',
             f'<rect x="{pad}" y="{pad}" width="{plot_w}" height="{plot_h}" '
             'fill="none" stroke="#888"/>']
    for i, (name, vals) in enumerate(series.items()):
        if len(vals) < 2:
            continue
        pts = []
        for j, v in enumerate(vals):
            x = pad + plot_w * j / (len(vals) - 1)
            y = pad + plot_h * (1.0 - (v - lo) / span)
            pts.append(f"{x:.2f},{y:.2f}")
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{pad + 5}" y="{pad + 15 + 15 * i}" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts))
