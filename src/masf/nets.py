"""Functional network definitions: feature extractor, task head, metric net.

Networks are plain functions applied to explicit parameter sets, so an
inner-updated copy of the parameters can be used alongside the originals
without mutation. All forward passes build autodiff graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Expr, GradMap

FEATURE_EXTRACTOR = "feature_extractor"
TASK_NET = "task_net"
METRIC_NET = "metric_net"


@dataclass(frozen=True)
class Architecture:
    """Layer sizes for the three sub-networks."""

    input_dim: int
    num_classes: int
    feature_widths: tuple[int, ...]
    metric_widths: tuple[int, ...]

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be at least 2, got {self.num_classes}")
        for name in ("input_dim", "feature_widths", "metric_widths"):
            if min(np.atleast_1d(widths := getattr(self, name)), default=0) < 1:
                raise ValueError(f"{name} must be at least 1 per layer, got {widths}")

    @property
    def feature_dim(self) -> int:
        return self.feature_widths[-1]


@dataclass
class ParamSet:
    """Named, ordered parameter tensors for one network."""

    role: str
    entries: list[tuple[str, Expr]] = field(default_factory=list)

    def __post_init__(self):
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")

    @property
    def tensors(self) -> list[Expr]:
        return [t for _, t in self.entries]

    def __getitem__(self, name: str) -> Expr:
        for n, t in self.entries:
            if n == name:
                return t
        raise KeyError(name)

    def replace(self, new_tensors: list[Expr]) -> "ParamSet":
        """New ParamSet with the same names; shapes must match."""
        if len(new_tensors) != len(self.entries):
            raise ValueError("tensor count mismatch")
        entries = []
        for (name, old), new in zip(self.entries, new_tensors):
            if new.shape != old.shape:
                raise ValueError(f"shape mismatch for {name}")
            entries.append((name, new))
        return ParamSet(self.role, entries)


def _mlp_params(rng: np.random.Generator, role: str, dims: list[int]) -> ParamSet:
    entries = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        entries.append((f"w{i}", ad.leaf(w)))
        entries.append((f"b{i}", ad.leaf(np.zeros(fan_out))))
    return ParamSet(role, entries)


def init_params(arch: Architecture, seed: int) -> tuple[ParamSet, ParamSet, ParamSet]:
    """He-initialized weights (gaussian, scaled by fan-in), zero biases."""
    rng = np.random.default_rng(seed)
    psi = _mlp_params(rng, FEATURE_EXTRACTOR,
                      [arch.input_dim, *arch.feature_widths])
    theta = _mlp_params(rng, TASK_NET, [arch.feature_dim, arch.num_classes])
    phi = _mlp_params(rng, METRIC_NET, [arch.feature_dim, *arch.metric_widths])
    return psi, theta, phi


def _mlp(params: ParamSet, role: str, h: Expr, relu_last: bool) -> Expr:
    """Each layer x @ w{i} + b{i} of ``params`` in turn, with a ReLU between
    layers and after the last one only if ``relu_last``."""
    if params.role != role:
        raise ValueError(f"expected {role.replace('_', '-')} parameters")
    n = len(params.entries) // 2
    for i in range(n):
        h = ad.add(ad.matmul(h, params[f"w{i}"]), params[f"b{i}"])
        if relu_last or i < n - 1:
            h = ad.relu(h)
    return h


def feature_forward(psi: ParamSet, x: Expr) -> Expr:
    """MLP with ReLU after every layer (including the last)."""
    return _mlp(psi, FEATURE_EXTRACTOR, x, relu_last=True)


def task_forward(theta: ParamSet, z: Expr) -> Expr:
    """MLP with a linear final layer, producing unnormalized logits."""
    return _mlp(theta, TASK_NET, z, relu_last=False)


def metric_forward(phi: ParamSet, z: Expr) -> Expr:
    """MLP with a linear final layer, rows L2-normalized."""
    e = _mlp(phi, METRIC_NET, z, relu_last=False)
    norms = ad.sqrt(ad.reduce_sum(ad.square(e), axis=1))
    return ad.div(e, ad.reshape(norms, (e.shape[0], 1)))


def sgd_step(params: ParamSet, grads: GradMap, lr: float) -> ParamSet:
    """One gradient step as graph nodes, differentiable w.r.t. the originals."""
    return params.replace([ad.sub(t, ad.mul(ad.const(lr), grads[t]))
                           for t in params.tensors])


# ---------------------------------------------------------------------------
# serialization: NumPy .npy records back to back, first a 1-D str array
# [role, *names], then one float64 array per entry in that order.


def save_params(params: ParamSet, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        np.save(f, np.array([params.role, *(n for n, _ in params.entries)]))
        for _, t in params.entries:
            np.save(f, t.value)


def _read_record(f, path) -> np.ndarray:
    # read_array, unlike np.load, takes no zip archive or pickle for a record
    try:
        return np.lib.format.read_array(f, allow_pickle=False)
    except ValueError as exc:
        raise OSError(f"{path}: truncated or corrupt parameter file: {exc}") from exc


def load_params(path: str | Path, role: str) -> ParamSet:
    """Read a parameter file with the names it was saved with. A short,
    overlong or foreign file is an ``OSError``; another role than ``role``,
    names off the w0, b0, w1, ... layout or layers that do not chain is a
    ``ValueError``."""
    with open(path, "rb") as f:
        header = _read_record(f, path)
        if header.dtype.kind != "U" or header.ndim != 1 or not header.size:
            raise OSError(f"{path}: not a parameter file")
        saved, *names = header.tolist()
        if saved != role:
            raise ValueError(f"{path}: holds {saved!r} parameters, "
                             f"expected {role!r}")
        if names != [f"{k}{i}" for i in range(len(names) // 2 or 1) for k in "wb"]:
            raise ValueError(f"{path}: parameter names {names} are not "
                             f"w0, b0, w1, b1, ...")
        entries = [(name, ad.leaf(_read_record(f, path))) for name in names]
        if f.read(1):
            raise OSError(f"{path}: trailing bytes after the parameters")
    shapes = [t.shape for _, t in entries]
    for i, (w, b) in enumerate(zip(shapes[::2], shapes[1::2])):
        if len(w) != 2 or b != w[1:]:
            raise ValueError(f"{path}: w{i} {w} and b{i} {b} are not an "
                             f"[in, out] matrix and an [out] vector")
        if i and w[0] != shapes[2 * i - 2][1]:
            raise ValueError(f"{path}: w{i} takes {w[0]} inputs, but layer "
                             f"{i - 1} gives {shapes[2 * i - 2][1]}")
    return ParamSet(role, entries)
