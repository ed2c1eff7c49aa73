"""Functional network definitions: feature extractor, task head, metric net.

Networks are plain functions applied to explicit parameter sets, so an
inner-updated copy of the parameters can be used alongside the originals
without mutation. All forward passes build autodiff graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _name(i: int) -> str:
    """The name of a parameter set's ``i``-th tensor: w0, b0, w1, b1, ..."""
    return f"{'wb'[i % 2]}{i // 2}"


@dataclass(frozen=True)
class ParamSet:
    """One network's tensors in layer order, named by position (``_name``)."""

    role: str
    tensors: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "tensors", tuple(self.tensors))

    @property
    def entries(self) -> list[tuple[str, Expr]]:
        return [(_name(i), t) for i, t in enumerate(self.tensors)]

    def __getitem__(self, name: str) -> Expr:
        return dict(self.entries)[name]

    @property
    def out_width(self) -> int:
        """The width of the network's output: its last layer's bias length."""
        return self.tensors[-1].shape[0]

    def replace(self, new_tensors: list[Expr]) -> "ParamSet":
        """New ParamSet of the same role; shapes must match."""
        if len(new_tensors) != len(self.tensors):
            raise ValueError("tensor count mismatch")
        for i, (old, new) in enumerate(zip(self.tensors, new_tensors)):
            if new.shape != old.shape:
                raise ValueError(f"shape mismatch for {_name(i)}")
        return ParamSet(self.role, new_tensors)


def _mlp_params(rng: np.random.Generator, role: str, dims: list[int]) -> ParamSet:
    tensors = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        tensors += [ad.leaf(w), ad.leaf(np.zeros(fan_out))]
    return ParamSet(role, tensors)


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
    layers = list(zip(params.tensors[::2], params.tensors[1::2]))
    for i, (w, b) in enumerate(layers, 1):
        h = ad.matmul(h, w, b)
        if relu_last or i < len(layers):
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
    return ad.div(e, ad.sqrt(ad.reduce_sum(ad.square(e), axis=-1)))


def sgd_step(params: ParamSet, grads: GradMap, lr: float) -> ParamSet:
    """One gradient step as graph nodes, differentiable w.r.t. the originals."""
    lr = ad.const(lr)
    return params.replace([ad.sub(t, ad.mul(lr, grads[t])) for t in params.tensors])


# ---------------------------------------------------------------------------
# serialization: NumPy .npy records back to back, first a 1-D str array
# [role, *names], then one float64 array per entry in that order.


def save_params(params: ParamSet, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        np.save(f, np.array([params.role, *(n for n, _ in params.entries)]))
        for t in params.tensors:
            np.save(f, t.value)


def _read_record(f, path) -> np.ndarray:
    # read_array, unlike np.load, takes no zip archive or pickle for a record
    try:
        return np.lib.format.read_array(f, allow_pickle=False)
    except ValueError as exc:
        raise OSError(f"{path}: truncated or corrupt parameter file: {exc}") from exc


def load_params(path: str | Path, role: str) -> ParamSet:
    """Read a parameter file that ``save_params`` wrote. A short,
    overlong or foreign file is an ``OSError``; another role than ``role``,
    names off the w0, b0, w1, ... layout, layers that do not chain or a
    NaN or inf entry is a ``ValueError``."""
    with open(path, "rb") as f:
        header = _read_record(f, path)
        if header.dtype.kind != "U" or header.ndim != 1 or not header.size:
            raise OSError(f"{path}: not a parameter file")
        saved, *names = header.tolist()
        if saved != role:
            raise ValueError(f"{path}: holds {saved!r} parameters, "
                             f"expected {role!r}")
        if names != [_name(i) for i in range(len(names) // 2 * 2 or 2)]:
            raise ValueError(f"{path}: parameter names {names} are not "
                             f"w0, b0, w1, b1, ...")
        tensors = [ad.leaf(_read_record(f, path)) for _ in names]
        if f.read(1):
            raise OSError(f"{path}: trailing bytes after the parameters")
    shapes = [t.shape for t in tensors]
    for i, (w, b) in enumerate(zip(shapes[::2], shapes[1::2])):
        if len(w) != 2 or b != w[1:]:
            raise ValueError(f"{path}: {_name(2 * i)} {w} and {_name(2 * i + 1)} "
                             f"{b} are not an [in, out] matrix and an [out] vector")
        if i and w[0] != shapes[2 * i - 2][1]:
            raise ValueError(f"{path}: {_name(2 * i)} takes {w[0]} inputs, but "
                             f"layer {i - 1} gives {shapes[2 * i - 2][1]}")
    for i, t in enumerate(tensors):
        if not np.isfinite(t.value).all():
            raise ValueError(f"{path}: {_name(i)} holds a NaN or inf entry")
    return ParamSet(role, tensors)
