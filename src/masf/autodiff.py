"""Reverse-mode automatic differentiation over dense float64 tensors.

The graph is built eagerly: every node computes its value at construction
time, so shape errors surface where the offending op is written. Gradients
are built lazily by :func:`grad`, whose reverse sweep has two modes:

  * graph mode (the default): the gradients are graph nodes themselves, so
    differentiating an expression that contains them gives correct
    second-order derivatives. This is what lets a meta-loss evaluated at
    inner-updated parameters be backpropagated to the original parameters.
  * value mode (inside ``with values_only():``): the sweep computes plain
    arrays and builds no node; each gradient comes back as a ``const``.
    Use it for gradients that nothing differentiates again.

Each VJP rule is written once against one dispatch function that builds an
op by name, either as a node or by applying the op's forward function to
arrays, so both modes do the same floating-point operations and give
bit-identical values.

Numerical conventions:
  * everything is float64,
  * ``log`` and ``div`` are guarded with an additive epsilon of 1e-12,
  * softmax-style ops go through log-sum-exp with max subtraction.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

EPS = 1e-12

_ids = itertools.count()


class DomainError(ArithmeticError):
    """A guarded op received a value outside its domain beyond epsilon repair."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


class Expr:
    """One node of the computation graph (immutable after construction)."""

    __slots__ = ("id", "op", "inputs", "attrs", "value")

    def __init__(self, op: str, inputs: tuple["Expr", ...], value: np.ndarray,
                 attrs: dict | None = None):
        self.id = next(_ids)
        self.op = op
        self.inputs = inputs
        self.attrs = attrs or {}
        self.value = _freeze(value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self):
        return f"Expr(id={self.id}, op={self.op!r}, shape={self.shape})"


def leaf(value) -> Expr:
    """Differentiable input node (parameters, data). Copies its argument."""
    return Expr("leaf", (), np.array(value, dtype=np.float64))


def const(value) -> Expr:
    """Non-differentiable node (masks, selectors, hyperparameter scalars)."""
    return Expr("const", (), np.array(value, dtype=np.float64))


def as_expr(x) -> Expr:
    return x if isinstance(x, Expr) else const(x)


# ---------------------------------------------------------------------------
# forward semantics


def _sum_to_value(val: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``val`` back to ``shape``, undoing numpy broadcasting."""
    if val.shape == shape:
        return val
    extra = val.ndim - len(shape)
    if extra:
        val = val.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and val.shape[i] != 1)
    if axes:
        val = val.sum(axis=axes, keepdims=True)
    return val.reshape(shape)


def _fwd_div(attrs, a, b):
    d = b + EPS
    if np.any(d == 0.0):
        raise DomainError("division by zero not repaired by epsilon guard")
    return a / d


def _fwd_log(attrs, a):
    g = a + EPS
    if np.any(g <= 0.0):
        raise DomainError("log of non-positive value")
    return np.log(g)


def _fwd_sqrt(attrs, a):
    if np.any(a < 0.0):
        raise DomainError("sqrt of negative value")
    return np.sqrt(a)


def _fwd_scatter_rows(attrs, a):
    out = np.zeros(attrs["shape"])
    np.add.at(out, attrs["index"], a)
    return out


_FORWARD: dict[str, Callable] = {
    "add": lambda attrs, a, b: a + b,
    "sub": lambda attrs, a, b: a - b,
    "mul": lambda attrs, a, b: a * b,
    "div": _fwd_div,
    "neg": lambda attrs, a: -a,
    "matmul": lambda attrs, a, b: a @ b,
    "transpose": lambda attrs, a: a.T,
    "relu": lambda attrs, a: np.maximum(a, 0.0),
    "exp": lambda attrs, a: np.exp(a),
    "log": _fwd_log,
    "sqrt": _fwd_sqrt,
    "square": lambda attrs, a: a * a,
    "sum": lambda attrs, a: np.asarray(a.sum(axis=attrs["axis"])),
    "sum_to": lambda attrs, a: _sum_to_value(a, attrs["shape"]),
    "broadcast": lambda attrs, a: np.broadcast_to(a, attrs["shape"]),
    "reshape": lambda attrs, a: a.reshape(attrs["shape"]),
    "gather_rows": lambda attrs, a: a[attrs["index"]],
    "scatter_rows": _fwd_scatter_rows,
}


def _make(op: str, inputs: tuple[Expr, ...], attrs: dict | None = None) -> Expr:
    attrs = attrs or {}
    value = _FORWARD[op](attrs, *(x.value for x in inputs))
    return Expr(op, inputs, value, attrs)


# elementwise ops (numpy broadcasting allowed)

def _elementwise(op: str, a: Expr, b: Expr) -> Expr:
    try:
        return _make(op, (a, b))
    except ValueError as exc:  # numpy's own broadcast error
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from exc


def add(a: Expr, b: Expr) -> Expr:
    return _elementwise("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return _elementwise("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    return _elementwise("mul", a, b)


def div(a: Expr, b: Expr) -> Expr:
    """Epsilon-guarded division: a / (b + 1e-12)."""
    return _elementwise("div", a, b)


def neg(a: Expr) -> Expr:
    return _make("neg", (a,))


def relu(a: Expr) -> Expr:
    return _make("relu", (a,))


def exp(a: Expr) -> Expr:
    return _make("exp", (a,))


def log(a: Expr) -> Expr:
    """Epsilon-guarded natural log: log(a + 1e-12)."""
    return _make("log", (a,))


def sqrt(a: Expr) -> Expr:
    return _make("sqrt", (a,))


def square(a: Expr) -> Expr:
    return _make("square", (a,))


def matmul(a: Expr, b: Expr) -> Expr:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _make("matmul", (a, b))


def transpose(a: Expr) -> Expr:
    if a.value.ndim != 2:
        raise ValueError("transpose expects a 2-D tensor")
    return _make("transpose", (a,))


def reduce_sum(a: Expr, axis: int | None = None) -> Expr:
    return _make("sum", (a,), {"axis": axis})


def sum_to(a: Expr, shape: Sequence[int]) -> Expr:
    shape = tuple(shape)
    np.broadcast_shapes(a.shape, shape)  # raises on incompatibility
    return _make("sum_to", (a,), {"shape": shape})


def broadcast_to(a: Expr, shape: Sequence[int]) -> Expr:
    return _make("broadcast", (a,), {"shape": tuple(shape)})


def reshape(a: Expr, shape: Sequence[int]) -> Expr:
    return _make("reshape", (a,), {"shape": tuple(shape)})


# One indexing primitive and its adjoint. ``index`` is a tuple of integer
# arrays as in ``a[index]``: (idx,) takes whole rows, (arange(N), idx) takes
# one entry per row. The scatter adds into zeros, so repeated indices
# accumulate, and each op's VJP is the other one.

def _gather(a: Expr, index: tuple) -> Expr:
    return _make("gather_rows", (a,), {"index": index})


def _indices(idx, bound: int, op: str) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"{op} expects a vector of indices")
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= bound:
        raise ValueError(f"{op}: index out of range")
    return idx


def gather_rows(a: Expr, idx: np.ndarray) -> Expr:
    """Pick a[i, idx[i]] for every row i."""
    if a.value.ndim != 2 or np.ndim(idx) != 1 or len(idx) != a.shape[0]:
        raise ValueError("gather_rows expects a [N, C] tensor and N indices")
    idx = _indices(idx, a.shape[1], "gather_rows")
    return _gather(a, (np.arange(a.shape[0]), idx))


def select_rows(a: Expr, idx: np.ndarray) -> Expr:
    """Rows a[idx] of a tensor with at least one axis; indices may repeat."""
    if a.value.ndim < 1:
        raise ValueError("select_rows expects a tensor with rows")
    return _gather(a, (_indices(idx, a.shape[0], "select_rows"),))


# composites

def mean(a: Expr, axis: int | None = None) -> Expr:
    n = a.value.size if axis is None else a.shape[axis]
    return mul(reduce_sum(a, axis), const(1.0 / n))


def mean_of(terms: Sequence[Expr]) -> Expr:
    """Mean of a non-empty sequence of nodes, summed left to right."""
    return mul(const(1.0 / len(terms)), functools.reduce(add, terms))


def log_sum_exp(a: Expr, axis: int | None = None) -> Expr:
    """Stable log-sum-exp; the subtracted max is a constant, which leaves
    both the value and the derivatives exact."""
    m_val = a.value.max(axis=axis, keepdims=True)
    s = reduce_sum(exp(sub(a, const(m_val))), axis=axis)
    return add(log(s), const(np.squeeze(m_val, axis=axis)))


def log_softmax(a: Expr, axis: int = -1) -> Expr:
    if a.value.ndim != 2 or axis not in (1, -1):
        raise ValueError("log_softmax expects a [N, C] tensor, axis=1")
    lse = log_sum_exp(a, axis=1)
    return sub(a, reshape(lse, (a.shape[0], 1)))


def softmax(a: Expr, axis: int = -1) -> Expr:
    return exp(log_softmax(a, axis))


# ---------------------------------------------------------------------------
# reverse pass


# One rule per input of each op: (O, node, output adjoint g, *node.inputs)
# -> that input's adjoint. A rule builds each op as O(op, *operands, **attrs),
# naming it by its _FORWARD key; operands may be nodes, adjoints or arrays,
# and O decides whether the result is a node (graph mode) or an array (value
# mode). Shapes come from the forward graph, which the constructors checked.
# The sweep runs only the rules of inputs that lead to a parameter.

def _vjp_sum(O, node, g, a):
    axis = node.attrs["axis"]
    if axis is not None:
        keep = list(a.shape)
        keep[axis] = 1
        g = O("reshape", g, shape=tuple(keep))
    return O("broadcast", g, shape=a.shape)


_VJP: dict[str, tuple[Callable, ...]] = {
    "add": (lambda O, node, g, a, b: O("sum_to", g, shape=a.shape),
            lambda O, node, g, a, b: O("sum_to", g, shape=b.shape)),
    "sub": (lambda O, node, g, a, b: O("sum_to", g, shape=a.shape),
            lambda O, node, g, a, b: O("sum_to", O("neg", g), shape=b.shape)),
    "mul": (lambda O, node, g, a, b: O("sum_to", O("mul", g, b), shape=a.shape),
            lambda O, node, g, a, b: O("sum_to", O("mul", g, a), shape=b.shape)),
    # node = a/(b+eps); d/da = 1/(b+eps), d/db = -node/(b+eps)
    "div": (lambda O, node, g, a, b: O("sum_to", O("div", g, b), shape=a.shape),
            lambda O, node, g, a, b: O("sum_to", O("neg", O(
                "mul", g, O("div", node, b))), shape=b.shape)),
    "neg": (lambda O, node, g, a: O("neg", g),),
    "matmul": (lambda O, node, g, a, b: O("matmul", g, O("transpose", b)),
               lambda O, node, g, a, b: O("matmul", O("transpose", a), g)),
    "transpose": (lambda O, node, g, a: O("transpose", g),),
    "relu": (lambda O, node, g, a: O(
        "mul", g, (a.value > 0).astype(np.float64)),),
    "exp": (lambda O, node, g, a: O("mul", g, node),),
    "log": (lambda O, node, g, a: O("div", g, a),),
    "sqrt": (lambda O, node, g, a: O("div", O("mul", g, 0.5), node),),
    "square": (lambda O, node, g, a: O("mul", g, O("mul", 2.0, a)),),
    "sum": (_vjp_sum,),
    "sum_to": (lambda O, node, g, a: O("broadcast", g, shape=a.shape),),
    "broadcast": (lambda O, node, g, a: O("sum_to", g, shape=a.shape),),
    "reshape": (lambda O, node, g, a: O("reshape", g, shape=a.shape),),
    "gather_rows": (lambda O, node, g, a: O(
        "scatter_rows", g, index=node.attrs["index"], shape=a.shape),),
    "scatter_rows": (lambda O, node, g, a: O(
        "gather_rows", g, index=node.attrs["index"]),),
}


def _on_graph(op: str, *operands, **attrs) -> Expr:
    """Graph mode: a node (an array operand becomes a ``const``)."""
    return _make(op, tuple(map(as_expr, operands)), attrs)


def _on_values(op: str, a, b=None, **attrs) -> np.ndarray:
    """Value mode: the op's forward function on arrays; a node operand stands
    for its value. Every op has one or two operands, spelled out here because
    this runs once per op of every value-mode sweep."""
    a = a.value if isinstance(a, Expr) else a
    if b is None:
        return _FORWARD[op](attrs, a)
    return _FORWARD[op](attrs, a, b.value if isinstance(b, Expr) else b)


_sweep_op: ContextVar[Callable] = ContextVar("sweep_op", default=_on_graph)


@contextmanager
def values_only():
    """Run every :func:`grad` inside the block in value mode: gradients come
    back as ``const`` nodes that cannot be differentiated again. The previous
    mode returns when the block exits, also on an exception."""
    token = _sweep_op.set(_on_values)
    try:
        yield
    finally:
        _sweep_op.reset(token)


def _toposort(root: Expr) -> list[Expr]:
    order: list[Expr] = []
    seen: set[int] = set()
    stack: list[tuple[Expr, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node.id not in seen:
            seen.add(node.id)
            stack.append((node, True))
            stack.extend((c, False) for c in node.inputs if c.id not in seen)
    return order  # children before parents


class GradMap:
    """Gradients of one scalar with respect to a set of leaf parameters, as
    Expr nodes (differentiable again when :func:`grad` ran in graph mode)."""

    def __init__(self, params: Sequence[Expr], grads: Sequence[Expr]):
        self.params = tuple(params)
        self.grads = tuple(grads)
        self._by_id = {p.id: g for p, g in zip(self.params, self.grads)}

    def __getitem__(self, param: Expr) -> Expr:
        return self._by_id[param.id]

    def __contains__(self, param: Expr) -> bool:
        return param.id in self._by_id

    def __iter__(self):
        return iter(zip(self.params, self.grads))

    def __len__(self):
        return len(self.params)


def grad(scalar: Expr, params: Sequence[Expr]) -> GradMap:
    """Gradient of a scalar node with respect to leaf parameters.

    Parameters not reachable from ``scalar`` get zero gradients. In graph
    mode the result entries are graph nodes built from differentiable ops,
    so ``grad`` of an expression containing them yields second-order
    derivatives. Inside ``values_only()`` the sweep builds no node and each
    entry is a ``const`` holding the same values.
    """
    if scalar.shape != ():
        raise ValueError(f"grad root must be scalar, got shape {scalar.shape}")
    for p in params:
        if p.op != "leaf":
            raise ValueError("grad parameters must be leaf nodes")

    order = _toposort(scalar)
    param_ids = {p.id for p in params}

    # restrict the sweep to nodes from which some parameter is reachable
    needed: set[int] = set()
    for node in order:  # children first
        if node.id in param_ids or any(c.id in needed for c in node.inputs):
            needed.add(node.id)

    O = _sweep_op.get()
    adjoints = {scalar.id: const(1.0)}
    for node in reversed(order):
        if node.op in ("leaf", "const"):
            continue
        g = adjoints.pop(node.id, None)  # a swept node's adjoint is done
        if g is None:
            continue
        for inp, rule in zip(node.inputs, _VJP[node.op]):
            if inp.id not in needed:
                continue
            gi = rule(O, node, g, *node.inputs)
            prev = adjoints.get(inp.id)
            adjoints[inp.id] = gi if prev is None else O("add", prev, gi)

    grads = [as_expr(adjoints[p.id]) if p.id in adjoints
             else const(np.zeros(p.shape)) for p in params]
    return GradMap(params, grads)


# ---------------------------------------------------------------------------
# gradient clipping


def global_norm(grads: GradMap) -> Expr:
    return sqrt(functools.reduce(add, [reduce_sum(square(g)) for _, g in grads]))


def clip_by_norm(grads: GradMap, threshold: float,
                 norm: Expr | None = None) -> GradMap:
    """Scale the whole GradMap so its global L2 norm is at most ``threshold``.

    ``norm`` is ``global_norm(grads)`` if the caller already has it. The
    branch is decided eagerly on the current value; when scaling is active,
    the scale factor stays differentiable through the norm.
    """
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    if norm is None:
        norm = global_norm(grads)
    if float(norm.value) <= threshold:
        return grads
    scale = div(const(threshold), norm)
    return GradMap(grads.params, [mul(g, scale) for _, g in grads])


# ---------------------------------------------------------------------------
# finite differences (test oracle)


def recompute(root: Expr, overrides: dict[int, np.ndarray]) -> np.ndarray:
    """Re-evaluate a graph with some leaf values replaced (non-mutating).

    Data-dependent constants baked in at construction (relu masks, clip
    branches, log-sum-exp shifts) are kept fixed, matching the local,
    almost-everywhere semantics of the gradients.
    """
    values: dict[int, np.ndarray] = {}
    for node in _toposort(root):
        if node.op in ("leaf", "const"):
            values[node.id] = overrides.get(node.id, node.value)
        else:
            values[node.id] = _FORWARD[node.op](
                node.attrs, *(values[c.id] for c in node.inputs))
    return values[root.id]


def finite_diff_check(scalar: Expr, params: Sequence[Expr],
                      h: float = 1e-5) -> float:
    """Max relative error between grad() and central finite differences.

    Relative error is |a - b| / max(1, |a|, |b|), maximized over every
    component of every parameter.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    with values_only():
        gm = grad(scalar, params)
    worst = 0.0
    for p, g in gm:
        analytic = g.value
        base = np.array(p.value)
        numeric = np.zeros_like(base)
        for ix in np.ndindex(base.shape):
            plus, minus = np.array(base), np.array(base)
            plus[ix] += h
            minus[ix] -= h
            fp = recompute(scalar, {p.id: plus})
            fm = recompute(scalar, {p.id: minus})
            numeric[ix] = (float(fp) - float(fm)) / (2.0 * h)
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        err = np.abs(analytic - numeric) / denom
        if err.size:
            worst = max(worst, float(err.max()))
    return worst
