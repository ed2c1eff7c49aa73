"""Reverse-mode automatic differentiation over dense float64 tensors.

The graph is built eagerly: every node computes its value at construction
time, so shape errors surface where the offending op is written. Gradients
are built lazily by :func:`grad`. One depth-first walk finds the op nodes
through which the root depends on the parameters (:func:`recompute` re-runs
the same path), and the reverse sweep runs only their VJP rules, in two modes:

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
bit-identical values. One ``matmul`` node holds a whole layer
(``x @ w + b``). Transposition has one mechanism: a matmul reads either
operand transposed in place (attributes ``ta``, ``tb``, which VJP rules set),
so each matmul adjoint is one matmul. Reduction has one op, ``sum``, whose
node names the axes it sums. An axis sum keeps its axis, so its result
broadcasts against its input and its adjoint is one ``broadcast``; there is
no reshape op, and no reduction takes a shape. One helper, ``_sum_to``,
undoes broadcasting with at most two sums; like ``_broadcast``, only VJP
rules call it, and it returns an adjoint that already has the wanted shape,
so neither mode builds an identity op. ``global_norm`` works on values too;
``clip_by_norm`` builds the norm as a graph only when it scales graph-mode
gradients.

Numerical conventions:
  * everything is float64,
  * ``log`` and ``div`` are guarded with an additive epsilon of 1e-12,
  * softmax-style ops go through log-sum-exp with max subtraction,
  * the row scatter is ``np.add.at`` into zeros, so repeated indices sum
    in input order.
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


class Expr:
    """One graph node; it freezes the float64 array it is handed, unconverted."""

    __slots__ = ("id", "op", "inputs", "attrs", "value", "shape")

    def __init__(self, op: str, inputs: tuple["Expr", ...], value: np.ndarray,
                 attrs: dict | None = None):
        self.id = next(_ids)
        self.op = op
        self.inputs = inputs
        self.attrs = attrs or {}
        value.setflags(write=False)
        self.value = value
        self.shape = value.shape

    def __repr__(self):
        return f"Expr(id={self.id}, op={self.op!r}, shape={self.shape})"


def leaf(value) -> Expr:
    """Differentiable input node (parameters, data). Copies its argument."""
    return Expr("leaf", (), np.array(value, dtype=np.float64))


def const(value, copy: bool = True) -> Expr:
    """Non-differentiable node (masks, selectors, hyperparameter scalars);
    with ``copy=False``, a float64 array is frozen as it is, not copied."""
    return Expr("const", (), np.array(value, dtype=np.float64, copy=copy or None))


def as_expr(x) -> Expr:
    return x if isinstance(x, Expr) else const(x)


# ---------------------------------------------------------------------------
# forward semantics


def _fwd_div(attrs, a, b):
    d = b + EPS
    if not d.all():
        raise DomainError("division by zero not repaired by epsilon guard")
    return a / d


def _fwd_log(attrs, a):
    g = a + EPS
    if (g <= 0.0).any():
        raise DomainError("log of non-positive value")
    return np.log(g)


def _fwd_sqrt(attrs, a):
    if (a < 0.0).any():
        raise DomainError("sqrt of negative value")
    return np.sqrt(a)


def _fwd_matmul(attrs, a, b, bias=None):
    out = (a.T if attrs.get("ta") else a) @ (b.T if attrs.get("tb") else b)
    if bias is not None:  # into the fresh product, in place
        out += bias
    return out


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
    "matmul": _fwd_matmul,
    "relu": lambda attrs, a: np.maximum(a, 0.0),
    "exp": lambda attrs, a: np.exp(a),
    "log": _fwd_log,
    "sqrt": _fwd_sqrt,
    "square": lambda attrs, a: a * a,
    "sum": lambda attrs, a: a.sum(axis=attrs["axis"], keepdims=attrs["keepdims"]),
    # a filled array costs less to make than np.broadcast_to's read-only view
    "broadcast": lambda attrs, a: np.full(attrs["shape"], a),
    "gather_rows": lambda attrs, a: a[attrs["index"]],
    "scatter_rows": _fwd_scatter_rows,
}


def _make(op: str, inputs: tuple[Expr, ...], attrs: dict | None = None) -> Expr:
    attrs = attrs or {}
    # one to three operands, spelled out as in _on_values: this runs per node
    if len(inputs) == 1:
        value = _FORWARD[op](attrs, inputs[0].value)
    elif len(inputs) == 2:
        value = _FORWARD[op](attrs, inputs[0].value, inputs[1].value)
    else:  # a matmul with a bias
        value = _FORWARD[op](attrs, inputs[0].value, inputs[1].value, inputs[2].value)
    # a whole sum, or an op on 0-d arrays, gives a float64 NumPy scalar
    return Expr(op, inputs, np.asarray(value), attrs)


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


def matmul(a: Expr, b: Expr, bias: Expr | None = None) -> Expr:
    """``a @ b``, plus ``bias`` on every row: a whole layer in one node."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    if bias is not None and bias.shape != b.shape[1:]:
        raise ValueError(f"matmul: bias shape {bias.shape} is not {b.shape[1:]}")
    return _make("matmul", (a, b) if bias is None else (a, b, bias))


def reduce_sum(a: Expr, axis: int | None = None) -> Expr:
    """The sum of every entry, or over ``axis``, which stays with length 1."""
    return _make("sum", (a,), {"axis": axis, "keepdims": axis is not None})


# One indexing primitive and its adjoint. ``index`` is a tuple of integer
# arrays as in ``a[index]``: (idx,) takes whole rows, (arange(N)[:, None],
# idx[:, None]) takes one entry per row, as a column. The scatter is
# np.add.at into zeros, so repeated indices accumulate in input order. Each
# op's VJP is the other one.

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
    """Pick a[i, idx[i]] for every row i, as an [N, 1] column."""
    if a.value.ndim != 2 or np.ndim(idx) != 1 or len(idx) != a.shape[0]:
        raise ValueError("gather_rows expects a [N, C] tensor and N indices")
    idx = _indices(idx, a.shape[1], "gather_rows")
    return _gather(a, (np.arange(a.shape[0])[:, None], idx[:, None]))


def select_rows(a: Expr, idx: np.ndarray) -> Expr:
    """Rows a[idx] of a tensor with at least one axis; indices may repeat."""
    if a.value.ndim < 1:
        raise ValueError("select_rows expects a tensor with rows")
    return _gather(a, (_indices(idx, a.shape[0], "select_rows"),))


# composites

def mean(a: Expr) -> Expr:
    return mul(reduce_sum(a), const(1.0 / a.value.size))


def log_sum_exp(a: Expr) -> Expr:
    """Stable log-sum-exp over the last axis, which stays with length 1 as in
    ``reduce_sum``; the subtracted max is one constant, read by the ``sub``
    and the ``add``, which leaves both the value and the derivatives exact."""
    m = const(a.value.max(axis=-1, keepdims=True))
    return add(log(reduce_sum(exp(sub(a, m)), axis=-1)), m)


def log_softmax(a: Expr) -> Expr:
    """Row-wise log-softmax of a [N, C] tensor."""
    if a.value.ndim != 2:
        raise ValueError("log_softmax expects a [N, C] tensor")
    return sub(a, log_sum_exp(a))


def softmax(a: Expr) -> Expr:
    return exp(log_softmax(a))


# ---------------------------------------------------------------------------
# reverse pass


# One rule per input of each op: (O, node, output adjoint g, *node.inputs)
# -> that input's adjoint. A rule builds each op as O(op, *operands, **attrs),
# naming it by its _FORWARD key; operands may be nodes, adjoints or arrays,
# and O decides whether the result is a node (graph mode) or an array (value
# mode). Shapes come from the forward graph, which the constructors checked.
# _sum_to undoes a broadcast and _broadcast applies one, for rules alone;
# neither builds an op for an adjoint that already has the wanted shape.
# The sweep runs only the rules of inputs that lead to a parameter.

def _sum_to(O, g, shape):
    """``g`` summed to ``shape``: over the axes in front of ``shape`` (a
    bias adjoint ends there), then keeping each axis where ``shape`` has
    length 1; ``g`` itself if it has that shape."""
    if g.shape == shape:
        return g
    lead = len(g.shape) - len(shape)
    if lead:
        g = O("sum", g, axis=tuple(range(lead)), keepdims=False)
        if g.shape == shape:
            return g
    # zipped outside: a generator that read g would make every call slower
    pairs = enumerate(zip(shape, g.shape))
    axes = tuple(i for i, (d, n) in pairs if d == 1 and n != 1)
    return O("sum", g, axis=axes, keepdims=True)


def _broadcast(O, g, shape):
    """``g`` broadcast to ``shape``: ``g`` itself if it has that shape."""
    return g if g.shape == shape else O("broadcast", g, shape=shape)


# node = A'B' (A' = a.T if ta, B' = b.T if tb); each adjoint is one matmul that
# reads its transpositions in place: a's is g B'^T (B' g^T if ta), b's A'^T g
# (g^T A' if tb)
def _vjp_matmul_a(O, node, g, a, b, *bias):
    ta, tb = node.attrs.get("ta", False), node.attrs.get("tb", False)
    return O("matmul", b, g, ta=tb, tb=True) if ta else O("matmul", g, b, tb=not tb)


def _vjp_matmul_b(O, node, g, a, b, *bias):
    ta, tb = node.attrs.get("ta", False), node.attrs.get("tb", False)
    return O("matmul", g, a, ta=True, tb=ta) if tb else O("matmul", a, g, ta=not ta)


_VJP: dict[str, tuple[Callable, ...]] = {
    "add": (lambda O, node, g, a, b: _sum_to(O, g, a.shape),
            lambda O, node, g, a, b: _sum_to(O, g, b.shape)),
    "sub": (lambda O, node, g, a, b: _sum_to(O, g, a.shape),
            lambda O, node, g, a, b: _sum_to(O, O("neg", g), b.shape)),
    "mul": (lambda O, node, g, a, b: _sum_to(O, O("mul", g, b), a.shape),
            lambda O, node, g, a, b: _sum_to(O, O("mul", g, a), b.shape)),
    # node = a/(b+eps); d/da = 1/(b+eps), d/db = -node/(b+eps)
    "div": (lambda O, node, g, a, b: _sum_to(O, O("div", g, b), a.shape),
            lambda O, node, g, a, b: _sum_to(O, O("neg", O(
                "mul", g, O("div", node, b))), b.shape)),
    "neg": (lambda O, node, g, a: O("neg", g),),
    "matmul": (_vjp_matmul_a, _vjp_matmul_b,
               lambda O, node, g, a, b, bias: _sum_to(O, g, bias.shape)),
    "relu": (lambda O, node, g, a: O(
        "mul", g, (a.value > 0).astype(np.float64)),),
    "exp": (lambda O, node, g, a: O("mul", g, node),),
    "log": (lambda O, node, g, a: O("div", g, a),),
    "sqrt": (lambda O, node, g, a: O("div", O("mul", g, 0.5), node),),
    "square": (lambda O, node, g, a: O("mul", g, O("mul", 2.0, a)),),
    "sum": (lambda O, node, g, a: _broadcast(O, g, a.shape),),
    "broadcast": (lambda O, node, g, a: _sum_to(O, g, a.shape),),
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
    for its value. Every op a rule builds has one or two operands, spelled out
    here because this runs once per op of every value-mode sweep."""
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


def _path(root: Expr, leaves: set[int]) -> dict[int, Expr]:
    """The op nodes through which ``root`` depends on the leaves with ids in
    ``leaves``, by id, each after its inputs (one depth-first walk)."""
    path: dict[int, Expr] = {}
    done: dict[int, bool] = {}  # False while a node's inputs are walked
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.inputs:
            continue
        if node.id not in done:
            done[node.id] = False
            stack.append(node)  # comes back once its inputs are done
            stack.extend(node.inputs)
        elif not done[node.id]:
            done[node.id] = True
            for c in node.inputs:
                if c.id in path or c.id in leaves:
                    path[node.id] = node
                    break
    return path


class GradMap:
    """Gradients of one scalar with respect to a set of leaf parameters, as
    Expr nodes (differentiable again when :func:`grad` ran in graph mode)."""

    def __init__(self, params: Sequence[Expr], grads: Sequence[Expr]):
        self.params = tuple(params)
        self.grads = tuple(grads)
        self._by_id = {p.id: g for p, g in zip(self.params, self.grads)}

    def __getitem__(self, param: Expr) -> Expr:
        return self._by_id[param.id]

    def __iter__(self):
        return iter(zip(self.params, self.grads))


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

    ids = {p.id for p in params}
    path = _path(scalar, ids)
    live = ids.union(path)  # the inputs whose adjoints the sweep needs
    O = _sweep_op.get()
    adjoints = {scalar.id: const(1.0)}
    for node in reversed(path.values()):  # parents first
        g = adjoints.pop(node.id)  # complete: its consumers came first
        for inp, rule in zip(node.inputs, _VJP[node.op]):
            if inp.id in live:
                gi = rule(O, node, g, *node.inputs)
                prev = adjoints.get(inp.id)
                adjoints[inp.id] = gi if prev is None else O("add", prev, gi)

    grads = [as_expr(adjoints[p.id]) if p.id in adjoints
             else const(np.zeros(p.shape)) for p in params]
    return GradMap(params, grads)


# ---------------------------------------------------------------------------
# gradient clipping


def global_norm(grads: GradMap) -> Expr:
    """A ``const`` holding the value of the norm graph in ``clip_by_norm``."""
    with np.errstate(over="ignore"):  # an inf norm is the caller's to report
        sums = [_FORWARD["sum"]({"axis": None, "keepdims": False}, g.value * g.value)
                for _, g in grads]
    return const(np.sqrt(functools.reduce(np.add, sums)))


def clip_by_norm(grads: GradMap, threshold: float, norm: Expr) -> GradMap:
    """Scale the whole GradMap so its global L2 norm is at most ``threshold``.

    ``norm`` is ``global_norm(grads)``. The branch is decided eagerly on its
    value; when scaling is active on graph gradients, the norm is built as a
    graph, so the scale stays differentiable.
    """
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    if float(norm.value) <= threshold:
        return grads
    if any(g.op != "const" for _, g in grads):
        norm = sqrt(functools.reduce(add, [reduce_sum(square(g)) for _, g in grads]))
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
    values = dict(overrides)
    for node in _path(root, set(overrides)).values():
        values[node.id] = _FORWARD[node.op](
            node.attrs, *(values.get(c.id, c.value) for c in node.inputs))
    return values.get(root.id, root.value)


def finite_diff_check(scalar: Expr, params: Sequence[Expr]) -> float:
    """Max relative error between grad() and central differences of step 1e-5.

    Relative error is |a - b| / max(1, |a|, |b|), maximized over every
    component of every parameter.
    """
    h = 1e-5
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
