"""Per-layer spans and graph-node counts for masf, attached from outside.

``Tracer.installed()`` rebinds the public functions of the layer modules to
wrappers that record one span per call, and restores the originals on exit.
The library looks these functions up as module attributes at call time, so
the wrappers see every call on the training and evaluation paths without any
change to the library. Wrappers only read arguments and results; they never
alter a value, so a traced run computes exactly what an untraced one does.

Graph nodes are counted in ``end_step``, which the benchmark calls from the
metrics sink after each step's timestamp, so the walk over ``Expr.inputs``
falls outside every timed span and outside the step latency.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from masf import autodiff as ad
from masf import bench, engine, harness, losses, nets

# Functions that get a plain span named "<layer>.<function>", with the phase
# their metrics are reported for: per training step, per set-up or per
# diagnostics pass. Calls in other phases (the forward passes inside the
# diagnostics, say) are recorded but not reported.
SPANNED = (
    (engine, "draw_batches", "train"),
    (bench, "sample_batch", "train"),
    (bench, "make_domain", "setup"),
    (bench, "train_test_split", "setup"),
    (nets, "feature_forward", "train"),
    (nets, "task_forward", "train"),
    (nets, "metric_forward", "train"),
    (nets, "sgd_step", "train"),
    (nets, "init_params", "setup"),
    (ad, "clip_by_norm", "train"),
    (ad, "global_norm", "train"),
    (losses, "task_loss", "train"),
    (losses, "global_alignment_loss", "train"),
    (losses, "triplet_loss_semihard", "train"),
    (harness, "evaluate_accuracy", "eval"),
    (harness, "margin_statistic", "eval"),
    (harness, "target_alignment", "eval"),
    (harness, "silhouette_score", "eval"),
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


# engine.meta_step, autodiff.grad.* and the miner are reported per step
REPORTED_PHASE = {f"{_layer(m)}.{attr}": phase for m, attr, phase in SPANNED}


def _reach(roots, stop=()) -> dict:
    """Nodes reachable from ``roots`` through ``Expr.inputs``, by id.

    Nodes whose id is in ``stop`` are neither counted nor walked through.
    """
    seen = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.id in seen or node.id in stop:
            continue
        seen[node.id] = node
        stack.extend(node.inputs)
    return seen


class _StepCapture:
    """What the wrappers saw during one meta step, for ``end_step``."""

    def __init__(self, state: engine.EpisodeState):
        self.phi_ids = {t.id for t in state.phi.tensors}
        self.episodic = state.hp.episodic
        self.margin = state.hp.xi
        self.param_grads = 0  # grad calls over (psi, theta) so far
        self.grads: list[tuple[str, ad.Expr, ad.GradMap]] = []
        self.mines: list[tuple[np.ndarray, np.ndarray, tuple]] = []


class Tracer:
    """Spans kept in memory plus per-step graph and mining counts."""

    def __init__(self):
        self.phase = "setup"
        # [phase, name, parent index, start, end]
        self.spans: list[list] = []
        self.steps: list[dict] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self._cur: _StepCapture | None = None
        self._counted: _StepCapture | None = None

    # -- spans -----------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        span = [self.phase, name, self._open[-1] if self._open else -1, 0.0, 0.0]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._open.pop()

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _meta_step(self, fn):
        def body(state, batches):
            # An untraced step frees its graph before meta_step returns; the
            # traced one keeps it for end_step, so free it here, in the next
            # step's span, to keep the cost inside step and span times.
            self._counted = None
            return fn(state, batches)

        def meta_step(state, batches):
            self._cur = _StepCapture(state)
            return self._call("engine.meta_step", body, (state, batches), {})
        return meta_step

    def _grad(self, fn):
        """Names each call inner, outer or metric by whose params it gets
        and, for (psi, theta), by call order within the step."""
        def grad(scalar, params):
            cur = self._cur
            if cur is None:
                kind = "other"
            elif {p.id for p in params} <= cur.phi_ids:
                kind = "metric"
            else:
                cur.param_grads += 1
                kind = "inner" if cur.episodic and cur.param_grads == 1 else "outer"
            result = self._call(f"autodiff.grad.{kind}", fn, (scalar, params), {})
            if cur is not None:
                cur.grads.append((kind, scalar, result))
            return result
        return grad

    def _mine(self, fn):
        def mine_semihard_triplets(embedding_values, labels):
            result = self._call("losses.mine_semihard_triplets", fn,
                                (embedding_values, labels), {})
            if self._cur is not None:
                self._cur.mines.append((embedding_values, np.asarray(labels), result))
            return result
        return mine_semihard_triplets

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        try:
            for module, attr, _ in SPANNED:
                self._patch(module, attr, self._spanned(
                    f"{_layer(module)}.{attr}", getattr(module, attr)))
            self._patch(engine, "meta_step", self._meta_step(engine.meta_step))
            self._patch(ad, "grad", self._grad(ad.grad))
            self._patch(losses, "mine_semihard_triplets",
                        self._mine(losses.mine_semihard_triplets))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    # -- per-step counts -------------------------------------------------

    def end_step(self, record=None) -> None:
        """Count the graph and the mined triplets of the step just finished."""
        cur, self._cur = self._cur, None
        if cur is None:
            raise RuntimeError("end_step without a traced meta step")
        self._counted = cur
        counts: Counter = Counter()
        union: dict = {}
        for kind, root, result in cur.grads:
            base = _reach([root])
            built = _reach(result.grads, stop=base)
            counts[f"autodiff.nodes.grad.{kind}"] += len(built)
            if kind == "outer":
                counts["autodiff.nodes.objective"] += len(base)
            union.update(base)
            union.update(built)
        for node in union.values():
            counts[f"autodiff.nodes.op.{node.op}"] += 1
        counts["value_bytes"] = sum(n.value.nbytes for n in union.values())
        for emb, labels, (a, p, n) in cur.mines:
            diff = emb[:, None, :] - emb[None, :, :]
            dist = np.sqrt((diff * diff).sum(-1))  # same rule as the miner
            d2_ap = ((emb[a] - emb[p]) ** 2).sum(axis=1)
            d2_an = ((emb[a] - emb[n]) ** 2).sum(axis=1)
            counts["triplets"] += int(a.size)
            counts["semihard"] += int(np.count_nonzero(dist[a, n] > dist[a, p]))
            counts["active"] += int(np.count_nonzero(d2_ap - d2_an + cur.margin > 0))
        self.steps.append(dict(counts))

    # -- aggregation -----------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name, over the calls in its reported phase:
        (calls, inclusive s, self s).

        Self time is the span's duration minus that of its direct children.
        """
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (phase, name, _, start, end) in enumerate(self.spans):
            if phase != REPORTED_PHASE.get(name, "train"):
                continue
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + end - start, own + end - start - child[i])
        return out


def layer_metrics(tracers: list[Tracer], per_phase: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics pooled over traced runs.

    ``per_phase`` gives the divisor of each phase: traced steps, set-ups and
    diagnostics passes. A span that never ran in its reported phase is absent.
    """
    totals: Counter = Counter()
    for tracer in tracers:
        for name, (calls, incl, own) in tracer.span_totals().items():
            totals[name, "calls"] += calls
            totals[name, "ms"] += 1e3 * incl
            totals[name, "self_ms"] += 1e3 * own
    out: dict[str, float] = {
        f"{name}.{kind}": value / per_phase[REPORTED_PHASE.get(name, "train")]
        for (name, kind), value in totals.items()}

    counts: Counter = Counter()
    steps = 0
    for tracer in tracers:
        for step in tracer.steps:
            counts.update(step)
            steps += 1
    for key, value in counts.items():
        if key.startswith("autodiff.nodes."):
            out[key] = value / steps
    out["autodiff.value_mb"] = counts["value_bytes"] / steps / 2**20
    out["losses.triplets"] = counts["triplets"] / steps
    mined = counts["triplets"]
    out["losses.semihard_frac"] = counts["semihard"] / mined if mined else 0.0
    out["losses.active_triplet_frac"] = counts["active"] / mined if mined else 0.0
    return out
