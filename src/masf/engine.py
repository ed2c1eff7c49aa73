"""Episodic training loop: domain split, inner update, meta losses, outer updates.

Each iteration splits the source domains into meta-train and meta-test,
takes one plain gradient step on the task loss (the inner update, kept
differentiable), evaluates the meta objective at the updated parameters,
and then updates the original parameters with the combined gradient. The
global and the local loss both read one feature forward, at the updated
parameters, of the source batches stacked in sorted domain-id order. The
metric net gets its own update from the local loss only. Nothing
differentiates those two gradients again, so their sweeps run in value mode.

The graph engine defines a step. The first step of a state in which neither
gradient clips is recorded as an ``ad.Plan``, and later steps of the same
shapes replay it on their own data, computing again every value derived from
it (split, stacks, indices, selectors, pair weights, masks, triplets, norms);
the learning rate, the descent and the record are computed outside the plan.
A replay that fails a guard (a clip, a non-finite value) or raises reruns on
the graph engine from ``algo_rng``'s state at step start.

A run draws from three generators: ``data_rng`` (batches), ``algo_rng``
(domain split, pair shuffling) and ``harness.prepare_run``'s split generator,
whose ``SeedSequence(run_seed, spawn_key=(1,))`` is ``algo_rng``'s, so the two
read the same bits (ROADMAP item 8). Ablation flags never touch the data
stream, so all ablation rows of one seed see identical data.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import math
from dataclasses import InitVar, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import bench, keys, losses, nets
from .autodiff import Expr, GradMap
from .nets import ParamSet

CONTRASTIVE, TRIPLET = keys.CONFIG["local_loss_kind"][1]  # the local losses


class NonFiniteLossError(RuntimeError):
    """A loss or a gradient norm went NaN/Inf; the iteration is aborted with
    diagnostics."""


@dataclass
class Hyperparams:
    """Training hyperparameters. The defaults are the canonical study's,
    calibrated for two small MLPs on 16-d inputs so that the full method
    beats the pooled baseline and each single-component row on the
    canonical four-domain benchmark; the paper's values (inner lr 1e-5,
    batch 128, local weight 0.005) were tuned for deep CNNs."""

    alpha: float = 0.05            # inner lr
    eta: float = 0.05              # outer lr for (psi, theta)
    gamma: float = 0.05            # metric-net lr
    beta1: float = 1.0             # global-loss weight
    beta2: float = 0.3             # local-loss weight
    tau: float = 2.0               # soft-label temperature
    xi: float = 1.0                # metric margin
    clip_threshold: float = 2.0
    decay_rate: float = 0.02
    decay_every: int = 100
    batch_size: int = 25           # per source domain
    n_meta_test: int = 1           # meta-train: every other source
    local_loss_kind: str = TRIPLET
    episodic: bool = True
    use_global: bool = True
    use_local: bool = True
    n_meta_train: InitVar[int | None] = None  # unread; test_acceptance passes it

    def validate(self, num_classes: int) -> None:
        """Check each field by its keys.CONFIG rule, and the batch size."""
        for f in fields(self):
            # keys.read takes YAML's exponent strings; a field holds the number
            if keys.read(f.name, value := getattr(self, f.name)) != value:
                raise ValueError(f"{f.name} must be a number, not the string {value!r}")
        if self.batch_size < 2 * num_classes:
            raise ValueError(f"batch_size must be at least 2 * num_classes = "
                             f"{2 * num_classes}, got {self.batch_size}")


@dataclass
class EpisodeState:
    """Everything the optimizer carries between iterations."""

    psi: ParamSet
    theta: ParamSet
    phi: ParamSet
    hp: Hyperparams
    data_rng: np.random.Generator
    algo_rng: np.random.Generator
    t: int = 0
    plan: ad.Plan | None = field(default=None, repr=False, compare=False)


def make_state(arch: nets.Architecture, hp: Hyperparams, seed: int) -> EpisodeState:
    hp.validate(arch.num_classes)
    psi, theta, phi = nets.init_params(arch, seed)
    seqs = np.random.SeedSequence(seed).spawn(2)
    return EpisodeState(psi, theta, phi, hp,
                        data_rng=np.random.default_rng(seqs[0]),
                        algo_rng=np.random.default_rng(seqs[1]))


@dataclass
class MetricsRecord:
    iteration: int
    task_loss: float
    global_loss: float
    local_loss: float
    outer_lr: float
    inner_grad_norm: float
    outer_grad_norm: float

    def row(self) -> list:
        return [getattr(self, f) for f in self.FIELDS]


MetricsRecord.FIELDS = tuple(f.name for f in fields(MetricsRecord))


def check_n_meta_test(n_te: int, n_sources: int) -> None:
    """An episode needs a meta-test and a meta-train source: 1 <= n_te < n_sources."""
    if not 1 <= n_te < n_sources:
        raise ValueError(f"n_meta_test must be at least 1 and less than the "
                         f"{n_sources} source domains, got {n_te}")


def split_domains(domain_ids, n_te: int,
                  rng: np.random.Generator) -> tuple[list, list]:
    """Uniformly random disjoint partition into meta-train and ``n_te``
    meta-test domains; meta-train is every domain meta-test leaves."""
    ids = list(domain_ids)
    check_n_meta_test(n_te, len(ids))
    n_tr = len(ids) - n_te
    perm = rng.permutation(len(ids))
    return [ids[i] for i in perm[:n_tr]], [ids[i] for i in perm[n_tr:]]


def decayed_lr(eta0: float, t: int, decay_rate: float, decay_every: int) -> float:
    """Step-wise exponential decay: eta0 * (1 - rate)^(t // every)."""
    return eta0 * (1.0 - decay_rate) ** (t // decay_every)


def _finite(node: Expr, name: str, iteration: int | None = None) -> float:
    """The value of a scalar node as a float; a NonFiniteLossError naming
    it if that float is NaN or infinite."""
    value = ad.host(float, node.value)
    if not ad.host(math.isfinite, value):
        at = "" if iteration is None else f" at iteration {iteration}"
        raise NonFiniteLossError(f"{name} is non-finite{at}: {value}")
    return value


def _stack(batches, keys=None) -> tuple[np.ndarray, np.ndarray]:
    """The features and the labels of ``batches[k]`` for each of ``keys``
    (all of a list by default), stacked in that order."""
    keys = range(len(batches)) if keys is None else keys
    return (np.concatenate([batches[k][0] for k in keys]),
            np.concatenate([batches[k][1] for k in keys]))


def _mean_task_loss(psi: ParamSet, theta: ParamSet, batches, keys=None) -> Expr:
    """Task loss of the rows ``_stack`` stacks: the mean of the per-domain
    losses, as ``draw_batches`` gives every domain the same number of rows."""
    x, labels = ad.host(_stack, batches, keys)
    logits = nets.task_forward(theta, nets.feature_forward(psi, ad.as_expr(x)))
    return losses.task_loss(logits, labels)


def _clipped_grads(loss: Expr, params, clip_threshold: float, name: str,
                   iteration: int | None = None) -> tuple[GradMap, float]:
    """The gradient of ``loss``, clipped to ``clip_threshold`` by its global
    norm, and that norm, checked finite before it scales anything."""
    grads = ad.grad(loss, params)
    norm = ad.global_norm(grads)
    checked = _finite(norm, f"{name} gradient norm", iteration)
    return ad.clip_by_norm(grads, clip_threshold, norm), checked


def inner_update(psi: ParamSet, theta: ParamSet, meta_train_batches,
                 alpha: float, clip_threshold: float) -> tuple[ParamSet, ParamSet]:
    """One plain gradient-descent step on the meta-train task loss.

    The returned parameter sets stay differentiable with respect to the
    originals, which is what enables second-order meta-gradients.
    """
    loss = _mean_task_loss(psi, theta, meta_train_batches)
    _finite(loss, "inner task loss")
    grads, _ = _clipped_grads(loss, psi.tensors + theta.tensors, clip_threshold, "inner")
    return nets.sgd_step(psi, grads, alpha), nets.sgd_step(theta, grads, alpha)


def _local_loss(z: Expr, labels: np.ndarray, phi: ParamSet, hp: Hyperparams,
                rng: np.random.Generator) -> Expr:
    e = nets.metric_forward(phi, z)
    if hp.local_loss_kind == CONTRASTIVE:
        return losses.contrastive_loss(e, labels, hp.xi, rng)
    return losses.triplet_loss_semihard(e, labels, hp.xi)


def _descend(pset: ParamSet, grads: list[np.ndarray], lr: float) -> ParamSet:
    """The next step's parameters: fresh leaves holding t - lr * grad."""
    return pset.replace([ad.leaf(t.value - lr * g)
                         for t, g in zip(pset.tensors, grads)])


def _cross(d_tr: list, d_te: list) -> list:
    return list(itertools.product(d_tr, d_te))


def _episode(state: EpisodeState, batches: dict) -> list:
    """One episode on the graph engine: the clipped outer gradient of psi
    and theta and the metric net's gradient, as arrays, then the record's
    losses and gradient norms. Every value derived from the data goes
    through ``ad.host``, so that a recording replays on other data."""
    hp = state.hp
    ids = sorted(batches)
    d_tr, d_te = ad.host(split_domains, ids, hp.n_meta_test, state.algo_rng)

    l_task = _mean_task_loss(state.psi, state.theta, batches,
                             d_tr if hp.episodic else ids)
    task = _finite(l_task, "task loss", state.t)

    use_global = hp.use_global and hp.beta1 > 0
    use_local = hp.use_local and hp.beta2 > 0
    meta = use_global or use_local  # a meta loss reads psi' and theta'
    inner_norm = 0.0
    psi2, theta2 = state.psi, state.theta
    if hp.episodic:
        # without a meta loss the inner step gives the record its norm only
        with contextlib.nullcontext() if meta else ad.values_only():
            grads, inner_norm = _clipped_grads(l_task, psi2.tensors + theta2.tensors,
                                               hp.clip_threshold, "inner", state.t)
    if hp.episodic and meta:
        psi2 = nets.sgd_step(psi2, grads, hp.alpha)
        theta2 = nets.sgd_step(theta2, grads, hp.alpha)

    if meta:
        # one F_psi' forward of every source batch, which both losses read
        x, labels = ad.host(_stack, batches, ids)
        z = nets.feature_forward(psi2, ad.as_expr(x))

    outer_obj, glob, local = l_task, 0.0, 0.0
    if use_global:
        # without the split, align over all unordered domain pairs
        pairs = (ad.host(_cross, d_tr, d_te) if hp.episodic
                 else list(itertools.combinations(ids, 2)))
        l_global = losses.global_alignment_loss(batches, pairs, psi2, theta2,
                                                hp.tau, theta2.out_width, z=z)
        glob = _finite(l_global, "global alignment loss", state.t)
        outer_obj = ad.add(outer_obj, ad.mul(ad.const(hp.beta1), l_global))
    if use_local:
        l_local = _local_loss(z, labels, state.phi, hp, state.algo_rng)
        local = _finite(l_local, "local clustering loss", state.t)
        outer_obj = ad.add(outer_obj, ad.mul(ad.const(hp.beta2), l_local))
    _finite(outer_obj, "meta objective", state.t)

    with ad.values_only():
        grads, outer_norm = _clipped_grads(
            outer_obj, state.psi.tensors + state.theta.tensors,
            hp.clip_threshold, "outer", state.t)
        out = [g.value for _, g in grads]
        if use_local:
            out += [g.value for _, g in ad.grad(l_local, state.phi.tensors)]
    return out + [task, glob, local, inner_norm, outer_norm]


def _replay(plan: ad.Plan, inputs: list, rng: np.random.Generator) -> list | None:
    """``_episode``'s result from ``plan``; None, with ``rng`` put back, if
    a guard fails or anything raises (a NumPy warning too, so a step that
    would warn reruns on the graph engine, which warns)."""
    saved = rng.bit_generator.state
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return plan.run(*inputs)
    except Exception:  # a guard failed, or the graph engine has a message
        rng.bit_generator.state = saved
        return None


def meta_step(state: EpisodeState, batches: dict) -> tuple[EpisodeState, MetricsRecord]:
    """One full episode. ``batches`` maps domain id -> (features, labels)
    arrays.

    The domain split is always drawn (even when episodic training is off) so
    the algorithmic RNG stream advances identically across ablation rows.
    A state's plan replays when the hyperparameters and the shapes match.
    """
    hp, plan = state.hp, state.plan
    params = [t.value for p in (state.psi, state.theta, state.phi) for t in p.tensors]
    inputs = [batches, state.algo_rng, *params]
    key = (hp, [(k, x.shape, x.dtype, y.shape, y.dtype) for k, (x, y) in batches.items()],
           [p.shape for p in params])
    found = None
    if plan is not None and plan.key == key:
        found = _replay(plan, inputs, state.algo_rng)
    if found is None:
        tape = ad.Tape(inputs) if plan is None else None
        with ad.recording(tape):
            found = _episode(state, batches)
        if tape is not None and max(found[-2:]) <= hp.clip_threshold:
            plan = tape.plan(found, (copy.copy(hp), *key[1:]))

    *grads, task, glob, local, inner_norm, outer_norm = found
    eta_t = decayed_lr(hp.eta, state.t, hp.decay_rate, hp.decay_every)
    n_psi = len(state.psi.tensors)
    n_pt = n_psi + len(state.theta.tensors)
    new_psi = _descend(state.psi, grads[:n_psi], eta_t)
    new_theta = _descend(state.theta, grads[n_psi:n_pt], eta_t)
    new_phi = state.phi
    if grads[n_pt:]:
        new_phi = _descend(state.phi, grads[n_pt:], hp.gamma)

    record = MetricsRecord(
        iteration=state.t,
        task_loss=task,
        global_loss=glob,
        local_loss=local,
        outer_lr=eta_t,
        inner_grad_norm=inner_norm,
        outer_grad_norm=outer_norm,
    )
    return EpisodeState(new_psi, new_theta, new_phi, hp, state.data_rng,
                        state.algo_rng, state.t + 1, plan), record


def draw_batches(datasets: dict, batch_size: int,
                 rng: np.random.Generator) -> dict:
    """One stratified batch per domain, in sorted domain-id order. It calls
    ``bench.sample_batch`` through the module attribute because the benchmark's
    tracer wraps that attribute, and tests/test_traced_spans.py checks its span."""
    out = {}
    for k in sorted(datasets):
        batch = bench.sample_batch(datasets[k], batch_size, True, rng)
        out[k] = (batch.features, batch.labels)
    return out


def train(state: EpisodeState, datasets: dict, iterations: int,
          metrics_sink=None) -> EpisodeState:
    """Run ``iterations`` meta steps, emitting one MetricsRecord per step.

    ``metrics_sink`` is a callable taking MetricsRecord (or None).
    On a non-finite loss the run aborts after flushing partial metrics.
    """
    for _ in range(keys.read("iterations", iterations)):
        batches = draw_batches(datasets, state.hp.batch_size, state.data_rng)
        state, record = meta_step(state, batches)
        if metrics_sink is not None:
            metrics_sink(record)
    return state
