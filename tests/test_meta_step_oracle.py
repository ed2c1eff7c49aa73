"""Algorithm 1 rebuilt from the public API, as an oracle for ``meta_step``.

The paper's update for one episode with meta-train domains D_tr and
meta-test domains D_te is

    (psi', theta') = (psi, theta) - alpha * clip(grad L_task(D_tr))
    F = L_task(D_tr) + beta1 * L_global(D_tr, D_te; psi', theta')
                     + beta2 * L_local(phi; psi')
    (psi, theta) <- (psi, theta) - eta_t * clip(grad F)
    phi <- phi - gamma * grad_phi L_local

where eta_t decays step-wise and clip scales a gradient to global norm at
most the threshold. Without the episodic split, L_task reads every source
domain, psi' = psi, and the global loss aligns every unordered domain pair.

The rebuild takes none of ``meta_step``'s fast paths: the task loss is the
mean of the per-domain losses, the global loss runs its own feature forward
and the local loss another, and every gradient is taken in graph mode. The
split (and the contrastive pairing) is replayed from a copy of the step's
algorithmic generator.
"""

import copy
import itertools

import numpy as np
import pytest

from masf import autodiff as ad
from masf import bench, engine, harness, losses, nets

# No source row has all-zero features at psi' on the first step at these
# seeds. Such a row's metric output is b1, still 0, and its L2 normalisation
# has derivative 1 / EPS there, which magnifies rounding far past RTOL.
ARCH = nets.Architecture(input_dim=4, num_classes=3,
                         feature_widths=(6, 6), metric_widths=(5, 3))
RTOL = 1e-12


def datasets():
    return bench.canonical_datasets({
        "num_domains": 3, "n_samples": 45, "num_classes": 3, "input_dim": 4,
        "rotations_deg": [0.0, 40.0, 80.0], "scales": [1.0, 1.3, 0.8],
        "shifts": [0.0, 0.5, -0.5], "base_seed": 2})


def hyperparams(flags=(True, True, True), **kw):
    episodic, use_global, use_local = flags
    values = dict(alpha=0.3, eta=0.1, gamma=0.2, beta1=1.0, beta2=0.5,
                  batch_size=6, decay_every=1000, episodic=episodic,
                  use_global=use_global, use_local=use_local)
    values.update(kw)
    return engine.Hyperparams(**values)


def _clip(grads, threshold):
    """The gradients scaled to global norm at most ``threshold``; the scale
    stays a graph, so it is differentiated through. Division adds the
    library's epsilon to the norm, as every ``ad.div`` does."""
    total = ad.reduce_sum(ad.square(grads[0]))
    for g in grads[1:]:
        total = ad.add(total, ad.reduce_sum(ad.square(g)))
    norm = ad.sqrt(total)
    if float(norm.value) <= threshold:
        return grads, float(norm.value)
    scale = ad.div(ad.const(threshold), norm)
    return [ad.mul(g, scale) for g in grads], float(norm.value)


def reference_step(state, batches):
    """The update of one episode and its loss terms, by Algorithm 1."""
    hp = state.hp
    rng = copy.deepcopy(state.algo_rng)
    ids = sorted(batches)
    perm = rng.permutation(len(ids))
    n_tr = len(ids) - hp.n_meta_test
    d_tr = [ids[i] for i in perm[:n_tr]]
    d_te = [ids[i] for i in perm[n_tr:]]
    psi, theta, phi = state.psi, state.theta, state.phi
    params = psi.tensors + theta.tensors
    n_psi = len(psi.tensors)

    def task_loss(psi_, theta_, domains):
        terms = [losses.task_loss(nets.task_forward(
            theta_, nets.feature_forward(psi_, ad.const(batches[k][0]))),
            batches[k][1]) for k in domains]
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return ad.mul(total, ad.const(1.0 / len(terms)))

    l_task = task_loss(psi, theta, d_tr if hp.episodic else ids)
    inner_norm = 0.0
    psi2, theta2 = psi, theta
    if hp.episodic:
        grads, inner_norm = _clip(ad.grad(l_task, params).grads,
                                  hp.clip_threshold)
        stepped = [ad.sub(p, ad.mul(ad.const(hp.alpha), g))
                   for p, g in zip(params, grads)]
        psi2 = psi.replace(stepped[:n_psi])
        theta2 = theta.replace(stepped[n_psi:])

    objective, l_global, l_local = l_task, None, None
    if hp.use_global and hp.beta1 > 0:
        pairs = (itertools.product(d_tr, d_te) if hp.episodic
                 else itertools.combinations(ids, 2))
        l_global = losses.global_alignment_loss(
            batches, pairs, psi2, theta2, hp.tau, ARCH.num_classes)
        objective = ad.add(objective, ad.mul(ad.const(hp.beta1), l_global))
    if hp.use_local and hp.beta2 > 0:
        x = np.concatenate([batches[k][0] for k in ids])
        labels = np.concatenate([batches[k][1] for k in ids])
        e = nets.metric_forward(phi, nets.feature_forward(psi2, ad.const(x)))
        l_local = (losses.contrastive_loss(e, labels, hp.xi, rng)
                   if hp.local_loss_kind == engine.CONTRASTIVE
                   else losses.triplet_loss_semihard(e, labels, hp.xi))
        objective = ad.add(objective, ad.mul(ad.const(hp.beta2), l_local))

    grads, outer_norm = _clip(ad.grad(objective, params).grads,
                              hp.clip_threshold)
    lr = hp.eta * (1.0 - hp.decay_rate) ** (state.t // hp.decay_every)
    new = [p.value - lr * g.value for p, g in zip(params, grads)]
    new_phi = [p.value for p in phi.tensors]
    if l_local is not None:
        phi_grads = ad.grad(l_local, phi.tensors).grads
        new_phi = [p.value - hp.gamma * g.value
                   for p, g in zip(phi.tensors, phi_grads)]
    terms = {"task_loss": l_task, "global_loss": l_global,
             "local_loss": l_local}
    return dict(psi=new[:n_psi], theta=new[n_psi:], phi=new_phi,
                objective=objective, lr=lr, inner_norm=inner_norm,
                outer_norm=outer_norm,
                **{k: 0.0 if v is None else float(v.value)
                   for k, v in terms.items()})


def assert_steps_match(before, after, ref):
    """Each tensor's step, new - old, within RTOL of the reference step's
    largest entry; a tensor the reference leaves alone stays bit-equal."""
    for name in ("psi", "theta", "phi"):
        old = [t.value for t in getattr(before, name).tensors]
        got = [t.value for t in getattr(after, name).tensors]
        for o, g, w in zip(old, got, ref[name]):
            want = w - o
            if not want.any():
                np.testing.assert_array_equal(g, o)
                continue
            err = np.abs((g - o) - want).max() / np.abs(want).max()
            assert err <= RTOL, f"{name}: step off by {err:.2e} relative"


def check_step(state, data):
    """Run ``meta_step`` and the reference on one batch draw, compare them,
    and check the reference objective's gradient by finite differences."""
    batches = engine.draw_batches(data, state.hp.batch_size, state.data_rng)
    ref = reference_step(state, batches)
    new_state, record = engine.meta_step(state, batches)
    assert_steps_match(state, new_state, ref)
    assert record.outer_lr == ref["lr"]
    for key in ("task_loss", "global_loss", "local_loss", "inner_norm",
                "outer_norm"):
        got = getattr(record, key.replace("norm", "grad_norm"))
        assert got == pytest.approx(ref[key], rel=RTOL, abs=0.0)
    params = state.psi.tensors + state.theta.tensors
    assert ad.finite_diff_check(ref["objective"], params) < 1e-6
    return new_state, ref


@pytest.mark.parametrize("kind", [engine.TRIPLET, engine.CONTRASTIVE])
@pytest.mark.parametrize("flags", harness.ALL_ROWS,
                         ids=lambda f: "e{:d}g{:d}l{:d}".format(*f))
def test_meta_step_is_algorithm_1(flags, kind):
    data = datasets()
    state = engine.make_state(ARCH, hyperparams(flags, local_loss_kind=kind),
                              seed=9)
    for _ in range(2):
        state, _ = check_step(state, data)


# seed, hyperparameters, and whether (inner, outer) clip at the first step
CLIP_CASES = {
    "inner": (14, dict(clip_threshold=2.3), (True, False)),
    "outer": (1, dict(clip_threshold=2.0), (False, True)),
    "both": (0, dict(clip_threshold=2.0), (True, True)),
}


@pytest.mark.parametrize("kind", [engine.TRIPLET, engine.CONTRASTIVE])
@pytest.mark.parametrize("case", sorted(CLIP_CASES))
def test_meta_step_is_algorithm_1_when_clipping(case, kind):
    seed, hp_kw, fired = CLIP_CASES[case]
    state = engine.make_state(
        ARCH, hyperparams(local_loss_kind=kind, **hp_kw), seed)
    _, ref = check_step(state, datasets())
    threshold = state.hp.clip_threshold
    assert (ref["inner_norm"] > threshold, ref["outer_norm"] > threshold) == fired


def test_meta_step_is_algorithm_1_across_a_decay_boundary():
    data = datasets()
    state = engine.make_state(
        ARCH, hyperparams(decay_every=2, decay_rate=0.5), seed=9)
    lrs = []
    for _ in range(3):
        state, ref = check_step(state, data)
        lrs.append(ref["lr"])
    assert lrs == [0.1, 0.1, 0.05]
