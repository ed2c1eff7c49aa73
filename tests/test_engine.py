import re
from dataclasses import replace

import numpy as np
import pytest

from masf import autodiff as ad
from masf import bench, engine, keys, losses, nets

ARCH = nets.Architecture(input_dim=8, num_classes=3,
                         feature_widths=(10, 6), metric_widths=(8, 4))


def small_datasets(n_domains=3, n=60, seed=11):
    return bench.canonical_datasets({
        "num_domains": n_domains, "n_samples": n, "num_classes": 3,
        "input_dim": 8, "rotations_deg": [30.0 * k for k in range(n_domains)],
        "scales": [1.0] * n_domains, "shifts": [0.0] * n_domains,
        "base_seed": seed})


def small_hp(**kw):
    defaults = dict(alpha=0.05, eta=0.05, gamma=0.05, beta2=0.005,
                    batch_size=12, decay_every=10)
    defaults.update(kw)
    return engine.Hyperparams(**defaults)


class TestHyperparams:
    def test_defaults_valid(self):
        engine.Hyperparams().validate(num_classes=5)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            engine.Hyperparams(alpha=-1.0).validate(num_classes=5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            engine.Hyperparams(beta2=-0.1).validate(num_classes=5)

    def test_unknown_local_loss_rejected(self):
        with pytest.raises(ValueError):
            engine.Hyperparams(local_loss_kind="cosine").validate(num_classes=5)

    def test_batch_too_small_for_classes(self):
        with pytest.raises(ValueError):
            engine.Hyperparams(batch_size=5).validate(num_classes=3)

    @pytest.mark.parametrize("key, value", [("alpha", "0.05"), ("decay_every", "100")])
    def test_numeric_string_rejected(self, key, value):
        # the CLI reads "1e-5" as a number; the dataclass takes numbers only
        with pytest.raises(ValueError, match=f"^{key} must be a number, not the "
                           f"string '{value}'$"):
            engine.Hyperparams(**{key: value}).validate(num_classes=5)

    @pytest.mark.parametrize("every", [0, -1])
    def test_nonpositive_decay_every_rejected(self, every):
        with pytest.raises(ValueError, match="decay_every"):
            engine.Hyperparams(decay_every=every).validate(num_classes=5)

    @pytest.mark.parametrize("key", ["clip_threshold", "tau"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_clip_threshold_and_tau_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            engine.Hyperparams(**{key: value}).validate(num_classes=5)

    @pytest.mark.parametrize("key, value, message", [
        ("alpha", -1.0, "alpha must be positive, got -1.0"),
        ("eta", 0.0, "eta must be positive, got 0.0"),
        ("gamma", -2.0, "gamma must be positive, got -2.0"),
        ("beta1", -1.0, "beta1 must be non-negative, got -1.0"),
        ("beta2", -0.5, "beta2 must be non-negative, got -0.5"),
        ("tau", -1.0, "tau must be positive, got -1.0"),
        ("clip_threshold", 0.0, "clip_threshold must be positive, got 0.0"),
        ("xi", -1.0, "xi must be non-negative, got -1.0"),
        ("decay_every", 0, "decay_every must be >= 1, got 0"),
        ("decay_rate", 1.5, "decay_rate must be in [0, 1), got 1.5"),
        ("batch_size", 4, "batch_size must be at least 2 * num_classes = 10, got 4"),
        ("local_loss_kind", "Triplet", "unknown local_loss_kind 'Triplet'")])
    def test_message_names_key_and_value(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            engine.Hyperparams(**{key: value}).validate(num_classes=5)

    @pytest.mark.parametrize("key, value", [
        ("alpha", np.nan), ("beta2", np.nan), ("beta1", np.inf),
        ("tau", np.inf), ("clip_threshold", np.inf), ("xi", -np.inf),
        ("decay_rate", np.nan)])
    def test_non_finite_float_rejected_by_make_state(self, key, value):
        # beta2=nan would skip the local loss: nan > 0 is False
        hp = small_hp(**{key: value})
        with pytest.raises(ValueError, match=f"config key '{key}' expects a finite number"):
            engine.make_state(ARCH, hp, 0)


class TestSplitDomains:
    def test_partition(self):
        rng = np.random.default_rng(0)
        for ids, n_te in [([0, 1, 2], 1), ([0, 1, 2], 2), ([3, 5, 7, 9], 1)]:
            for _ in range(50):
                tr, te = engine.split_domains(ids, n_te, rng)
                assert sorted(tr + te) == ids
                assert len(tr) == len(ids) - n_te and len(te) == n_te

    def test_every_domain_eventually_held_out(self):
        rng = np.random.default_rng(1)
        held = {engine.split_domains([0, 1, 2], 1, rng)[1][0]
                for _ in range(100)}
        assert held == {0, 1, 2}

    def test_bad_sizes(self):
        # meta-test needs a domain, and meta-train the ones it leaves
        rng = np.random.default_rng(0)
        for ids, n_te in [([0, 1, 2], 0), ([0, 1, 2], 3), ([0], 1), ([0], 0)]:
            with pytest.raises(ValueError, match=f"^n_meta_test .* got {n_te}$"):
                engine.split_domains(ids, n_te, rng)
        assert rng.random() == np.random.default_rng(0).random()  # no draw


class TestDecayedLr:
    def test_no_decay_before_first_boundary(self):
        assert engine.decayed_lr(1e-3, 999, 0.02, 1000) == 1e-3

    def test_one_step(self):
        assert engine.decayed_lr(1e-3, 1000, 0.02, 1000) == pytest.approx(
            1e-3 * 0.98, abs=1e-18)

    def test_compounds(self):
        assert engine.decayed_lr(0.1, 35, 0.02, 10) == pytest.approx(
            0.1 * 0.98 ** 3, abs=1e-15)


class TestInnerUpdate:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        psi, theta, _ = nets.init_params(ARCH, seed)
        psi = psi.replace([ad.leaf(t.value + rng.normal(0, 0.3, t.shape))
                           for t in psi.tensors])
        batches = [(rng.normal(size=(9, 8)), rng.integers(0, 3, size=9))
                   for _ in range(2)]
        return psi, theta, batches

    def test_reduces_task_loss(self):
        psi, theta, batches = self._setup()
        before = float(engine._mean_task_loss(psi, theta, batches).value)
        psi2, theta2 = engine.inner_update(psi, theta, batches, 0.1, 2.0)
        after = float(engine._mean_task_loss(psi2, theta2, batches).value)
        assert after < before

    def test_differentiable_wrt_originals(self):
        psi, theta, batches = self._setup(1)
        psi2, theta2 = engine.inner_update(psi, theta, batches, 0.1, 2.0)
        outer = engine._mean_task_loss(psi2, theta2, batches)
        gm = ad.grad(outer, psi.tensors + theta.tensors)
        assert any(np.abs(g.value).max() > 0 for g in gm.grads)
        assert ad.finite_diff_check(outer, psi.tensors + theta.tensors) < 1e-4

    def test_nonfinite_loss_raises(self):
        psi, theta, batches = self._setup(2)
        bad = [(np.full((6, 8), np.inf), np.zeros(6, dtype=int))]
        # the first matmul turns the inf features into NaN, and numpy warns
        with pytest.warns(RuntimeWarning, match="invalid value"), \
                pytest.raises(engine.NonFiniteLossError):
            engine.inner_update(psi, theta, bad, 0.1, 2.0)

    def test_nonfinite_grad_norm_raises(self):
        # a huge output layer keeps the task loss finite, but psi's inner
        # gradient, scaled by it, squares past the largest float
        psi, theta, batches = self._setup(3)
        tensors = list(theta.tensors)
        tensors[-2] = ad.leaf(tensors[-2].value * 1e160)
        theta = theta.replace(tensors)
        with pytest.raises(engine.NonFiniteLossError,
                           match="^inner gradient norm is non-finite: inf$"):
            engine.inner_update(psi, theta, batches, 0.1, 2.0)


class TestMetaStep:
    def _state(self, seed=0, **hp_kw):
        return engine.make_state(ARCH, small_hp(**hp_kw), seed)

    def _batches(self, datasets, state):
        return engine.draw_batches(datasets, state.hp.batch_size,
                                   state.data_rng)

    def test_updates_all_three_nets(self):
        ds = small_datasets()
        state = self._state()
        new, _ = engine.meta_step(state, self._batches(ds, state))
        for old_p, new_p in [(state.psi, new.psi), (state.theta, new.theta),
                             (state.phi, new.phi)]:
            changed = any(np.abs(a.value - b.value).max() > 0
                          for a, b in zip(old_p.tensors, new_p.tensors))
            assert changed

    def test_nonfinite_inner_grad_norm_raises(self):
        # a huge output layer keeps the task loss finite, but psi's inner
        # gradient, scaled by it, squares past the largest float
        ds = small_datasets()
        state = self._state()
        theta = list(state.theta.tensors)
        theta[-2] = ad.leaf(theta[-2].value * 1e160)
        state = replace(state, theta=state.theta.replace(theta))
        with pytest.raises(
                engine.NonFiniteLossError,
                match="^inner gradient norm is non-finite at iteration 0: inf$"):
            engine.meta_step(state, self._batches(ds, state))

    def test_nonfinite_outer_grad_norm_raises(self):
        # every loss stays finite at tau = 1e-300, but the outer gradient,
        # which divides by tau, does not
        ds = small_datasets()
        state = self._state(tau=1e-300)
        with pytest.raises(
                engine.NonFiniteLossError,
                match="^outer gradient norm is non-finite at iteration 0: inf$"):
            engine.meta_step(state, self._batches(ds, state))

    def test_phi_frozen_without_local_loss(self):
        ds = small_datasets()
        state = self._state(use_local=False)
        new, _ = engine.meta_step(state, self._batches(ds, state))
        for a, b in zip(state.phi.tensors, new.phi.tensors):
            np.testing.assert_array_equal(a.value, b.value)

    def test_one_feature_forward_serves_both_meta_losses(self, monkeypatch):
        ds = small_datasets()
        state = self._state()
        forwards, read = [], {}
        feature_forward, metric_forward = nets.feature_forward, nets.metric_forward
        global_alignment_loss = losses.global_alignment_loss

        def record_forward(psi, x):
            forwards.append((psi, feature_forward(psi, x)))
            return forwards[-1][1]

        def record_local(phi, z):
            read["local"] = z
            return metric_forward(phi, z)

        def record_global(*args, z=None):
            read["global"] = z
            return global_alignment_loss(*args, z=z)

        monkeypatch.setattr(nets, "feature_forward", record_forward)
        monkeypatch.setattr(nets, "metric_forward", record_local)
        monkeypatch.setattr(losses, "global_alignment_loss", record_global)
        engine.meta_step(state, self._batches(ds, state))
        # the task loss at psi, then one forward at the inner-updated psi'
        assert len(forwards) == 2
        (psi, _), (psi2, z) = forwards
        assert psi is state.psi
        assert not any(t.op == "leaf" for t in psi2.tensors)
        assert read["global"] is z and read["local"] is z

    def test_metrics_record_fields(self):
        ds = small_datasets()
        state = self._state()
        _, rec = engine.meta_step(state, self._batches(ds, state))
        assert rec.iteration == 0
        assert np.isfinite(rec.task_loss)
        assert rec.global_loss > 0 and rec.local_loss >= 0
        assert rec.outer_lr == state.hp.eta
        assert rec.inner_grad_norm > 0 and rec.outer_grad_norm > 0

    def test_meta_losses_zero_when_disabled(self):
        ds = small_datasets()
        state = self._state(use_global=False, use_local=False)
        _, rec = engine.meta_step(state, self._batches(ds, state))
        assert rec.global_loss == 0.0 and rec.local_loss == 0.0
        assert rec.inner_grad_norm > 0  # still episodic

    def test_deterministic(self):
        ds = small_datasets()
        finals = []
        for _ in range(2):
            state = engine.train(self._state(seed=3), ds, 5)
            finals.append(np.concatenate(
                [t.value.ravel() for t in state.psi.tensors]))
        assert finals[0].tobytes() == finals[1].tobytes()

    def test_seed_matters(self):
        ds = small_datasets()
        a = engine.train(self._state(seed=3), ds, 3)
        b = engine.train(self._state(seed=4), ds, 3)
        assert not np.array_equal(a.psi.tensors[0].value,
                                  b.psi.tensors[0].value)

    def test_data_stream_identical_across_ablation_rows(self):
        # ablation flags must never touch the data RNG
        ds = small_datasets()
        states = {}
        for flags in [(True, True, True), (False, False, False)]:
            e, g, l = flags
            state = engine.make_state(
                ARCH, small_hp(episodic=e, use_global=g, use_local=l), 7)
            state = engine.train(state, ds, 4)
            states[flags] = state.data_rng.bit_generator.state
        assert states[(True, True, True)] == states[(False, False, False)]

    def test_nonfinite_features_raise(self):
        ds = small_datasets()
        state = self._state()
        batches = self._batches(ds, state)
        x, y = batches[0]
        batches[0] = (np.full_like(x, np.nan), y)
        with pytest.raises(engine.NonFiniteLossError):
            engine.meta_step(state, batches)

    def test_contrastive_kind_runs(self):
        ds = small_datasets()
        state = self._state(local_loss_kind=engine.CONTRASTIVE)
        _, rec = engine.meta_step(state, self._batches(ds, state))
        assert np.isfinite(rec.local_loss)

    def test_class_count_read_from_output_layer(self):
        # a two-layer task net, w0 [6, 3] and w1 [3, 5], has five classes
        arch = replace(ARCH, num_classes=5)
        ds = bench.canonical_datasets({
            "num_domains": 3, "n_samples": 60, "num_classes": 5,
            "input_dim": 8, "rotations_deg": [0.0, 30.0, 60.0],
            "scales": [1.0] * 3, "shifts": [0.0] * 3})
        rng = np.random.default_rng(0)
        theta = nets.ParamSet(nets.TASK_NET, tuple(
            ad.leaf(rng.normal(0.0, 0.5, shape))
            for shape in [(6, 3), (3,), (3, 5), (5,)]))
        state = replace(engine.make_state(arch, small_hp(), 0), theta=theta)
        state = engine.train(state, ds, 2)
        assert [t.shape for t in state.theta.tensors] == [(6, 3), (3,), (3, 5), (5,)]

    def test_train_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            engine.train(self._state(), small_datasets(), 0)

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_train_names_the_iteration_count_as_the_config_does(self, iterations):
        message = f"iterations must be >= 1, got {iterations}"
        with pytest.raises(ValueError, match=message):
            keys.read("iterations", iterations)
        with pytest.raises(ValueError, match=message):
            engine.train(self._state(), small_datasets(), iterations)


class TestDegeneracy:
    """With the episodic step and both meta losses disabled, training must be
    bit-for-bit plain pooled supervised learning (written out independently
    below with raw graph ops)."""

    def _oracle(self, datasets, hp, seed, iterations):
        psi, theta, _ = nets.init_params(ARCH, seed)
        seqs = np.random.SeedSequence(seed).spawn(2)
        data_rng = np.random.default_rng(seqs[0])
        algo_rng = np.random.default_rng(seqs[1])
        ids = sorted(datasets)
        for t in range(iterations):
            batches = [bench.sample_batch(datasets[k], hp.batch_size, True,
                                          data_rng) for k in ids]
            algo_rng.permutation(len(ids))  # split draw happens regardless

            per_domain = []
            for b in batches:
                h = ad.const(b.features)
                for w, bias in zip(psi.tensors[0::2], psi.tensors[1::2]):
                    h = ad.relu(ad.add(ad.matmul(h, w), bias))
                logits = ad.add(ad.matmul(h, theta.tensors[0]),
                                theta.tensors[1])
                nll = ad.neg(ad.gather_rows(ad.log_softmax(logits), b.labels))
                per_domain.append(ad.mean(nll))
            loss = per_domain[0]
            for term in per_domain[1:]:
                loss = ad.add(loss, term)
            loss = ad.mul(ad.const(1.0 / len(per_domain)), loss)

            params = psi.tensors + theta.tensors
            grads = [g.value for g in ad.grad(loss, params).grads]
            norm = np.sqrt(sum((g ** 2).sum() for g in grads))
            if norm > hp.clip_threshold:
                grads = [g * (hp.clip_threshold / norm) for g in grads]
            lr = hp.eta * (1.0 - hp.decay_rate) ** (t // hp.decay_every)
            stepped = [ad.leaf(p.value - lr * g)
                       for p, g in zip(params, grads)]
            psi = psi.replace(stepped[:len(psi.tensors)])
            theta = theta.replace(stepped[len(psi.tensors):])
        return psi, theta

    def test_matches_plain_supervised_training(self):
        ds = small_datasets()
        hp = small_hp(episodic=False, use_global=False, use_local=False)
        seed, iters = 5, 100
        state = engine.train(engine.make_state(ARCH, hp, seed), ds, iters)
        psi_ref, theta_ref = self._oracle(ds, hp, seed, iters)
        for got, want in zip(state.psi.tensors + state.theta.tensors,
                             psi_ref.tensors + theta_ref.tensors):
            np.testing.assert_allclose(got.value, want.value, atol=1e-12)
