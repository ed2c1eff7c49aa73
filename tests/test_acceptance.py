"""End-to-end acceptance gate.

Every test here pins one shipping criterion with an explicit tolerance or
runtime budget. The slow criteria (ablation ordering, trained-model
comparisons) share module-scoped fixtures so the whole file stays well
under its combined budget.
"""

import time

import numpy as np
import pytest

from masf import autodiff as ad
from masf import bench, engine, harness, losses, nets
from masf.harness import CORE_ROWS, canonical_experiment_config, run_single

TARGET = 3  # held-out domain for the trained-model criteria (90-degree shift)


@pytest.fixture(scope="module")
def datasets():
    return bench.canonical_datasets()


@pytest.fixture(scope="module")
def config():
    return canonical_experiment_config()


@pytest.fixture(scope="module")
def trained_runs(config, datasets):
    """Full method and pooled baseline, trained per seed on one fixed split."""
    runs = {}
    for seed in config.seeds:
        per_seed = {}
        for name, flags in [("baseline", (False, False, False)),
                            ("full", (True, True, True))]:
            acc, state, _, holdout = run_single(
                config, flags, TARGET, seed, datasets, return_state=True)
            per_seed[name] = (acc, state, holdout)
        runs[seed] = per_seed
    return runs


def _generic_point(pset, rng, scale=0.3):
    """Perturb away from the zero-bias init (which sits on relu kinks)."""
    return pset.replace([ad.leaf(t.value + rng.normal(0, scale, t.shape))
                         for t in pset.tensors])


def _random_nets(seed):
    arch = nets.Architecture(input_dim=16, num_classes=5,
                             feature_widths=(12, 8), metric_widths=(8, 4))
    rng = np.random.default_rng(seed)
    psi, theta, phi = nets.init_params(arch, seed)
    return (_generic_point(psi, rng), _generic_point(theta, rng),
            _generic_point(phi, rng))


def _batches(datasets, rng, n=15):
    out = {}
    for k in sorted(datasets):
        b = bench.sample_batch(datasets[k], n, True, rng)
        out[k] = (b.features, b.labels)
    return out


class TestGradientCorrectness:
    """All losses pass finite differences at <= 1e-5 on random two-layer
    nets; the full second-order meta-gradient passes at <= 1e-4; < 60 s."""

    def test_all_losses_and_meta_gradient(self, datasets):
        t0 = time.monotonic()
        psi, theta, phi = _random_nets(0)
        rng = np.random.default_rng(0)
        batches = _batches(datasets, rng)
        b0, b1, b2 = (batches[k] for k in (0, 1, 2))

        logits = nets.task_forward(theta, nets.feature_forward(psi, ad.const(b0[0])))
        l_task = losses.task_loss(logits, b0[1])
        assert ad.finite_diff_check(l_task, psi.tensors + theta.tensors) <= 1e-5

        pairs = [(0, 2), (1, 2)]
        l_glob = losses.global_alignment_loss(batches, pairs, psi, theta, 2.0, 5)
        assert ad.finite_diff_check(l_glob, psi.tensors + theta.tensors) <= 1e-5

        emb = nets.metric_forward(phi, nets.feature_forward(psi, ad.const(b0[0])))
        l_con = losses.contrastive_loss(emb, b0[1], 1.0, np.random.default_rng(1))
        assert ad.finite_diff_check(l_con, psi.tensors + phi.tensors) <= 1e-5

        l_tri = losses.triplet_loss_semihard(emb, b0[1], 1.0)
        assert ad.finite_diff_check(l_tri, psi.tensors + phi.tensors) <= 1e-5

        # second order: meta objective evaluated at the inner-updated params,
        # differentiated with respect to the ORIGINAL parameters
        psi2, theta2 = engine.inner_update(psi, theta, [b0, b1], 0.05, 2.0)
        l_meta = ad.add(
            losses.global_alignment_loss(batches, pairs, psi2, theta2, 2.0, 5),
            ad.mul(ad.const(0.3), losses.triplet_loss_semihard(
                nets.metric_forward(phi, nets.feature_forward(
                    psi2, ad.const(np.concatenate([b0[0], b1[0]])))),
                np.concatenate([b0[1], b1[1]]), 1.0)))
        err = ad.finite_diff_check(l_meta, psi.tensors + theta.tensors)
        assert err <= 1e-4, f"meta-gradient fd error {err}"

        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"gradient suite took {elapsed:.1f}s"


class TestLossOracles:
    """Hand-computable reference values; KL case checked against an
    independent brute-force computation."""

    def test_symm_kl_reference(self):
        p, q = [0.5, 0.5], [0.75, 0.25]
        brute = 0.5 * (sum(a * np.log(a / b) for a, b in zip(p, q))
                       + sum(b * np.log(b / a) for a, b in zip(p, q)))
        got = float(losses.symm_kl(ad.leaf(p), ad.leaf(q)).value)
        assert got == pytest.approx(brute, abs=1e-9)
        assert got == pytest.approx(0.13733, abs=1e-4)

    def test_contrastive_hand_cases(self):
        # same class at distance 0 -> 0
        e = ad.leaf([[1.0, 0.0], [1.0, 0.0]])
        assert float(losses.contrastive_loss_on_pairs(
            e, [1, 1], [0], [1], 1.0).value) == pytest.approx(0.0, abs=1e-12)
        # different class at distance >= margin -> 0
        e = ad.leaf([[1.0, 0.0], [-1.0, 0.0]])
        assert float(losses.contrastive_loss_on_pairs(
            e, [0, 1], [0], [1], 1.0).value) == pytest.approx(0.0, abs=1e-12)
        # different class, d = 0.5, margin 1 -> (1 - 0.5)^2 = 0.25
        e = ad.leaf([[0.5, 0.0], [0.0, 0.0]])
        assert float(losses.contrastive_loss_on_pairs(
            e, [0, 1], [0], [1], 1.0).value) == pytest.approx(0.25, abs=1e-12)

    def test_triplet_hand_cases(self):
        # d(a,p)=0, d(a,n)=2, margin 1 -> 0
        e = ad.leaf([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        assert float(losses.triplet_loss_semihard(
            e, [0, 0, 1], 1.0).value) == pytest.approx(0.0, abs=1e-12)
        # all three coincide -> margin
        e = ad.leaf([[0.3, 0.4]] * 3)
        assert float(losses.triplet_loss_semihard(
            e, [0, 0, 1], 1.0).value) == pytest.approx(1.0, abs=1e-12)
        # equilateral triangle: d(a,p) = d(a,n) = 1, margin 0.5 -> 0.5
        e = ad.leaf([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        assert float(losses.triplet_loss_semihard(
            e, [0, 0, 1], 0.5).value) == pytest.approx(0.5, abs=1e-12)


class TestEstimatorUnbiasedness:
    """Mean of the O(N) shuffle-pairing estimator over 10,000 shuffles is
    within 2 standard errors of the O(N^2) all-pairs value; < 30 s."""

    def test_pairing_mean_matches_all_pairs(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        n = 16
        e = rng.normal(size=(n, 4))
        labels = rng.integers(0, 3, size=n)
        margin = 1.0

        diff = e[:, None] - e[None, :]
        d = np.sqrt((diff * diff).sum(-1))
        same = labels[:, None] == labels[None, :]
        contrib = np.where(same, d ** 2, np.maximum(0.0, margin - d) ** 2)
        iu = np.triu_indices(n, k=1)
        all_pairs = contrib[iu].mean()

        shuffle_rng = np.random.default_rng(1)
        estimates = np.empty(10_000)
        for i in range(10_000):
            perm = shuffle_rng.permutation(n)
            estimates[i] = contrib[perm[0::2], perm[1::2]].mean()
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        gap = abs(estimates.mean() - all_pairs)
        assert gap < 2 * se, f"bias {gap:.3e} exceeds 2 SE {2 * se:.3e}"

        elapsed = time.monotonic() - t0
        assert elapsed < 30, f"unbiasedness check took {elapsed:.1f}s"


class TestAblationOrdering:
    """On the frozen four-domain benchmark (leave-one-domain-out, 5 seeds):
    full method strictly beats the pooled baseline; every single-component
    row stays within 0.5 accuracy points of the baseline; the full method
    is at least as good as every single-component row; < 10 min."""

    def test_core_rows_ordering(self, config, datasets):
        t0 = time.monotonic()
        means = {}
        for flags in CORE_ROWS:
            accs = [run_single(config, flags, t, s, datasets)
                    for t in sorted(datasets) for s in config.seeds]
            means[flags] = float(np.mean(accs))

        baseline = means[(False, False, False)]
        full = means[(True, True, True)]
        singles = {flags: means[flags] for flags in CORE_ROWS[1:4]}

        assert full > baseline, f"full {full:.4f} <= baseline {baseline:.4f}"
        for flags, acc in singles.items():
            assert acc >= baseline - 0.005, \
                f"row {flags} at {acc:.4f} more than 0.5 pts below baseline"
            assert full >= acc, f"full {full:.4f} < row {flags} {acc:.4f}"

        elapsed = time.monotonic() - t0
        assert elapsed < 600, f"ablation grid took {elapsed:.1f}s"


class TestTrainedModelComparisons:
    """Sign tests over 5 seeds (>= 4/5 successes, one-sided binomial
    p < 0.05) comparing the trained full method to the pooled baseline."""

    def test_margin_on_unseen_domain_exceeds_baseline(self, trained_runs,
                                                      datasets):
        wins = 0
        for seed, runs in trained_runs.items():
            vals = {}
            for name in ("baseline", "full"):
                _, state, _ = runs[name]
                vals[name] = harness.margin_statistic(
                    state.psi, state.phi, datasets[TARGET], datasets[TARGET],
                    200, np.random.default_rng(seed))
            wins += vals["full"] > vals["baseline"]
        assert wins >= 4, f"margin won only {wins}/5 seeds"

    def test_alignment_to_unseen_domain_below_baseline(self, trained_runs,
                                                       datasets, config):
        sources = [k for k in sorted(datasets) if k != TARGET]
        wins = 0
        for runs in trained_runs.values():
            vals = {}
            for name in ("baseline", "full"):
                _, state, _ = runs[name]
                vals[name] = np.mean([harness.target_alignment(
                    state.psi, state.theta, datasets[k], datasets[TARGET],
                    config.hp.tau) for k in sources])
            wins += vals["full"] < vals["baseline"]
        assert wins >= 4, f"alignment won only {wins}/5 seeds"

    def test_silhouette_positive_on_heldout_sources(self, trained_runs):
        for seed, runs in trained_runs.items():
            _, state, holdout = runs["full"]
            scores = []
            for ds in holdout.values():
                z = nets.feature_forward(state.psi, ad.const(ds.features))
                e = nets.metric_forward(state.phi, z).value
                scores.append(harness.silhouette_score(e, ds.labels))
            assert min(scores) > 0, \
                f"seed {seed}: non-positive silhouette {min(scores):.4f}"


class TestPlainTrainingEquivalence:
    """With the episodic step disabled and both auxiliary weights at zero,
    the loop must match independently-written pooled supervised training
    within 1e-12 parameter distance over 100 iterations."""

    def test_matches_pooled_supervised_oracle(self, datasets):
        arch = nets.Architecture(input_dim=16, num_classes=5,
                                 feature_widths=(12, 8), metric_widths=(8, 4))
        hp = engine.Hyperparams(alpha=0.05, eta=0.05, gamma=0.05,
                                batch_size=25, decay_every=40,
                                n_meta_train=3, episodic=False,
                                beta1=0.0, beta2=0.0)
        seed, iters = 0, 100
        state = engine.train(engine.make_state(arch, hp, seed), datasets, iters)

        psi, theta, _ = nets.init_params(arch, seed)
        seqs = np.random.SeedSequence(seed).spawn(2)
        data_rng = np.random.default_rng(seqs[0])
        algo_rng = np.random.default_rng(seqs[1])
        ids = sorted(datasets)
        for t in range(iters):
            batches = [bench.sample_batch(datasets[k], hp.batch_size, True,
                                          data_rng) for k in ids]
            algo_rng.permutation(len(ids))  # split is drawn regardless

            per_domain = []
            for b in batches:
                h = ad.const(b.features)
                for w, bias in zip(psi.tensors[0::2], psi.tensors[1::2]):
                    h = ad.relu(ad.add(ad.matmul(h, w), bias))
                logits = ad.add(ad.matmul(h, theta.tensors[0]), theta.tensors[1])
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
            stepped = [ad.leaf(p.value - lr * g) for p, g in zip(params, grads)]
            psi = psi.replace(stepped[:len(psi.tensors)])
            theta = theta.replace(stepped[len(psi.tensors):])

        for got, want in zip(state.psi.tensors + state.theta.tensors,
                             psi.tensors + theta.tensors):
            assert np.abs(got.value - want.value).max() <= 1e-12


class TestReportDeterminism:
    """Identical configuration and seeds produce a byte-identical report."""

    def test_report_csv_byte_identical(self, datasets, tmp_path):
        contents = []
        for sub in ("first", "second"):
            cfg = canonical_experiment_config(
                iterations=25, seeds=[0, 1], targets=[TARGET],
                rows=[(False, False, False), (True, True, True)],
                out_dir=str(tmp_path / sub))
            harness.run_experiment(cfg, datasets)
            contents.append((tmp_path / sub / "report.csv").read_bytes())
        assert contents[0] == contents[1]
