import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masf import autodiff as ad
from masf import bench, engine, harness, losses, nets

ARCH = nets.Architecture(input_dim=4, num_classes=3,
                         feature_widths=(6, 5), metric_widths=(5, 4))


def make_params(seed, randomize=True):
    psi, theta, phi = nets.init_params(ARCH, seed)
    if not randomize:
        return psi, theta, phi
    rng = np.random.default_rng(seed + 1000)
    out = []
    for pset in (psi, theta, phi):
        out.append(pset.replace(
            [ad.leaf(t.value + rng.normal(0, 0.3, size=t.shape))
             for t in pset.tensors]))
    return out


def make_batch(rng, n=9, num_classes=3, dim=4):
    x = rng.normal(size=(n, dim))
    labels = np.concatenate([np.arange(num_classes),
                             rng.integers(0, num_classes, size=n - num_classes)])
    return x, labels


class TestTaskLoss:
    def test_uniform_logits(self):
        logits = ad.leaf(np.zeros((4, 5)))
        loss = losses.task_loss(logits, [0, 1, 2, 3])
        assert float(loss.value) == pytest.approx(np.log(5.0), abs=1e-12)

    def test_saturated_logit(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 1e3
        loss = losses.task_loss(ad.leaf(logits), [1])
        assert float(loss.value) == pytest.approx(0.0, abs=1e-9)

    def test_hand_value(self):
        loss = losses.task_loss(ad.leaf([[np.log(2.0), 0.0]]), [0])
        assert float(loss.value) == pytest.approx(-np.log(2.0 / 3.0), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            losses.task_loss(ad.leaf(np.zeros((2, 3))), [0, 3])

    def test_labels_not_whole_numbers_rejected(self):
        # int64 casting would score classes 0 and 2
        with pytest.raises(ValueError, match="label 0.9 is not a whole number"):
            losses.task_loss(ad.leaf(np.zeros((2, 3))), [0.9, 2.5])
        loss = losses.task_loss(ad.leaf(np.zeros((2, 3))), [0.0, 2.0])
        assert float(loss.value) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(8, 3))
        labels = rng.integers(0, 3, size=8)
        perm = rng.permutation(8)
        a = float(losses.task_loss(ad.leaf(logits), labels).value)
        b = float(losses.task_loss(ad.leaf(logits[perm]), labels[perm]).value)
        assert a == pytest.approx(b, abs=1e-12)


class TestClassMeans:
    def test_single_sample_is_its_own_mean(self):
        z = ad.leaf([[1.0, 2.0], [5.0, 5.0]])
        means, mask = losses.class_means(z, [1, 0], 3)
        np.testing.assert_allclose(means.value[1], [1.0, 2.0])
        assert list(mask) == [True, True, False]

    def test_two_sample_mean(self):
        z = ad.leaf([[0.0, 0.0], [2.0, 2.0]])
        means, _ = losses.class_means(z, [0, 0], 2)
        np.testing.assert_allclose(means.value[0], [1.0, 1.0])

    def test_absent_class_masked(self):
        z = ad.leaf([[1.0, 1.0]])
        means, mask = losses.class_means(z, [2], 4)
        assert not mask[0] and not mask[1] and mask[2] and not mask[3]
        np.testing.assert_array_equal(means.value[0], [0.0, 0.0])

    def test_gradients_flow(self):
        rng = np.random.default_rng(1)
        z = ad.leaf(rng.normal(size=(6, 3)))
        means, _ = losses.class_means(z, [0, 1, 2, 0, 1, 2], 3)
        s = ad.reduce_sum(ad.square(means))
        assert ad.finite_diff_check(s, [z]) < 1e-6


class TestSoftLabels:
    def test_uniform_for_equal_logits(self):
        _, theta, _ = make_params(0, randomize=False)
        theta = theta.replace([ad.leaf(np.zeros(t.shape)) for t in theta.tensors])
        dist = losses.soft_label_matrix(theta, ad.leaf(np.ones((1, 5))), 3.0)
        np.testing.assert_allclose(dist.value, 1.0 / 3, atol=1e-12)

    def test_tau_one_is_plain_softmax(self):
        _, theta, _ = make_params(2)
        mean = ad.leaf(np.random.default_rng(0).normal(size=(1, 5)))
        logits = nets.task_forward(theta, mean).value
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(
            losses.soft_label_matrix(theta, mean, 1.0).value, expected,
            atol=1e-12)

    def test_hand_softened(self):
        # logits (ln 2, 0) at tau=1 -> (2/3, 1/3)
        arch = nets.Architecture(input_dim=2, num_classes=2,
                                 feature_widths=(1,), metric_widths=(2, 2))
        _, theta, _ = nets.init_params(arch, 0)
        theta = theta.replace([ad.leaf([[np.log(2.0), 0.0]]), ad.leaf([0.0, 0.0])])
        dist = losses.soft_label_matrix(theta, ad.leaf([[1.0]]), 1.0)
        np.testing.assert_allclose(dist.value, [[2.0 / 3, 1.0 / 3]], atol=1e-12)

    def test_rows_sum_to_one(self):
        _, theta, _ = make_params(3)
        means = ad.leaf(np.random.default_rng(1).normal(size=(3, 5)))
        for tau in [1.0, 2.0, 7.5]:
            mat = losses.soft_label_matrix(theta, means, tau).value
            np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-9)

    def test_large_tau_approaches_uniform(self):
        _, theta, _ = make_params(4)
        means = ad.leaf(np.random.default_rng(2).normal(size=(2, 5)))
        mat = losses.soft_label_matrix(theta, means, 1e6).value
        np.testing.assert_allclose(mat, 1.0 / 3, atol=1e-4)

    def test_nonpositive_tau_rejected(self):
        _, theta, _ = make_params(0)
        with pytest.raises(ValueError):
            losses.soft_label_matrix(theta, ad.leaf(np.ones((1, 5))), 0.0)


def brute_force_symm_kl(p, q):
    kl_pq = sum(pi * np.log(pi / qi) for pi, qi in zip(p, q))
    kl_qp = sum(qi * np.log(qi / pi) for pi, qi in zip(p, q))
    return 0.5 * (kl_pq + kl_qp)


class TestSymmKL:
    def test_identical_distributions(self):
        p = ad.leaf([0.2, 0.3, 0.5])
        assert float(losses.symm_kl(p, ad.leaf([0.2, 0.3, 0.5])).value) == \
            pytest.approx(0.0, abs=1e-9)

    def test_reference_value(self):
        got = losses.symm_kl(ad.leaf([0.5, 0.5]), ad.leaf([0.75, 0.25]))
        expected = brute_force_symm_kl([0.5, 0.5], [0.75, 0.25])
        assert float(got.value) == pytest.approx(expected, abs=1e-9)
        assert float(got.value) == pytest.approx(0.13733, abs=1e-4)

    @given(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
           st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_nonnegativity(self, a, b):
        p = np.asarray(a) / np.sum(a)
        q = np.asarray(b) / np.sum(b)
        lhs = float(losses.symm_kl(ad.leaf(p), ad.leaf(q)).value)
        rhs = float(losses.symm_kl(ad.leaf(q), ad.leaf(p)).value)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs >= -1e-12
        assert lhs == pytest.approx(brute_force_symm_kl(p, q), abs=1e-9)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            losses.symm_kl(ad.leaf([0.9, 0.3]), ad.leaf([0.5, 0.5]))


class TestGlobalAlignment:
    def _batches(self, seed, n=9):
        rng = np.random.default_rng(seed)
        return make_batch(rng, n=n), make_batch(rng, n=n)

    def test_identical_batches_zero(self):
        psi, theta, _ = make_params(0)
        batch, _ = self._batches(0)
        loss = losses.global_alignment_loss({0: batch, 1: batch}, [(0, 1)],
                                            psi, theta, 2.0, 3)
        assert float(loss.value) == pytest.approx(0.0, abs=1e-9)

    def test_no_pairs_rejected(self):
        psi, theta, _ = make_params(0)
        batch, _ = self._batches(0)
        with pytest.raises(ValueError, match="at least one domain pair"):
            losses.global_alignment_loss({0: batch, 1: batch}, [], psi, theta,
                                         2.0, 3)

    def test_two_train_one_test_averages_two_pairs(self):
        psi, theta, _ = make_params(1)
        (b0, b1), (b2, _) = self._batches(1), self._batches(2)
        batches = {0: b0, 1: b1, 2: b2}

        def loss(pairs):
            return losses.global_alignment_loss(batches, pairs, psi, theta, 2.0, 3)

        pair_a, pair_b = loss([(0, 2)]), loss([(1, 2)])
        both = loss([(0, 2), (1, 2)])
        assert float(both.value) == pytest.approx(
            0.5 * (float(pair_a.value) + float(pair_b.value)), abs=1e-12)

    def test_each_domain_forwarded_once(self, monkeypatch):
        psi, theta, _ = make_params(6)
        (b0, b1), (b2, _) = self._batches(3), self._batches(4)
        calls = []
        forward = nets.feature_forward
        monkeypatch.setattr(nets, "feature_forward",
                            lambda p, x: calls.append(x) or forward(p, x))
        pairs = [(0, 1), (0, 2), (1, 2)]
        losses.global_alignment_loss({0: b0, 1: b1, 2: b2}, iter(pairs),
                                     psi, theta, 2.0, 3)
        # one forward over the stacked rows of all three domains
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0].value,
                                      np.concatenate([b0[0], b1[0], b2[0]]))

    @pytest.mark.parametrize("bad", [3, -1])
    def test_label_out_of_range_rejected(self, bad):
        # label 3 of domain 0 would otherwise land in domain 1's class-0 cell
        psi, theta, _ = make_params(6)
        ba, bb = self._batches(10)
        ba = (ba[0], np.where(np.arange(len(ba[1])) == 0, bad, ba[1]))
        with pytest.raises(ValueError, match="label out of range"):
            losses.global_alignment_loss({0: ba, 1: bb}, [(0, 1)], psi, theta,
                                         2.0, 3)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_pair_reference(self, seed):
        psi, theta, _ = make_params(seed % 5)
        batches, pairs = random_alignment_case(np.random.default_rng(300 + seed))
        if seed % 2:  # a repeated pair counts twice, and a reversed one once
            pairs += [pairs[0], pairs[0][::-1]]
        params = psi.tensors + theta.tensors

        def loss_and_grads(fn):
            loss = fn(batches, pairs, psi, theta, 2.0, 3)
            grads = ad.grad(loss, params)
            return float(loss.value), [grads[t].value for t in params]

        try:
            want, want_grads = loss_and_grads(reference_global_alignment_loss)
        except ValueError:
            with pytest.raises(ValueError, match="no shared class"):
                losses.global_alignment_loss(batches, pairs, psi, theta, 2.0, 3)
            return
        got, got_grads = loss_and_grads(losses.global_alignment_loss)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=1e-10,
                                       atol=1e-13 * np.abs(w).max())

    def test_single_shared_class_reduces_to_symm_kl(self):
        psi, theta, _ = make_params(2)
        rng = np.random.default_rng(5)
        ba = (rng.normal(size=(3, 4)), np.array([0, 0, 0]))
        bb = (rng.normal(size=(3, 4)), np.array([0, 0, 0]))
        loss = losses.global_alignment_loss({"a": ba, "b": bb}, [("a", "b")],
                                            psi, theta, 2.0, 3)

        def soft_row(batch):
            z = nets.feature_forward(psi, ad.const(batch[0]))
            means, _ = losses.class_means(z, batch[1], 3)
            row = losses.soft_label_matrix(
                theta, ad.select_rows(means, [0]), 2.0)
            return ad._sum_to(ad._on_graph, row, (3,))  # [1, 3] to [3]

        direct = losses.symm_kl(soft_row(ba), soft_row(bb))
        assert float(loss.value) == pytest.approx(float(direct.value), abs=1e-9)

    def test_domain_swap_symmetry(self):
        psi, theta, _ = make_params(3)
        ba, bb = self._batches(7)
        batches = {"a": ba, "b": bb}
        ab = losses.global_alignment_loss(batches, [("a", "b")], psi, theta, 2.0, 3)
        ba_ = losses.global_alignment_loss(batches, [("b", "a")], psi, theta, 2.0, 3)
        assert float(ab.value) == pytest.approx(float(ba_.value), abs=1e-12)

    def test_no_shared_class_rejected(self):
        psi, theta, _ = make_params(4)
        rng = np.random.default_rng(8)
        ba = (rng.normal(size=(2, 4)), np.array([0, 0]))
        bb = (rng.normal(size=(2, 4)), np.array([1, 1]))
        with pytest.raises(ValueError):
            losses.global_alignment_loss({0: ba, 1: bb}, [(0, 1)], psi, theta,
                                         2.0, 3)

    def test_gradients_pass_fd(self):
        psi, theta, _ = make_params(5)
        ba, bb = self._batches(9, n=6)
        loss = losses.global_alignment_loss({0: ba, 1: bb}, [(0, 1)], psi, theta,
                                            2.0, 3)
        assert ad.finite_diff_check(loss, psi.tensors + theta.tensors) < 1e-5


def reference_global_alignment_loss(batches, pairs, psi, theta, tau,
                                    num_classes):
    """The original per-pair loop, kept as the global loss's reference: one
    feature forward and one soft matrix per domain, one graph per pair."""
    soft = {}

    def soft_matrix(k):
        if k not in soft:
            x, labels = batches[k]
            z = nets.feature_forward(psi, ad.as_expr(x))
            means, mask = losses.class_means(z, labels, num_classes)
            soft[k] = losses.soft_label_matrix(theta, means, tau), mask
        return soft[k]

    terms = []
    for i, j in pairs:
        (s_i, m_i), (s_j, m_j) = soft_matrix(i), soft_matrix(j)
        shared = m_i & m_j
        if not shared.any():
            raise ValueError("no shared class between a domain pair")
        diff = ad.sub(s_i, s_j)
        logdiff = ad.sub(ad.log(s_i), ad.log(s_j))
        per_class = ad.mul(ad.const(0.5),
                           ad.reduce_sum(ad.mul(diff, logdiff), axis=1))
        weights = shared.astype(np.float64) / shared.sum()
        terms.append(ad.reduce_sum(ad.mul(per_class, ad.const(weights[:, None]))))
    return ad.mul(ad.const(1.0 / len(terms)), functools.reduce(ad.add, terms))


def random_alignment_case(rng):
    """2-4 domains of unequal sizes, some with absent classes, int or str
    ids, and the pairs of a meta-train x meta-test split or of every two."""
    n_domains = int(rng.integers(2, 5))
    names = [0, 1, 2, 3] if rng.integers(2) else ["a", "b", "c", "d"]
    ids = [names[k] for k in rng.permutation(4)[:n_domains]]
    batches = {}
    for k in ids:
        present = rng.permutation(3)[:int(rng.integers(1, 4))]
        n = int(rng.integers(1, 10))
        batches[k] = (rng.normal(size=(n, 4)), rng.choice(present, size=n))
    if rng.integers(2):
        n_tr = int(rng.integers(1, n_domains))
        pairs = list(itertools.product(ids[:n_tr], ids[n_tr:]))
    else:
        pairs = list(itertools.combinations(ids, 2))
    return batches, pairs


class TestPairwiseDistance:
    """``losses.distance_matrix``, the miner's and the silhouette's distance,
    in Gram form: |a|^2 + |b|^2 - 2 a.b from one ``E @ E.T``."""

    def test_identical_zero(self):
        d = losses.distance_matrix(np.array([[0.6, 0.8], [0.6, 0.8]]))
        assert np.all(d == 0.0)

    def test_antipodal_unit_vectors(self):
        d = losses.distance_matrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(d, [[0.0, 2.0], [2.0, 0.0]], atol=1e-12)

    def test_hand_value(self):
        d = losses.distance_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        r2 = np.sqrt(2.0)
        np.testing.assert_allclose(d, [[0.0, r2, 1.0], [r2, 0.0, 1.0],
                                       [1.0, 1.0, 0.0]], atol=1e-12)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_metric_axioms(self, seed):
        d = losses.distance_matrix(np.random.default_rng(seed).normal(size=(5, 3)))
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d >= 0)
        np.testing.assert_allclose(d, d.T, atol=1e-12)
        # d[a, b] <= d[a, c] + d[c, b] for every triple (a, c, b)
        assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 150), st.integers(1, 8),
           st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=60, deadline=None)
    def test_gram_form_matches_difference_rule(self, seed, n, dim, scale):
        rows = np.random.default_rng(seed).normal(size=(n, dim)) * scale
        d = losses.distance_matrix(rows)
        diff = rows[:, None, :] - rows[None, :, :]
        np.testing.assert_array_equal(d, d.T)
        assert np.all(d >= 0)
        assert np.all(np.diag(d) == 0.0)
        np.testing.assert_allclose(d, np.sqrt((diff * diff).sum(-1)),
                                   rtol=0, atol=1e-9 * scale)


class TestContrastive:
    def test_same_class_zero_distance_contributes_zero(self):
        e = ad.leaf([[1.0, 0.0], [1.0, 0.0]])
        loss = losses.contrastive_loss_on_pairs(e, [1, 1], [0], [1], 1.0)
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)

    def test_separated_negatives_contribute_zero(self):
        e = ad.leaf([[1.0, 0.0], [-1.0, 0.0]])  # d = 2 >= margin
        loss = losses.contrastive_loss_on_pairs(e, [0, 1], [0], [1], 1.0)
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)

    def test_hand_hinge_value(self):
        # different classes at d = 0.5, margin 1 -> (1 - 0.5)^2 = 0.25
        e = ad.leaf([[0.5, 0.0], [0.0, 0.0]])
        loss = losses.contrastive_loss_on_pairs(e, [0, 1], [0], [1], 1.0)
        assert float(loss.value) == pytest.approx(0.25, abs=1e-12)

    def test_shuffle_pairing_uses_half_the_batch(self):
        rng = np.random.default_rng(0)
        e = ad.leaf(rng.normal(size=(7, 3)))
        loss = losses.contrastive_loss(e, rng.integers(0, 2, size=7), 1.0,
                                       np.random.default_rng(1))
        assert loss.shape == ()

    def test_too_small_batch_rejected(self):
        with pytest.raises(ValueError):
            losses.contrastive_loss(ad.leaf([[1.0, 0.0]]), [0], 1.0,
                                    np.random.default_rng(0))

    def test_pairing_estimator_unbiased(self):
        # mean over many shuffles ~= all-pairs average, on a fixed batch
        rng = np.random.default_rng(42)
        n = 16
        e_val = rng.normal(size=(n, 4))
        labels = rng.integers(0, 3, size=n)
        margin = 1.0
        diff = e_val[:, None] - e_val[None, :]
        d = np.sqrt((diff * diff).sum(-1))
        same = labels[:, None] == labels[None, :]
        contrib = np.where(same, d ** 2, np.maximum(0.0, margin - d) ** 2)
        iu = np.triu_indices(n, k=1)
        all_pairs = contrib[iu].mean()

        shuffle_rng = np.random.default_rng(7)
        estimates = []
        for _ in range(10_000):
            perm = shuffle_rng.permutation(n)
            estimates.append(contrib[perm[0::2], perm[1::2]].mean())
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - all_pairs) < 2 * se

        # the graph version agrees with the numpy estimator on one shuffle
        perm = np.random.default_rng(3).permutation(n)
        graph = losses.contrastive_loss(ad.leaf(e_val), labels, margin,
                                        np.random.default_rng(3))
        assert float(graph.value) == pytest.approx(
            contrib[perm[0::2], perm[1::2]].mean(), abs=1e-12)


def reference_triplet_loss_semihard(embeddings, labels, margin):
    """The hinge from three [T, d] row gathers, kept as the loss's reference."""
    anchors, positives, negatives = losses.mine_semihard_triplets(
        embeddings.value, labels)
    if anchors.size == 0:
        return ad.const(0.0)
    e_a = ad.select_rows(embeddings, anchors)
    e_p = ad.select_rows(embeddings, positives)
    e_n = ad.select_rows(embeddings, negatives)
    d2_ap = ad.reduce_sum(ad.square(ad.sub(e_a, e_p)), axis=1)
    d2_an = ad.reduce_sum(ad.square(ad.sub(e_a, e_n)), axis=1)
    return ad.mean(ad.relu(ad.add(ad.sub(d2_ap, d2_an), ad.const(margin))))


def by_anchor_then_positive(triplets):
    """The miner's triplets sorted by anchor, then by positive. The hinge
    reads them as a set, so the checks compare them in this one order."""
    a, p, n = triplets
    order = np.lexsort((p, a))
    return a[order], p[order], n[order]


class TestMiner:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 151))
        e = rng.normal(size=(n, int(rng.integers(1, 9))))
        labels = rng.integers(0, int(rng.integers(2, 8)), size=n)
        assert_semihard_rule(e, labels)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference_with_ties(self, seed):
        # integer grid coordinates: many equal distances, and coincident
        # points with zero distance
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 151))
        e = np.round(rng.normal(size=(n, 2)) * (seed % 3 + 1))
        labels = rng.integers(0, 5, size=n)
        assert_semihard_rule(e, labels)

    def test_singleton_classes(self):
        rng = np.random.default_rng(3)
        labels = np.array([0, 1, 1, 2, 3, 3, 3, 4])
        a, _, _ = assert_semihard_rule(rng.normal(size=(8, 3)), labels)
        assert not np.isin(a, [0, 3, 7]).any()

    def test_one_class_gives_empty_arrays(self):
        got = assert_semihard_rule(np.ones((5, 2)), np.zeros(5, dtype=int))
        assert all(x.shape == (0,) for x in got)

    def test_no_semihard_negative_falls_back(self):
        # two crossed pairs: every positive is at 20, both negatives at
        # sqrt(200), so each pick is the farthest negative, lowest index
        e = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0], [0.0, -10.0]])
        _, _, n = assert_semihard_rule(e, [0, 0, 1, 1])
        np.testing.assert_array_equal(n, [2, 2, 0, 0])

    @pytest.mark.parametrize("seed", range(10))
    def test_grouped_by_anchor_nearest_positive_first(self, seed):
        # odd seeds put the rows on an integer grid, where distances tie
        rng = np.random.default_rng(1200 + seed)
        n = int(rng.integers(20, 151))
        e = rng.normal(size=(n, 2)) * 2.0
        if seed % 2:
            e = np.round(e)
        labels = rng.integers(0, 4, size=n)
        a, p, _ = losses.mine_semihard_triplets(e, labels)
        d = losses.distance_matrix(e)[a, p]
        assert (np.diff(a) >= 0).all()
        same = a[1:] == a[:-1]
        nearer = d[1:] > d[:-1]
        tied = (d[1:] == d[:-1]) & (p[1:] > p[:-1])
        assert (nearer | tied)[same].all()


def rows_with_ties(e):
    """Indices of the distance-matrix rows holding two equal distances."""
    dist = losses.distance_matrix(e)
    return [r for r, row in enumerate(dist) if np.unique(row).size < row.size]


def partly_tied_batch(rng, n, dim):
    """Random rows, except that row 0 is the origin and row 2 mirrors row 1,
    so row 0 of the distance matrix has a tie and the other rows (almost
    surely) have none."""
    e = rng.normal(size=(n, dim))
    e[0] = 0.0
    e[2] = -e[1]
    return e


def make_mining_batch(seed, n, dim, num_classes, kind):
    rng = np.random.default_rng(seed)
    if kind == "float":
        e = rng.normal(size=(n, dim))
    elif kind == "grid":  # integer coordinates: many equal distances
        e = np.round(rng.normal(size=(n, min(dim, 2))) * 2.0)
    elif kind == "duplicated":
        base = rng.normal(size=(max(n // 3, 1), dim))
        e = base[rng.integers(0, len(base), size=n)]
    elif kind == "identical":
        e = np.broadcast_to(rng.normal(size=dim), (n, dim)).copy()
    elif kind == "nan":  # NaN rows: NaN distances sort last
        e = rng.normal(size=(n, dim))
        e[rng.random(n) < 0.2] = np.nan
    else:  # "partly_tied" and "pos_neg_tie"
        e = partly_tied_batch(rng, max(n, 3), dim)[:n]
    labels = rng.integers(0, num_classes, size=n)
    if kind == "pos_neg_tie" and n >= 3:
        # row 0's tie is a positive (1) and a negative (2) at one distance
        labels[1:3] = labels[0], labels[0] + 1
    return e, labels


MINING_KINDS = ["float", "grid", "duplicated", "identical", "partly_tied",
                "pos_neg_tie", "nan"]


def assert_semihard_rule(e, labels):
    """Check the miner against its rule, read off the distances alone: for
    each same-class pair (a, p), a != p, of an anchor with a negative, in
    row-major order, the pick is the nearest negative strictly farther than
    p, lowest index first; if there is none, the farthest negative, lowest
    index first. A NaN distance is farther than any number."""
    labels = np.asarray(labels)
    a, p, n = by_anchor_then_positive(losses.mine_semihard_triplets(e, labels))
    assert a.dtype == p.dtype == n.dtype == np.int64
    neg = labels[:, None] != labels
    pair = ~neg & ~np.eye(labels.size, dtype=bool) & neg.any(axis=1)[:, None]
    want_a, want_p = np.nonzero(pair)
    np.testing.assert_array_equal(a, want_a)
    np.testing.assert_array_equal(p, want_p)
    key = np.nan_to_num(losses.distance_matrix(e), nan=np.inf)
    for anchor in np.unique(a):
        rows = a == anchor
        d = key[anchor]
        d_pos = d[p[rows]][:, None]
        farther = neg[anchor] & (d > d_pos)  # [positives, N]
        nearest = np.where(farther, d, np.inf).min(axis=1, keepdims=True)
        semihard = np.argmax(farther & (d == nearest), axis=1)
        fallback = np.argmax(neg[anchor] & (d == d[neg[anchor]].max()))
        want = np.where(farther.any(axis=1), semihard, fallback)
        np.testing.assert_array_equal(n[rows], want)
    return a, p, n


class TestRowSortMiner:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 150),
           dim=st.integers(1, 8), num_classes=st.integers(1, 7),
           kind=st.sampled_from(MINING_KINDS))
    def test_picks_follow_the_semihard_rule(self, seed, n, dim, num_classes,
                                            kind):
        e, labels = make_mining_batch(seed, n, dim, num_classes, kind)
        assert_semihard_rule(e, labels)

    @pytest.mark.parametrize("x, labels, negative", [
        # positive 1 and negative 2 both at 1: the pick is 3, at 2
        ([0, 1, -1, 2], [0, 0, 1, 1], 3),
        # negatives 2 and 3 both at 2, the next distance past 1: the pick is 2
        ([0, 1, 2, -2, 3], [0, 0, 1, 1, 1], 2),
        # ... and with the lower index on the other side of the anchor
        ([0, 1, -2, 2, 3], [0, 0, 1, 1, 1], 2),
        # no negative past 5; negatives 3 and 4 both at the farthest, 2:
        # the fallback is 3
        ([0, 5, 1, 2, -2], [0, 0, 1, 1, 1], 3),
        # the positive ties the farthest negatives: the fallback is 2
        ([0, 2, -2, 1, 2], [0, 0, 1, 1, 1], 2),
    ], ids=["negative_at_positive_distance", "next_distance_tie",
            "next_distance_tie_mirrored", "farthest_tie_fallback",
            "positive_at_farthest_tie"])
    def test_ties(self, x, labels, negative):
        e = np.array(x, float)[:, None]
        a, p, n = assert_semihard_rule(e, labels)
        assert n[(a == 0) & (p == 1)].tolist() == [negative]

    @pytest.mark.parametrize("seed", range(10))
    def test_stable_resort_of_a_strict_subset_of_rows(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(20, 151))
        e = partly_tied_batch(rng, n, int(rng.integers(1, 9)))
        assert 0 in rows_with_ties(e) and len(rows_with_ties(e)) < n
        labels = rng.integers(0, 3, size=n)
        labels[1:3] = (labels[0] + 1) % 3  # the tied pair: negatives of row 0
        assert_semihard_rule(e, labels)

    @pytest.mark.parametrize("e, labels, negatives", [
        # row 1 is NaN: a positive at a NaN distance falls back to the
        # farthest negative, and a NaN negative counts as the farthest
        ([[0, 0], [np.nan, 1], [2, 2], [3, 3]], [0, 0, 1, 1], [3, 2, 0, 0]),
        # anchor 0's positive 2 and both negatives are at NaN distances: the
        # fallback is negative 1, not negative 3, the first one after it
        ([[0, 0], [np.nan, 1], [np.nan, 2], [np.nan, 3]], [0, 1, 0, 1],
         [1, 0, 1, 0]),
    ])
    def test_nan_rows(self, e, labels, negatives):
        _, _, n = assert_semihard_rule(np.array(e, float), labels)
        np.testing.assert_array_equal(n, negatives)

    @pytest.mark.parametrize("e, labels", [
        (np.zeros((0, 3)), np.zeros(0, dtype=int)),
        (np.zeros((0, 3)), []),
        (np.arange(8.0).reshape(4, 2), [2, 2, 2, 2]),
        (np.arange(8.0).reshape(4, 2), [0, 1, 2, 3]),
    ], ids=["empty", "empty_list", "one_class", "singletons"])
    def test_no_triplet_gives_empty_int64_arrays(self, e, labels):
        for x in losses.mine_semihard_triplets(e, labels):
            assert x.dtype == np.int64 and x.shape == (0,)

    @pytest.mark.parametrize("num_labels", [4, 8])
    def test_label_count_mismatch_rejected(self, num_labels):
        e = np.random.default_rng(0).normal(size=(6, 2))
        labels = np.arange(num_labels) % 2
        message = f"{num_labels} labels for 6 embedding rows"
        with pytest.raises(ValueError, match=message):
            losses.mine_semihard_triplets(e, labels)
        with pytest.raises(ValueError, match=message):
            losses.triplet_loss_semihard(ad.leaf(e), labels, 1.0)
        with pytest.raises(ValueError, match=message):
            losses.contrastive_loss(ad.leaf(e), labels, 1.0,
                                    np.random.default_rng(0))

    def test_labels_not_whole_numbers_rejected(self):
        # int64 casting would put 0.2 and 0.5 in one class
        e = np.random.default_rng(0).normal(size=(6, 2))
        labels = [0.5, 0.5, 1.7, 1.7, 0.2, 1.2]
        with pytest.raises(ValueError, match="label 0.5 is not a whole number"):
            losses.mine_semihard_triplets(e, labels)
        with pytest.raises(ValueError, match="label 0.5 is not a whole number"):
            losses.triplet_loss_semihard(ad.leaf(e), labels, 1.0)
        with pytest.raises(ValueError, match="label 0.5 is not a whole number"):
            losses.contrastive_loss(ad.leaf(e), labels, 1.0,
                                    np.random.default_rng(0))
        whole = [0.0, 0.0, 1.0, 1.0, 2.0, 1.0]
        for g, w in zip(losses.mine_semihard_triplets(e, whole),
                        losses.mine_semihard_triplets(e, [0, 0, 1, 1, 2, 1])):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("shape", [(6,), (6, 2, 1)])
    def test_embeddings_not_2d_rejected(self, shape):
        e = np.zeros(shape)
        labels = np.arange(6) % 2
        with pytest.raises(ValueError, match="2-D"):
            losses.mine_semihard_triplets(e, labels)
        with pytest.raises(ValueError, match="2-D"):
            losses.contrastive_loss(ad.leaf(e), labels, 1.0,
                                    np.random.default_rng(0))


class TestKeySortRepair:
    """The rows that the packed-key sort cannot order alone go to the exact
    lexsort: keys that share their high bits (a distance within 2^b ulps of
    another), and a -0.0, an inf or a NaN distance."""

    def test_one_ulp_apart_in_reverse_column_order(self):
        # row 0: positive 2 at x, negative 1 one ulp farther, negative 3 at
        # 2x. The keys of 1 and 2 share their high bits and sort by column,
        # so only the exact sort puts 2 before 1 and picks 1, not 3
        x = 0.7
        e = np.array([[0.0], [np.nextafter(x, np.inf)], [x], [2 * x]])
        labels = [0, 1, 0, 1]
        dist = losses.distance_matrix(e)
        assert dist[0, 1] == np.nextafter(dist[0, 2], np.inf)
        a, p, n = assert_semihard_rule(e, labels)
        assert n[(a == 0) & (p == 2)].tolist() == [1]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 150),
           num_classes=st.integers(2, 7))
    def test_one_ulp_pairs_in_random_column_order(self, seed, n, num_classes):
        # each value next to its neighbour one ulp up, columns shuffled; the
        # origin's row holds every pair
        rng = np.random.default_rng(seed)
        x = np.abs(rng.normal(size=(n + 1) // 2))
        x = np.concatenate([x, np.nextafter(x, np.inf)])[:n]
        e = rng.permutation(x)[:, None]
        e[0] = 0.0
        assert_semihard_rule(e, rng.integers(0, num_classes, size=n))

    def test_inf_distance(self):
        # 1e200 squares to inf: row 1 is at +inf from every other row, and
        # at inf - inf = NaN from itself
        e = np.array([[0.0], [1e200], [1.0], [2.0], [3.0]])
        labels = [0, 0, 1, 0, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            dist = losses.distance_matrix(e)
            assert dist[0, 1] == np.inf and np.isnan(dist[1, 1])
            a, p, n = assert_semihard_rule(e, labels)
        # nothing is farther than inf: the farthest negative, 4
        assert n[(a == 0) & (p == 1)].tolist() == [4]

    def test_sign_bit_nan_from_inf_minus_inf(self):
        # rows 0 and 1 both square to inf: their d^2 is inf + inf - inf, a
        # NaN whose sign bit is set where the default NaN is negative (x86)
        e = np.array([[1e200], [1e200], [0.0], [1.0], [2.0], [-1.0]])
        labels = [0, 1, 0, 1, 1, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            dist = losses.distance_matrix(e)
            assert np.isnan(dist[0, 1])
            assert_semihard_rule(e, labels)

    @pytest.mark.parametrize("value", [-0.0, np.copysign(np.nan, -1.0),
                                       np.nan, np.inf, 0.0])
    @pytest.mark.parametrize("seed", range(10))
    def test_odd_values_in_random_cells(self, value, seed, monkeypatch):
        # several cells of a row at one value, among negatives and positives
        rng = np.random.default_rng(1300 + seed)
        n = int(rng.integers(6, 40))
        e = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n)
        rows = rng.integers(0, n, size=3 * n)
        cols = rng.integers(0, n, size=3 * n)
        distance_matrix = losses.distance_matrix

        def odd(values):
            dist = distance_matrix(values)
            dist[rows, cols] = value
            return dist

        monkeypatch.setattr(losses, "distance_matrix", odd)
        assert np.signbit(odd(e)[rows, cols]).all() == np.signbit(value)
        assert_semihard_rule(e, labels)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(257, 300),
           dim=st.integers(1, 8), num_classes=st.integers(1, 7),
           kind=st.sampled_from(MINING_KINDS))
    def test_nine_bit_columns(self, seed, n, dim, num_classes, kind):
        e, labels = make_mining_batch(seed, n, dim, num_classes, kind)
        assert_semihard_rule(e, labels)


@functools.cache
def canonical_training_splits():
    """The canonical config and each canonical domain's training split."""
    cfg = harness.canonical_experiment_config()
    rng = np.random.default_rng(0)
    return cfg, {k: bench.train_test_split(d, cfg.train_fraction, rng)[0]
                 for k, d in bench.canonical_datasets().items()}


class TestTriplet:
    def test_easy_triplet_zero(self):
        # d(a,p)=0, d(a,n)=2, margin 1 -> max(0, 0 - 4 + 1) = 0
        e = ad.leaf([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        loss = losses.triplet_loss_semihard(e, [0, 0, 1], 1.0)
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)

    def test_coincident_samples_give_margin(self):
        e = ad.leaf([[0.3, 0.4], [0.3, 0.4], [0.3, 0.4]])
        loss = losses.triplet_loss_semihard(e, [0, 0, 1], 0.7)
        assert float(loss.value) == pytest.approx(0.7, abs=1e-12)

    def test_hand_value_mixed_branches(self):
        # anchor 0 / pos 1: semi-hard negative at 1.5 -> relu(1 - 2.25 + 0.5) = 0
        # anchor 1 / pos 0: no farther negative, fallback -> relu(1 - 0.25 + 0.5)
        e = ad.leaf([[0.0], [1.0], [1.5]])
        loss = losses.triplet_loss_semihard(e, [0, 0, 1], 0.5)
        assert float(loss.value) == pytest.approx(0.625, abs=1e-12)

    def test_semihard_selection(self):
        # negatives at d=0.8 (hard), 1.5 (semi-hard), 3.0 (easy); d(a,p)=1
        e = ad.leaf([[0.0], [1.0], [0.8], [1.5], [3.0]])
        labels = [0, 0, 1, 1, 1]
        a, p, n = losses.mine_semihard_triplets(e.value, labels)
        picked = {(ai, pi): ni for ai, pi, ni in zip(a, p, n)}
        assert picked[(0, 1)] == 3  # closest negative beyond the positive

    def test_fallback_to_farthest_negative(self):
        # all negatives closer than the positive -> farthest negative
        e = ad.leaf([[0.0], [2.0], [0.3], [0.6]])
        labels = [0, 0, 1, 1]
        a, p, n = losses.mine_semihard_triplets(e.value, labels)
        picked = {(ai, pi): ni for ai, pi, ni in zip(a, p, n)}
        assert picked[(0, 1)] == 3

    def test_no_triplet_returns_zero(self):
        e = ad.leaf([[0.0, 1.0], [1.0, 0.0]])
        loss = losses.triplet_loss_semihard(e, [0, 1], 1.0)
        assert float(loss.value) == 0.0

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_every_training_draw_holds_a_triplet(self, data):
        # validate asks for two rows per class and every draw is stratified,
        # so the stacked sources of a step always hold a triplet
        cfg, splits = canonical_training_splits()
        ids = data.draw(st.lists(st.sampled_from(sorted(splits)), min_size=1,
                                 unique=True), label="sources")
        classes = max(splits[k].num_classes for k in ids)
        size = data.draw(st.integers(2 * classes,
                                     min(len(splits[k]) for k in ids)),
                         label="batch_size")
        seed = data.draw(st.integers(0, 2**32 - 1), label="run seed")
        hp = replace(cfg.hp, batch_size=size)
        state = engine.make_state(harness.architecture(cfg, splits), hp, seed)
        batches = engine.draw_batches({k: splits[k] for k in ids}, size,
                                      state.data_rng)
        features, labels = (np.concatenate(part) for part in zip(*batches.values()))
        anchors, _, _ = losses.mine_semihard_triplets(features, labels)
        assert anchors.size > 0

    def test_permutation_invariant_value(self):
        rng = np.random.default_rng(6)
        e_val = rng.normal(size=(10, 3))
        labels = rng.integers(0, 3, size=10)
        base = float(losses.triplet_loss_semihard(ad.leaf(e_val), labels, 1.0).value)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(10)
            permuted = float(losses.triplet_loss_semihard(
                ad.leaf(e_val[perm]), labels[perm], 1.0).value)
            assert permuted == pytest.approx(base, abs=1e-12)

    def test_mines_through_the_module_attribute_once(self, monkeypatch):
        # the benchmark's tracer wraps losses.mine_semihard_triplets to count
        # the triplets, so the loss must call it by attribute, exactly once
        rng = np.random.default_rng(12)
        e = ad.leaf(rng.normal(size=(12, 3)))
        labels = rng.integers(0, 3, size=12)
        calls = []
        mine = losses.mine_semihard_triplets
        monkeypatch.setattr(losses, "mine_semihard_triplets",
                            lambda *args: calls.append(args) or mine(*args))
        losses.triplet_loss_semihard(e, labels, 1.0)
        assert len(calls) == 1
        values, got_labels = calls[0]
        assert values is e.value
        np.testing.assert_array_equal(got_labels, labels)

    @pytest.mark.parametrize("n", [75, 150])
    def test_value_and_gradient_ignore_triplet_order(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        e_val = rng.normal(size=(n, 4))
        labels = rng.integers(0, 3, size=n)

        def loss_and_grad():
            e = ad.leaf(e_val)
            loss = losses.triplet_loss_semihard(e, labels, 1.0)
            return loss.value.tobytes(), ad.grad(loss, [e])[e].value.tobytes()

        want = loss_and_grad()
        mine = losses.mine_semihard_triplets

        def shuffled(*args):
            triplets = mine(*args)
            perm = rng.permutation(triplets[0].size)
            return tuple(x[perm] for x in triplets)

        monkeypatch.setattr(losses, "mine_semihard_triplets", shuffled)
        assert loss_and_grad() == want

    @staticmethod
    def _assert_matches_reference(embed, params, labels, margin):
        def loss_and_grads(fn):
            loss = fn(embed(), labels, margin)
            grads = ad.grad(loss, params)
            return float(loss.value), [grads[t].value for t in params]

        want, want_grads = loss_and_grads(reference_triplet_loss_semihard)
        got, got_grads = loss_and_grads(losses.triplet_loss_semihard)
        assert got == pytest.approx(want, rel=1e-10, abs=0)
        # entries that cancel to rounding noise are held to their tensor's
        # scale, not to their own
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=1e-10,
                                       atol=1e-13 * np.abs(w).max())

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_row_gather_reference(self, seed):
        # psi/phi gradients through the networks. The embedding width starts
        # at 2: a normalized 1-wide embedding is +-1 up to the 1e-12 division
        # guard, so its rows coincide to ~1e-12, below what the Gram form
        # resolves, and every psi/phi gradient is ~1e-10 rounding residue.
        rng = np.random.default_rng(700 + seed)
        n, dim = int(rng.integers(10, 151)), int(rng.integers(2, 9))
        arch = nets.Architecture(input_dim=4, num_classes=3,
                                 feature_widths=(6, 5), metric_widths=(5, dim))
        psi, _, phi = nets.init_params(arch, seed)
        x = ad.const(rng.normal(size=(n, 4)))
        self._assert_matches_reference(
            lambda: nets.metric_forward(phi, nets.feature_forward(psi, x)),
            psi.tensors + phi.tensors,
            rng.integers(0, int(rng.integers(2, 8)), size=n),
            float(rng.uniform(0.1, 1.0)))

    def test_gradients_pass_fd(self):
        psi, _, phi = make_params(6)
        rng = np.random.default_rng(10)
        for n in (8, 150):  # 150 is the wide batch of three 50-sample sources
            x, labels = make_batch(rng, n=n)
            z = nets.feature_forward(psi, ad.const(x))
            e = nets.metric_forward(phi, z)
            loss = losses.triplet_loss_semihard(e, labels, 1.0)
            assert ad.finite_diff_check(loss, phi.tensors + psi.tensors) < 1e-5

    def test_contrastive_gradients_pass_fd(self):
        psi, _, phi = make_params(7)
        rng = np.random.default_rng(11)
        x, labels = make_batch(rng, n=8)
        e = nets.metric_forward(phi, nets.feature_forward(psi, ad.const(x)))
        loss = losses.contrastive_loss(e, labels, 1.0, np.random.default_rng(2))
        assert ad.finite_diff_check(loss, phi.tensors + psi.tensors) < 1e-5


def triplet_hinges(e_val, labels, margin):
    """Every mined triplet's d(a,p)^2 - d(a,n)^2 + margin, by the miner's rule."""
    a, p, n = losses.mine_semihard_triplets(e_val, labels)
    d2 = losses.distance_matrix(e_val) ** 2
    return d2[a, p] - d2[a, n] + margin


class TestTripletQuadraticForm:
    """The quadratic-form hinge against the row-gather hinge: loss, and the
    gradient in value mode and in graph mode."""

    @staticmethod
    def loss_and_grads(fn, e_val, labels, margin):
        e = ad.leaf(e_val)
        loss = fn(e, labels, margin)
        graph = ad.grad(loss, [e])[e]
        with ad.values_only():
            values = ad.grad(loss, [e])[e]
        return float(loss.value), graph.value, values.value

    def assert_matches_reference(self, e_val, labels, margin):
        got = self.loss_and_grads(losses.triplet_loss_semihard, e_val, labels, margin)
        want = self.loss_and_grads(reference_triplet_loss_semihard,
                                   e_val, labels, margin)
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
        # entries that cancel to rounding noise are held to their tensor's
        # scale, not to their own
        for g, w in zip(got[1:], want[1:]):
            np.testing.assert_allclose(g, w, rtol=1e-12,
                                       atol=1e-12 * np.abs(w).max())
        return got

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_graph_hinge(self, seed):
        rng = np.random.default_rng(900 + seed)
        n, dim = int(rng.integers(6, 151)), int(rng.integers(1, 9))
        labels = rng.integers(0, int(rng.integers(2, 8)), size=n)
        self.assert_matches_reference(rng.normal(size=(n, dim)), labels,
                                      float(rng.uniform(0.1, 2.0)))

    @pytest.mark.parametrize("n", [6, 40, 150])
    def test_some_triplets_inactive(self, n):
        rng = np.random.default_rng(n)
        e_val, labels = rng.normal(size=(n, 3)), np.arange(n) % 3
        # half the hinges below 0 at this margin
        margin = -float(np.median(triplet_hinges(e_val, labels, 0.0)))
        hinges = triplet_hinges(e_val, labels, margin)
        assert 0 < np.count_nonzero(hinges > 0) < hinges.size
        self.assert_matches_reference(e_val, labels, margin)

    @pytest.mark.parametrize("n", [6, 150])
    def test_all_triplets_inactive_give_zero(self, n):
        rng = np.random.default_rng(n)
        labels = np.arange(n) % 3
        e_val = 10.0 * np.eye(3)[labels] + 0.01 * rng.normal(size=(n, 3))
        assert (triplet_hinges(e_val, labels, 0.5) < 0).all()
        loss, graph, values = self.assert_matches_reference(e_val, labels, 0.5)
        assert loss == 0.0
        assert not graph.any() and not values.any()

    def test_hinge_of_exactly_zero_is_inactive(self):
        # anchor 0 / pos 1 / neg 2: 1 - 4 + 3 = 0, not counted;
        # anchor 1 / pos 0 / neg 2 (fallback): 1 - 1 + 3 = 3
        e_val, labels = np.array([[0.0], [1.0], [2.0]]), np.array([0, 0, 1])
        loss, graph, _ = self.assert_matches_reference(e_val, labels, 3.0)
        assert loss == 1.5
        # gradient of ((e1 - e0)^2 - (e1 - e2)^2) / 2
        np.testing.assert_array_equal(graph, [[-1.0], [2.0], [-1.0]])

    def test_no_triplet_is_zero(self):
        e_val = np.random.default_rng(0).normal(size=(6, 2))
        loss, graph, values = self.assert_matches_reference(
            e_val, np.zeros(6, dtype=int), 1.0)
        assert loss == 0.0
        assert not graph.any() and not values.any()

    def test_graph_is_one_quadratic_form(self):
        rng = np.random.default_rng(1)
        e = ad.leaf(rng.normal(size=(20, 3)))
        loss = losses.triplet_loss_semihard(e, np.arange(20) % 4, 1.0)
        ops, stack = [], [loss]
        while stack:
            node = stack.pop()
            if node.inputs:
                ops.append(node.op)
                stack.extend(node.inputs)
        assert sorted(ops) == ["add", "matmul", "mul", "sum"]


class TestHingeCells:
    """The hinge reads d^2 at its triplets' cells only, by the same float
    expression as the [N, N] matrix."""

    @pytest.mark.parametrize("seed", range(20))
    def test_cells_equal_the_matrix_bit_for_bit(self, seed):
        rng = np.random.default_rng(1400 + seed)
        n = int(rng.integers(2, 151))
        e = rng.normal(size=(n, int(rng.integers(1, 9))))
        e[rng.integers(0, n, size=n // 3)] = e[rng.integers(0, n, size=n // 3)]
        e[rng.integers(0, n)] = 0.0
        d2 = losses._sq_dists(e)
        rows = rng.integers(0, n, size=300)
        cols = rng.integers(0, n, size=(2, 300))  # the hinge's [2, T] form
        got = losses._sq_dists(e, rows, cols)
        assert got.shape == cols.shape
        np.testing.assert_array_equal(got.view(np.int64),
                                      d2.ravel()[rows * n + cols].view(np.int64))
        assert not got[rows == cols].any()  # the diagonal is exactly 0

    @pytest.mark.parametrize("seed", range(20))
    def test_active_triplets_follow_the_matrix_rule(self, seed, monkeypatch):
        rng = np.random.default_rng(1500 + seed)
        n, dim = int(rng.integers(6, 151)), int(rng.integers(1, 9))
        e_val = rng.normal(size=(n, dim))
        e_val[1] = e_val[0]  # coincident rows
        labels = rng.integers(0, int(rng.integers(2, 6)), size=n)
        margin = -float(np.median(triplet_hinges(e_val, labels, 0.0)))
        weights = []
        form = losses._pair_form
        monkeypatch.setattr(losses, "_pair_form", lambda a, b, w, scale:
                            weights.append(w) or form(a, b, w, scale))
        losses.triplet_loss_semihard(ad.leaf(e_val), labels, margin)
        a, p, neg = losses.mine_semihard_triplets(e_val, labels)
        d2 = losses._sq_dists(e_val).ravel()
        ap, an = a * n + p, a * n + neg
        active = (d2[ap] - d2[an]) + margin > 0.0
        assert 0 < np.count_nonzero(active) < active.size
        w = np.bincount(an[active], minlength=n * n)
        w -= np.bincount(ap[active], minlength=n * n)
        np.testing.assert_array_equal(weights[0], w.reshape(n, n))


def direct_pair_sum(a, b, w, scale):
    """sum_ij -w[i, j] / scale * (a_i - a_j).(b_i - b_j), term by term, and
    the sum of the terms' magnitudes."""
    terms = [-w[i, j] / scale * np.dot(a[i] - a[j], b[i] - b[j])
             for i in range(len(w)) for j in range(len(w))]
    return sum(terms), sum(map(abs, terms))


class TestPairForm:
    """``losses._pair_form``, the Laplacian form of both semantic losses,
    against the direct double sum over row pairs."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           k=st.integers(1, 5), same=st.booleans(),
           integer=st.booleans(), scale=st.floats(0.1, 10.0))
    def test_matches_direct_sum(self, seed, n, k, same, integer, scale):
        rng = np.random.default_rng(seed)
        # asymmetric weights, some rows and columns all zero
        w = rng.integers(-3, 4, size=(n, n)) if integer else rng.normal(size=(n, n))
        w[rng.random(n) < 0.3] = 0
        w[:, rng.random(n) < 0.3] = 0
        a = ad.leaf(rng.normal(size=(n, k)))
        b = a if same else ad.leaf(rng.normal(size=(n, k)))
        got = float(losses._pair_form(a, b, w, scale).value)
        want, magnitude = direct_pair_sum(a.value, b.value, w, scale)
        # terms of both signs can cancel: rounding is held to their magnitude
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13 * magnitude)
        leaves = [a] if same else [a, b]
        loss = losses._pair_form(a, b, w, scale)
        assert ad.finite_diff_check(loss, leaves) < 1e-7

    def test_global_loss_gathers_no_rows(self):
        psi, theta, _ = make_params(3)
        rng = np.random.default_rng(3)
        batches = {k: make_batch(rng) for k in range(3)}
        loss = losses.global_alignment_loss(batches, [(0, 2), (1, 2)], psi,
                                            theta, 2.0, 3)
        ops, stack = set(), [loss]
        while stack:
            node = stack.pop()
            ops.add(node.op)
            stack.extend(node.inputs)
        assert not ops & {"gather_rows", "scatter_rows"}
