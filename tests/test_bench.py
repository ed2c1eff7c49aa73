import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from masf import bench


def small_spec(**kw):
    defaults = dict(domain_id=0, n_samples=60, num_classes=3, input_dim=8)
    defaults.update(kw)
    return bench.DomainSpec(**defaults)


class TestDomainSpec:
    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            small_spec(scale=0.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            small_spec(n_samples=5)

    def test_bad_priors_rejected(self):
        with pytest.raises(ValueError):
            small_spec(class_priors=(0.5, 0.5))
        with pytest.raises(ValueError):
            small_spec(class_priors=(0.5, 0.4, 0.2))

    def test_default_priors_uniform(self):
        np.testing.assert_allclose(small_spec().priors, 1.0 / 3)


class TestMakeDomain:
    def test_deterministic(self):
        a = bench.make_domain(small_spec(), 7)
        b = bench.make_domain(small_spec(), 7)
        assert a.features.tobytes() == b.features.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = bench.make_domain(small_spec(), 7)
        b = bench.make_domain(small_spec(), 8)
        assert a.features.tobytes() != b.features.tobytes()

    def test_domains_differ_under_same_seed(self):
        a = bench.make_domain(small_spec(domain_id=0), 7)
        b = bench.make_domain(small_spec(domain_id=1), 7)
        assert a.features.tobytes() != b.features.tobytes()

    def test_shapes_and_label_range(self):
        ds = bench.make_domain(small_spec(), 0)
        assert ds.features.shape == (60, 8)
        assert ds.labels.min() >= 0 and ds.labels.max() < 3

    def test_every_class_present(self):
        skewed = small_spec(class_priors=(0.9, 0.05, 0.05))
        ds = bench.make_domain(skewed, 0)
        assert set(np.unique(ds.labels)) == {0, 1, 2}

    def test_rotation_moves_class_means(self):
        base = bench.make_domain(small_spec(noise_sigma=0.0, latent_sigma=1e-9), 0)
        rot = bench.make_domain(
            small_spec(rotation_deg=90.0, noise_sigma=0.0, latent_sigma=1e-9), 0)
        v = list(bench.VARIANT_DIMS)
        for cls in range(3):
            a = base.features[base.labels == cls][:, v].mean(axis=0)
            b = rot.features[rot.labels == cls][:, v].mean(axis=0)
            # 90-degree rotation: (x, y) -> (-y, x)
            np.testing.assert_allclose(b, [-a[1], a[0]], atol=1e-7)

    def test_rotation_leaves_invariant_dims(self):
        base = bench.make_domain(small_spec(noise_sigma=0.0, latent_sigma=1e-9), 0)
        rot = bench.make_domain(
            small_spec(rotation_deg=90.0, noise_sigma=0.0, latent_sigma=1e-9), 0)
        iv = list(bench.INVARIANT_DIMS)
        order_a = np.argsort(base.labels, kind="stable")
        order_b = np.argsort(rot.labels, kind="stable")
        np.testing.assert_allclose(base.features[order_a][:, iv],
                                   rot.features[order_b][:, iv], atol=1e-7)

    def test_scale_and_shift_applied(self):
        plain = bench.make_domain(small_spec(noise_sigma=0.0), 0)
        moved = bench.make_domain(
            small_spec(noise_sigma=0.0, scale=2.0, shift=1.0), 0)
        order_a = np.argsort(plain.labels, kind="stable")
        order_b = np.argsort(moved.labels, kind="stable")
        np.testing.assert_allclose(moved.features[order_b],
                                   plain.features[order_a] * 2.0 + 1.0,
                                   atol=1e-9)

    def test_permutation_preserves_multiset(self):
        plain = bench.make_domain(small_spec(), 3)
        perm = bench.make_domain(small_spec(permute_features=True), 3)
        np.testing.assert_allclose(np.sort(plain.features, axis=1),
                                   np.sort(perm.features, axis=1), atol=1e-12)
        assert plain.features.tobytes() != perm.features.tobytes()


class TestLabelCounts:
    def test_exact_total(self):
        counts = bench._label_counts(np.array([0.5, 0.3, 0.2]), 10)
        assert counts.sum() == 10
        np.testing.assert_array_equal(counts, [5, 3, 2])

    def test_minimum_one_per_class(self):
        counts = bench._label_counts(np.array([0.98, 0.01, 0.01]), 20)
        assert counts.min() >= 1 and counts.sum() == 20

    @given(st.integers(2, 6), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_total_and_floor_invariants(self, c, seed):
        rng = np.random.default_rng(seed)
        priors = rng.dirichlet(np.ones(c))
        n = int(rng.integers(2 * c, 200))
        counts = bench._label_counts(priors, n)
        assert counts.sum() == n
        assert counts.min() >= 1


class TestLeaveOneOut:
    def test_four_domains(self):
        splits = bench.leave_one_out_splits([0, 1, 2, 3])
        assert len(splits) == 4
        for sources, target in splits:
            assert target not in sources
            assert sorted(sources + [target]) == [0, 1, 2, 3]

    def test_too_few_domains(self):
        with pytest.raises(ValueError):
            bench.leave_one_out_splits([0])


def reference_sample_batch(dataset, batch_size, rng):
    """The stratified draw as first written, with ``np.setdiff1d``; the
    library's draw must make the same RNG calls and pick the same rows."""
    c = dataset.num_classes
    chosen = []
    for cls in range(c):
        members = np.flatnonzero(dataset.labels == cls)
        chosen.append(rng.choice(members))
    chosen = np.asarray(chosen)
    remaining = np.setdiff1d(np.arange(len(dataset)), chosen)
    extra = rng.choice(remaining, size=batch_size - c, replace=False)
    idx = rng.permutation(np.concatenate([chosen, extra]))
    return dataset.features[idx], dataset.labels[idx]


class TestSampleBatch:
    def test_stratified_covers_all_classes(self):
        ds = bench.make_domain(small_spec(class_priors=(0.8, 0.1, 0.1)), 1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            batch = bench.sample_batch(ds, 6, True, rng)
            assert set(np.unique(batch.labels)) == {0, 1, 2}

    def test_no_replacement(self):
        ds = bench.make_domain(small_spec(), 2)
        batch = bench.sample_batch(ds, 60, True, np.random.default_rng(1))
        # a full-size batch must be a permutation of the dataset
        np.testing.assert_array_equal(np.sort(batch.labels),
                                      np.sort(ds.labels))

    def test_oversized_batch_rejected(self):
        ds = bench.make_domain(small_spec(), 2)
        with pytest.raises(ValueError):
            bench.sample_batch(ds, 61, False, np.random.default_rng(0))

    def test_batch_smaller_than_classes_rejected(self):
        ds = bench.make_domain(small_spec(), 2)
        with pytest.raises(ValueError):
            bench.sample_batch(ds, 2, True, np.random.default_rng(0))

    def test_missing_class_rejected(self):
        ds = bench.make_domain(small_spec(), 2)
        gap = bench.DomainDataset(ds.features, np.where(ds.labels == 1, 2,
                                                        ds.labels), 7)
        with pytest.raises(ValueError, match="domain 7 has no row of class 1"):
            bench.sample_batch(gap, 10, True, np.random.default_rng(0))

    def test_deterministic_under_seed(self):
        ds = bench.make_domain(small_spec(), 2)
        a = bench.sample_batch(ds, 10, True, np.random.default_rng(5))
        b = bench.sample_batch(ds, 10, True, np.random.default_rng(5))
        np.testing.assert_array_equal(a.features, b.features)

    @pytest.mark.parametrize("priors", [None, (0.6, 0.3, 0.1),
                                        (0.05, 0.05, 0.9), (0.34, 0.33, 0.33)])
    def test_matches_setdiff1d_reference(self, priors):
        for seed in range(25):
            ds = bench.make_domain(
                small_spec(n_samples=30 + 7 * seed, class_priors=priors), seed)
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for batch_size in (3, 4, 11, len(ds) // 2, len(ds)):
                got = bench.sample_batch(ds, batch_size, True, ours)
                want_x, want_y = reference_sample_batch(ds, batch_size, ref)
                assert got.features.tobytes() == want_x.tobytes()
                np.testing.assert_array_equal(got.labels, want_y)
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_canonical_draws_match_setdiff1d_reference(self):
        datasets = bench.canonical_datasets()
        ours, ref = np.random.default_rng(0), np.random.default_rng(0)
        for _ in range(100):
            for k in sorted(datasets):
                got = bench.sample_batch(datasets[k], 25, True, ours)
                want_x, want_y = reference_sample_batch(datasets[k], 25, ref)
                assert got.features.tobytes() == want_x.tobytes()
                np.testing.assert_array_equal(got.labels, want_y)


class TestTrainTestSplit:
    def test_disjoint_and_complete(self):
        ds = bench.make_domain(small_spec(), 4)
        tr, te = bench.train_test_split(ds, 0.7, np.random.default_rng(0))
        assert len(tr) + len(te) == len(ds)
        combined = np.concatenate([tr.features, te.features])
        np.testing.assert_allclose(np.sort(combined, axis=0),
                                   np.sort(ds.features, axis=0))

    def test_stratified_fractions(self):
        ds = bench.make_domain(small_spec(n_samples=90), 4)
        tr, _ = bench.train_test_split(ds, 2.0 / 3.0, np.random.default_rng(0))
        counts = np.bincount(tr.labels, minlength=3)
        np.testing.assert_array_equal(counts, [20, 20, 20])

    def test_bad_fraction(self):
        ds = bench.make_domain(small_spec(), 4)
        for frac in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                bench.train_test_split(ds, frac, np.random.default_rng(0))


class TestCsvRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        ds = [bench.make_domain(small_spec(domain_id=k), 9) for k in range(2)]
        path = tmp_path / "data.csv"
        bench.export_csv(ds, path)
        loaded = bench.import_csv(path)
        assert len(loaded) == 2
        for orig, back in zip(ds, loaded):
            assert back.domain_id == orig.domain_id
            np.testing.assert_array_equal(back.features, orig.features)
            np.testing.assert_array_equal(back.labels, orig.labels)

    def test_blank_lines_hold_no_sample(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("domain,label,f0\n\n0,1,0.5\n\n")
        (ds,) = bench.import_csv(path)
        np.testing.assert_array_equal(ds.features, [[0.5]])
        np.testing.assert_array_equal(ds.labels, [1])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError):
            bench.import_csv(path)


class TestCanonical:
    def test_four_domains_five_classes(self):
        ds = bench.canonical_datasets()
        assert sorted(ds) == [0, 1, 2, 3]
        for d in ds.values():
            assert len(d) == 500
            assert d.num_classes == 5
            assert d.features.shape[1] == 16

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError, match="'bogus'"):
            bench.canonical_datasets({"bogus": 1})

    def test_per_domain_list_shorter_than_num_domains_rejected(self):
        with pytest.raises(ValueError, match="'rotations_deg'.*num_domains=5"):
            bench.canonical_datasets({"num_domains": 5})

    def test_spec_file_matches_builtin(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(bench.CANONICAL, sort_keys=False))
        specs, base_seed = bench.load_spec_file(path)
        assert base_seed == bench.CANONICAL["base_seed"]
        assert specs == bench.canonical_domain_specs()

    def test_partial_spec_file_keeps_other_canonical_keys(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("num_classes: 3\nbase_seed: 7\n")
        specs, base_seed = bench.load_spec_file(path)
        assert base_seed == 7
        assert specs == bench.canonical_domain_specs({"num_classes": 3})

    @pytest.mark.parametrize("text", ["[1, 2]\n", "7\n", "just text\n"])
    def test_spec_file_not_a_mapping_names_path(self, tmp_path, text):
        path = tmp_path / "spec.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match="spec.yaml.*mapping"):
            bench.load_spec_file(path)

    def test_single_domain_model_degrades_on_far_rotation(self):
        # a linear probe fit on domain 0 should lose substantial accuracy on
        # the 90-degree domain compared to its in-domain holdout
        ds = bench.canonical_datasets()
        rng = np.random.default_rng(0)
        tr, te = bench.train_test_split(ds[0], 0.7, rng)

        x, y = tr.features, tr.labels
        onehot = np.eye(5)[y]
        xb = np.hstack([x, np.ones((len(x), 1))])
        w = np.linalg.lstsq(xb, onehot, rcond=None)[0]

        def acc(d):
            pred = np.hstack([d.features, np.ones((len(d), 1))]) @ w
            return np.mean(pred.argmax(1) == d.labels)

        assert acc(te) - acc(ds[3]) > 0.10
