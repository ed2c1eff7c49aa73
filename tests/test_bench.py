import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from masf import bench, cli


def small_spec(**kw):
    """Canonical domain 0 (no rotation, scale 1, shift 0) made small."""
    defaults = dict(domain_id=0, n_samples=60, num_classes=3, input_dim=8)
    defaults.update(kw)
    return replace(bench.canonical_domain_specs()[0], **defaults)


class TestDomainSpec:
    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="^scales entry of domain 2 must "
                           "be non-zero to keep the transform invertible, "
                           "got 0.0$"):
            small_spec(domain_id=2, scale=0.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match=r"^n_samples must be at least "
                           r"2 \* num_classes = 6, got 5$"):
            small_spec(n_samples=5)


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
        ds = bench.make_domain(small_spec(num_classes=7, n_samples=14), 0)
        assert set(np.unique(ds.labels)) == set(range(7))

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



def reference_label_counts(num_classes, n):
    """The class sizes make_domain took from uniform class priors before the
    priors were removed: a proportional allocation, every class >= 1."""
    priors = np.full(num_classes, 1.0 / num_classes)
    counts = np.maximum(np.floor(priors * n).astype(np.int64), 1)
    while counts.sum() > n:
        counts[np.argmax(counts)] -= 1
    while counts.sum() < n:
        counts[np.argmin(counts - priors * n)] += 1
    return counts


class TestDomainDataset:
    @pytest.mark.parametrize("labels", [[0.9, 2.5], [0, np.nan], [1, np.inf]])
    def test_labels_not_whole_numbers_rejected(self, labels):
        with pytest.raises(ValueError, match="is not a whole number"):
            bench.DomainDataset(np.zeros((2, 3)), labels, 0)

    @pytest.mark.parametrize("labels, want", [([0.0, 2.0], [0, 2]), ([], [])])
    def test_integral_float_and_empty_labels_accepted(self, labels, want):
        ds = bench.DomainDataset(np.zeros((len(labels), 3)), labels, 0)
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.labels, want)

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="domain 4: label -1 is negative"):
            bench.DomainDataset(np.zeros((3, 2)), [-1, 0, 1], 4)


class TestAsLabels:
    @pytest.mark.parametrize("labels", [[0, 4, 2], [-3, 7], []])
    def test_any_whole_number_without_num_classes(self, labels):
        got = bench.as_labels(labels)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, labels)

    @pytest.mark.parametrize("labels", [[0, 4, 2], [4.0], [],
                                        np.array([0, 1], np.uint8)])
    def test_in_range_accepted(self, labels):
        np.testing.assert_array_equal(bench.as_labels(labels, 5), labels)

    @pytest.mark.parametrize("labels, bad", [([0, 5, 2], 5), ([-1, 0], -1),
                                             ([1.0, 12.0], 12)])
    def test_out_of_range_rejected(self, labels, bad):
        with pytest.raises(ValueError,
                           match=rf"label out of range \[0, 5\): {bad}$"):
            bench.as_labels(labels, 5)

    def test_whole_number_checked_first(self):
        with pytest.raises(ValueError, match="label 9.5 is not a whole number"):
            bench.as_labels([9.5], 5)


def label_counts(num_classes, n):
    ds = bench.make_domain(small_spec(num_classes=num_classes, n_samples=n), 0)
    return np.bincount(ds.labels, minlength=num_classes)


class TestLabelCounts:
    def test_exact_total(self):
        np.testing.assert_array_equal(label_counts(3, 10), [4, 3, 3])

    def test_minimum_one_per_class(self):
        np.testing.assert_array_equal(label_counts(4, 8), [2, 2, 2, 2])

    @given(st.integers(2, 6), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_total_and_floor_invariants(self, c, seed):
        n = int(np.random.default_rng(seed).integers(2 * c, 200))
        counts = label_counts(c, n)
        assert counts.sum() == n
        assert counts.min() >= 1 and counts.max() - counts.min() <= 1

    def test_matches_uniform_prior_reference(self):
        # equal counts give equal labels: old and new sort them by class
        # before the rows are shuffled
        for c in range(2, 40):
            for n in range(2 * c, 1200, 13):
                np.testing.assert_array_equal(
                    label_counts(c, n), reference_label_counts(c, n),
                    err_msg=f"num_classes={c}, n_samples={n}")


def drawn_domain(priors, n, seed):
    """A 3-class domain of ``n`` rows whose labels are drawn from ``priors``
    (None: uniform), every class at least once."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(3), rng.choice(3, size=n - 3, p=priors)])
    features = bench.make_domain(small_spec(n_samples=n), seed).features
    return bench.DomainDataset(features, rng.permutation(labels), 0)


def sparse_domain(n, seed):
    """A 3-class domain of ``n`` rows: one row of class 0, two of class 1."""
    labels = np.concatenate([[0, 1, 1], np.full(n - 3, 2)])
    features = bench.make_domain(small_spec(n_samples=n), seed).features
    return bench.DomainDataset(
        features, np.random.default_rng(seed).permutation(labels), 0)


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
        ds = drawn_domain((0.8, 0.1, 0.1), 60, 1)
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

    def test_unstratified_draw_rejected(self):
        ds = bench.make_domain(small_spec(), 2)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^stratified must be True"):
            bench.sample_batch(ds, 10, False, rng)
        assert rng.bit_generator.state == state

    def test_class_order_computed_once(self):
        ds = drawn_domain((0.6, 0.3, 0.1), 40, 3)
        assert "strata" not in vars(ds)
        bench.sample_batch(ds, 6, True, np.random.default_rng(0))
        counts, order = vars(ds)["strata"]
        np.testing.assert_array_equal(counts, np.bincount(ds.labels))
        np.testing.assert_array_equal(order, np.argsort(ds.labels, kind="stable"))
        bench.sample_batch(ds, 6, True, np.random.default_rng(1))
        assert ds.strata[0] is counts and ds.strata[1] is order

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
                                        (0.05, 0.05, 0.9), (0.34, 0.33, 0.33),
                                        "one-and-two-row-classes"])
    def test_matches_setdiff1d_reference(self, priors):
        for seed in range(25):
            n = 30 + 7 * seed
            ds = (sparse_domain(n, seed) if isinstance(priors, str)
                  else drawn_domain(priors, n, seed))
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


def reference_train_test_split(dataset, train_fraction, rng):
    """The split as first written, one ``flatnonzero`` per class present;
    the library's split must make the same RNG calls and pick the same rows."""
    train_idx, test_idx = [], []
    for cls in np.unique(dataset.labels):
        members = rng.permutation(np.flatnonzero(dataset.labels == cls))
        cut = int(round(train_fraction * len(members)))
        train_idx.extend(members[:cut])
        test_idx.extend(members[cut:])
    return (np.sort(np.asarray(train_idx, dtype=np.int64)),
            np.sort(np.asarray(test_idx, dtype=np.int64)))


class TestTrainTestSplit:
    @pytest.mark.parametrize("labels", [
        "random", [0, 1, 1, 1, 2, 2], [0, 2, 2, 4, 4], [3], []],
        ids=["random", "one-row-class", "label-gap", "one-row", "empty"])
    @pytest.mark.parametrize("fraction", [0.3, 0.5, 0.7])
    def test_matches_per_class_reference(self, labels, fraction):
        for seed in range(25):
            ys = labels
            if labels == "random":
                ys = np.random.default_rng(seed).integers(0, 4, size=20 + seed)
            # each row's feature is its index, so rows give back indices
            ds = bench.DomainDataset(np.arange(len(ys), dtype=float)[:, None],
                                     ys, 0)
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            tr, te = bench.train_test_split(ds, fraction, ours)
            want_tr, want_te = reference_train_test_split(ds, fraction, ref)
            assert tr.features[:, 0].astype(np.int64).tobytes() == want_tr.tobytes()
            assert te.features[:, 0].astype(np.int64).tobytes() == want_te.tobytes()
            assert ours.bit_generator.state == ref.bit_generator.state

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

    def test_each_part_sorts_its_own_rows(self):
        ds = bench.make_domain(small_spec(), 4)
        for part in bench.train_test_split(ds, 0.7, np.random.default_rng(0)):
            counts, order = part.strata
            np.testing.assert_array_equal(counts, np.bincount(part.labels))
            np.testing.assert_array_equal(
                order, np.argsort(part.labels, kind="stable"))

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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"domain,label,f0,f1\n0,1,0.5,0.25\n0,0,0.5,{cell}\n")
        with pytest.raises(ValueError) as err:
            bench.import_csv(path)
        assert str(err.value) == (f"{path}, row 3, column 'f1': expected "
                                  f"a finite float, got {cell!r}")

    def test_negative_label_names_file_and_domain(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("domain,label,f0\n2,1,0.5\n2,-1,0.5\n")
        with pytest.raises(ValueError) as err:
            bench.import_csv(path)
        assert str(err.value) == f"{path}: domain 2: label -1 is negative"

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

    def test_exponent_strings_read_as_floats(self):
        # YAML 1.1 reads 1e-5 as a string; int keys still take only ints
        specs = bench.canonical_domain_specs(
            {"noise_sigma": "1e-5", "scales": [1, "1e-1", 1, 1]})
        assert specs == bench.canonical_domain_specs(
            {"noise_sigma": 1.0e-5, "scales": [1, 0.1, 1, 1]})
        assert all(type(s.noise_sigma) is float for s in specs)
        for overrides in [{"n_samples": "1e3"}, {"noise_sigma": "nan"},
                          {"scales": [1, "inf", 1, 1]}, {"noise_sigma": "x"}]:
            with pytest.raises(ValueError, match=repr(next(iter(overrides)))):
                bench.canonical_domain_specs(overrides)

    def test_nonfinite_features_rejected_naming_domain_and_keys(self):
        # no RuntimeWarning either: pytest turns one into an error
        with pytest.raises(
                ValueError, match="^benchmark domain 3 has non-finite features; "
                "its rotations_deg, scales and shifts entries are 90.0, 1e[+]308 "):
            bench.canonical_datasets({"scales": [1, 1, 1, 1e308]})

    @pytest.mark.parametrize("key, values", [
        ("noise_sigma", "1e+308, 0.55, 2.0 and 1.2"),
        ("latent_sigma", "0.25, 1e+308, 2.0 and 1.2")])
    def test_overflowing_sigma_rejected_naming_it(self, key, values):
        with pytest.raises(ValueError, match=re.escape(
                "; its rotations_deg, scales and shifts entries are 0.0, 1.0 and "
                "0.0, and noise_sigma, latent_sigma, variant_radius and "
                f"invariant_radius are {values}") + "$"):
            bench.canonical_datasets({key: 1e308})

    def test_spec_file_matches_builtin(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(bench.CANONICAL, sort_keys=False))
        assert cli.load_spec_file(path) == bench.CANONICAL

    def test_partial_spec_file_keeps_other_canonical_keys(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("num_classes: 3\nbase_seed: 7\n")
        overrides = cli.load_spec_file(path)
        assert overrides == {"num_classes": 3, "base_seed": 7}
        specs = bench.canonical_domain_specs(overrides)
        assert specs == [replace(s, num_classes=3)
                         for s in bench.canonical_domain_specs()]

    @pytest.mark.parametrize("text", ["[1, 2]\n", "7\n", "just text\n"])
    def test_spec_file_not_a_mapping_names_path(self, tmp_path, text):
        path = tmp_path / "spec.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match="spec.yaml.*mapping"):
            cli.load_spec_file(path)

    # sha256 of the domains' features, then of their labels, in domain order.
    # The feature bits come from libm and BLAS, so that digest holds on the
    # host that pinned it (x86-64, numpy 2.4.6) and may not on another.
    @pytest.mark.parametrize("overrides, features, labels", [
        ({}, "9b7123b6b8eafde0c9bf51f3ed319457ae5947853888dc60abc3675a71de15a8",
         "0c8d042ff0638bca6d693865e8dba3c567bb5d6b8befdbf9e6ea5aa1c0b50a32"),
        ({"n_samples": 503},
         "f6e0b4a40a76c6e7d9c77ad391d6f1cfab1d74f38b3ff7ac626a9fa688e47ab4",
         "d80596f36bd349e35279e8405650596bd46d6cd07b4c3c80947561192560639a"),
        ({"num_classes": 3, "n_samples": 100},
         "0c85b5ce2e8b4cdc21fa9dc4fc9d9eded06fe9101dc107799233af60ce347007",
         "285704e36f17f0517ecff58cfc08b7c760497e40cfda54d842829e550dd95202"),
    ])
    def test_canonical_data_is_pinned(self, overrides, features, labels):
        ds = bench.canonical_datasets(overrides)
        for digest, field in ((features, "features"), (labels, "labels")):
            data = b"".join(getattr(ds[k], field).tobytes() for k in sorted(ds))
            assert hashlib.sha256(data).hexdigest() == digest, field

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
