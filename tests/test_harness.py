import warnings
from dataclasses import replace
from xml.etree import ElementTree

import numpy as np
import pytest
import yaml

from masf import autodiff as ad
from masf import bench, cli, engine, harness, losses, nets

ARCH = nets.Architecture(input_dim=8, num_classes=3,
                         feature_widths=(10, 6), metric_widths=(8, 4))


def small_datasets(n_domains=3, n=60, seed=11):
    return bench.canonical_datasets({
        "num_domains": n_domains, "n_samples": n, "num_classes": 3,
        "input_dim": 8, "rotations_deg": [30.0 * k for k in range(n_domains)],
        "scales": [1.0] * n_domains, "shifts": [0.0] * n_domains,
        "base_seed": seed})


def tiny_config(**kw):
    hp = engine.Hyperparams(alpha=0.05, eta=0.05, gamma=0.05, beta2=0.005,
                            batch_size=12, decay_every=10)
    defaults = dict(hp=hp, iterations=3, seeds=[0], feature_widths=(10, 6),
                    metric_widths=(8, 4))
    defaults.update(kw)
    return harness.ExperimentConfig(**defaults)


def poison_meta_step(monkeypatch):
    """From iteration 2 on, a NaN weight makes the task loss non-finite."""
    real_step = engine.meta_step

    def poisoned_step(state, batches):
        if state.t == 2:
            w = np.array(state.theta["w0"].value)
            w[0, 0] = np.nan
            theta = state.theta.replace([ad.leaf(w), state.theta["b0"]])
            state = replace(state, theta=theta)
        return real_step(state, batches)

    monkeypatch.setattr(engine, "meta_step", poisoned_step)


class TestEvaluateAccuracy:
    @pytest.mark.parametrize("label", [3, -1])
    def test_label_beyond_logits_rejected(self, label):
        psi, theta, _ = nets.init_params(ARCH, 0)
        ds = bench.DomainDataset(np.zeros((2, ARCH.input_dim)), [0, 1], 0)
        ds.labels[1] = label  # past the dataset's own check
        with pytest.raises(ValueError,
                           match=rf"label out of range \[0, 3\): {label}$"):
            harness.evaluate_accuracy(psi, theta, ds)

    def test_perfect_predictor(self):
        # identity feature net + task head that copies the label dimension
        arch = nets.Architecture(input_dim=3, num_classes=3,
                                 feature_widths=(3,), metric_widths=(3, 2))
        psi, theta, _ = nets.init_params(arch, 0)
        psi = psi.replace([ad.leaf(np.eye(3)), ad.leaf(np.zeros(3))])
        theta = theta.replace([ad.leaf(np.eye(3)), ad.leaf(np.zeros(3))])
        labels = np.array([0, 1, 2, 1])
        ds = bench.DomainDataset(np.eye(3)[labels] * 5.0, labels, 0)
        assert harness.evaluate_accuracy(psi, theta, ds) == 1.0

    def test_half_right(self):
        arch = nets.Architecture(input_dim=2, num_classes=2,
                                 feature_widths=(2,), metric_widths=(2, 2))
        psi, theta, _ = nets.init_params(arch, 0)
        psi = psi.replace([ad.leaf(np.eye(2)), ad.leaf(np.zeros(2))])
        theta = theta.replace([ad.leaf(np.eye(2)), ad.leaf(np.zeros(2))])
        ds = bench.DomainDataset([[3.0, 0.0], [2.0, 0.0]], [0, 1], 0)
        assert harness.evaluate_accuracy(psi, theta, ds) == 0.5

    def test_empty_dataset_rejected(self):
        psi, theta, _ = nets.init_params(ARCH, 0)
        ds = bench.DomainDataset(np.zeros((0, 8)), np.zeros(0, dtype=int), 0)
        with pytest.raises(ValueError):
            harness.evaluate_accuracy(psi, theta, ds)

    @pytest.mark.parametrize("poison", ["overflow", "inf"])
    def test_nonfinite_logits_are_run_failure(self, poison):
        # NaN logits would argmax to class 0 and read as an accuracy; an inf
        # weight gives inf logits without a floating-point flag
        psi, theta, _ = nets.init_params(ARCH, 0)
        if poison == "overflow":
            w0 = ad.leaf(np.sign(psi["w0"].value) * 1e308)
            psi = psi.replace([w0, *psi.tensors[1:]])
        else:
            theta = theta.replace([theta["w0"], ad.leaf([np.inf, 0.0, 0.0])])
        ds = bench.DomainDataset(np.ones((3, ARCH.input_dim)), [0, 1, 2], 7)
        with pytest.raises(engine.NonFiniteLossError,
                           match="^logits on domain 7 are not finite$"):
            harness.evaluate_accuracy(psi, theta, ds)


class TestSilhouette:
    def test_well_separated_clusters(self):
        e = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        s = harness.silhouette_score(e, [0, 0, 1, 1])
        assert s > 0.9

    def test_hand_geometry(self):
        # points at 0 and 1 (class 0) and 5 (class 1):
        # s(0) = (5 - 1)/5, s(1) = (4 - 1)/4, s(5) singleton -> 0
        e = np.array([[0.0], [1.0], [5.0]])
        s = harness.silhouette_score(e, [0, 0, 1])
        expected = (4.0 / 5 + 3.0 / 4 + 0.0) / 3
        assert s == pytest.approx(expected, abs=1e-12)

    def test_interleaved_clusters_negative(self):
        e = np.array([[0.0], [2.0], [0.1], [2.1]])
        assert harness.silhouette_score(e, [0, 0, 1, 1]) < 0

    def test_translation_and_rotation_invariance(self):
        rng = np.random.default_rng(0)
        e = rng.normal(size=(12, 2))
        labels = rng.integers(0, 3, size=12)
        base = harness.silhouette_score(e, labels)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        moved = e @ rot.T + np.array([5.0, -3.0])
        assert harness.silhouette_score(moved, labels) == pytest.approx(
            base, abs=1e-9)

    def test_identical_points_zero(self):
        e = np.zeros((4, 2))
        assert harness.silhouette_score(e, [0, 0, 1, 1]) == 0.0

    def test_nan_embedding_propagates(self):
        e = np.array([[0.0], [1.0], [np.nan], [5.0]])
        assert np.isnan(harness.silhouette_score(e, [0, 0, 1, 1]))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            harness.silhouette_score(np.zeros((3, 2)), [0, 0, 0])

    @pytest.mark.parametrize("e, labels, message", [
        (np.zeros((4, 2)), [0, 0, 1, 1, 1], "5 labels for 4 embedding rows"),
        (np.zeros(4), [0, 0, 1, 1], r"embeddings must be 2-D \[N, d\]"),
    ], ids=["label_count_mismatch", "embeddings_1d"])
    def test_malformed_input_rejected(self, e, labels, message):
        with pytest.raises(ValueError, match=message):
            harness.silhouette_score(e, labels)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            e = np.random.default_rng(seed).normal(size=(10, 3))
            labels = rng.integers(0, 2, size=10)
            assert -1.0 <= harness.silhouette_score(e, labels) <= 1.0


def reference_margin_statistic(psi, phi, domain_a, domain_b, triples):
    """The statistic as a per-pair loop of ``np.linalg.norm`` over the drawn
    (anchor, positive, negative) indices; margin_statistic must give the
    same float on the same indices."""
    e_a, e_b = (nets.metric_forward(
        phi, nets.feature_forward(psi, ad.const(d.features))).value
        for d in (domain_a, domain_b))
    pos, neg = [], []
    for a, p, n in zip(*triples):
        pos.append(np.linalg.norm(e_a[a] - e_b[p]))
        neg.append(np.linalg.norm(e_a[a] - e_b[n]))
    return float(np.mean(neg) - np.mean(pos))


class TestMarginStatistic:
    def _nets(self, seed=0):
        rng = np.random.default_rng(seed)
        psi, _, phi = nets.init_params(ARCH, seed)
        psi = psi.replace([ad.leaf(t.value + rng.normal(0, 0.3, t.shape))
                           for t in psi.tensors])
        return psi, phi

    def test_deterministic_under_seed(self):
        psi, phi = self._nets()
        ds = small_datasets(2)
        a = harness.margin_statistic(psi, phi, ds[0], ds[1], 50,
                                     np.random.default_rng(3))
        b = harness.margin_statistic(psi, phi, ds[0], ds[1], 50,
                                     np.random.default_rng(3))
        assert a == b

    def test_single_class_domain_rejected(self):
        psi, phi = self._nets()
        ds = small_datasets(2)
        mono = bench.DomainDataset(ds[0].features, np.zeros(60, dtype=int), 0)
        with pytest.raises(ValueError):
            harness.margin_statistic(psi, phi, mono, ds[1], 10,
                                     np.random.default_rng(0))

    def test_two_classes_of_any_ids_pass(self):
        # the rule counts the classes present, not the range of the labels
        domain = bench.DomainDataset(np.zeros((6, 2)), [0, 3, 0, 3, 3, 0], 0)
        anchors, positives, negatives = harness.margin_triples(
            domain, domain, 50, np.random.default_rng(0))
        assert np.all(domain.labels[positives] == domain.labels[anchors])
        assert np.all(domain.labels[negatives] != domain.labels[anchors])

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("labels", [[2, 2, 2], []],
                             ids=["one-class", "no-rows"])
    def test_fewer_than_two_classes_rejected(self, labels, side):
        two = bench.DomainDataset(np.zeros((4, 2)), [0, 1, 0, 1], 0)
        few = bench.DomainDataset(np.zeros((len(labels), 2)), labels, 1)
        pair = (few, two) if side == "a" else (two, few)
        with pytest.raises(ValueError,
                           match="margin statistic needs >= 2 classes per domain"):
            harness.margin_triples(*pair, 10, np.random.default_rng(0))

    def test_positive_for_clustered_embeddings(self):
        # with a perfectly clustered metric space the margin must be positive
        arch = nets.Architecture(input_dim=2, num_classes=2,
                                 feature_widths=(2,), metric_widths=(2,))
        psi, _, phi = nets.init_params(arch, 0)
        psi = psi.replace([ad.leaf(np.eye(2)), ad.leaf(np.zeros(2))])
        phi = phi.replace([ad.leaf(np.eye(2)), ad.leaf(np.zeros(2))])
        feats = np.array([[5.0, 0.1], [0.1, 5.0]] * 4)
        labels = np.array([0, 1] * 4)
        ds = bench.DomainDataset(feats, labels, 0)
        m = harness.margin_statistic(psi, phi, ds, ds, 40,
                                     np.random.default_rng(0))
        assert m > 0.5

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_loop(self, seed):
        rng = np.random.default_rng(seed)
        psi, phi = self._nets(seed)

        def domain(n, classes):
            labels = rng.choice(classes, size=n)
            labels[:2] = classes[:2]  # at least two classes
            return bench.DomainDataset(rng.normal(size=(n, 8)), labels, 0)

        domain_a = domain(int(rng.integers(5, 40)), [0, 1, 2])
        # even seeds: class 2 is absent from domain_b, so its anchors are
        # never drawn
        domain_b = domain(int(rng.integers(5, 40)),
                          [0, 1] if seed % 2 == 0 else [1, 2, 0])
        n_pairs = int(rng.integers(1, 300))
        got = harness.margin_statistic(psi, phi, domain_a, domain_b, n_pairs,
                                       np.random.default_rng(seed))
        triples = harness.margin_triples(domain_a, domain_b, n_pairs,
                                         np.random.default_rng(seed))
        want = reference_margin_statistic(psi, phi, domain_a, domain_b,
                                          triples)
        assert got == want

    def test_draw_law(self):
        rng = np.random.default_rng(7)
        # class 3 is absent from domain_b, so its rows of domain_a are not
        # eligible anchors
        domain_a = bench.DomainDataset(np.zeros((40, 2)),
                                       rng.integers(0, 4, size=40), 0)
        domain_b = bench.DomainDataset(np.zeros((30, 2)),
                                       rng.permutation(np.arange(30) % 3), 1)
        n = 20_000
        anchors, positives, negatives = harness.margin_triples(
            domain_a, domain_b, n, np.random.default_rng(0))
        cls_a = domain_a.labels[anchors]
        assert np.all(domain_b.labels[positives] == cls_a)
        assert np.all(domain_b.labels[negatives] != cls_a)
        eligible = np.flatnonzero(domain_a.labels != 3)
        assert eligible.size < len(domain_a)
        assert set(anchors) <= set(eligible)

        def assert_uniform(drawn, pool):
            # multinomial counts of a uniform draw over the pool
            counts = np.bincount(drawn, minlength=pool.max() + 1)[pool]
            assert counts.sum() == drawn.size
            p = 1.0 / pool.size
            sigma = np.sqrt(drawn.size * p * (1 - p))
            assert np.all(np.abs(counts - drawn.size * p) < 5 * sigma)

        assert_uniform(anchors, eligible)
        for c in range(3):
            of_c = cls_a == c
            assert_uniform(positives[of_c],
                           np.flatnonzero(domain_b.labels == c))
            assert_uniform(negatives[of_c],
                           np.flatnonzero(domain_b.labels != c))

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_nonpositive_n_pairs_rejected(self, n_pairs, monkeypatch):
        psi, phi = self._nets()
        ds = small_datasets(2)

        def no_forward(*args):
            raise AssertionError("embedded before n_pairs was checked")

        monkeypatch.setattr(nets, "feature_forward", no_forward)
        with pytest.raises(ValueError, match="n_pairs"):
            harness.margin_statistic(psi, phi, ds[0], ds[1], n_pairs,
                                     np.random.default_rng(0))

    def test_no_shared_class_rejected(self):
        psi, phi = self._nets()
        ds = small_datasets(2)
        a = bench.DomainDataset(ds[0].features, np.arange(60) % 2, 0)
        b = bench.DomainDataset(ds[1].features, 2 + np.arange(60) % 2, 1)
        with pytest.raises(ValueError, match="no class"):
            harness.margin_statistic(psi, phi, a, b, 10,
                                     np.random.default_rng(0))


class TestTargetAlignment:
    def test_identical_domains_near_zero(self):
        psi, theta, _ = nets.init_params(ARCH, 1)
        ds = small_datasets(2)
        assert harness.target_alignment(psi, theta, ds[0], ds[0], 2.0) == \
            pytest.approx(0.0, abs=1e-9)

    def test_value_at_tau_half_is_the_alignment_loss(self):
        psi, theta, _ = nets.init_params(ARCH, 1)
        ds = small_datasets(3)
        batches = {"source": (ds[0].features, ds[0].labels),
                   "target": (ds[2].features, ds[2].labels)}
        loss = losses.global_alignment_loss(batches, [("source", "target")],
                                            psi, theta, 0.5, 3)
        got = harness.target_alignment(psi, theta, ds[0], ds[2], 0.5)
        assert got == float(loss.value)
        assert got != harness.target_alignment(psi, theta, ds[0], ds[2], 1.0)

    def test_nonnegative(self):
        psi, theta, _ = nets.init_params(ARCH, 1)
        rng = np.random.default_rng(0)
        psi = psi.replace([ad.leaf(t.value + rng.normal(0, 0.3, t.shape))
                           for t in psi.tensors])
        ds = small_datasets(3)
        assert harness.target_alignment(psi, theta, ds[0], ds[2], 2.0) >= 0.0


    def test_label_theta_has_no_class_for_rejected(self):
        # theta's output layer sets the classes, as in meta_step
        psi, theta, _ = nets.init_params(ARCH, 1)
        ds = small_datasets(2)
        four = bench.DomainDataset(ds[1].features, np.arange(60) % 4, 1)
        with pytest.raises(ValueError, match=r"label out of range \[0, 3\): 3$"):
            harness.target_alignment(psi, theta, ds[0], four, 2.0)


def _arrays(state, *splits) -> list[np.ndarray]:
    """psi, theta and phi, then the features and labels of each split."""
    out = [t.value for p in (state.psi, state.theta, state.phi) for t in p.tensors]
    for parts in splits:
        assert sorted(parts) == [0, 1]  # target 2 of small_datasets
        out += [a for k in sorted(parts) for a in (parts[k].features, parts[k].labels)]
    return out


class TestPrepareRun:
    def test_run_single_is_prepare_train_evaluate(self):
        cfg, ds, flags = tiny_config(), small_datasets(), harness.ALL_ROWS[7]
        acc, state, train, holdout = harness.run_single(
            cfg, flags, 2, 5, ds, return_state=True)
        start, train2, holdout2 = harness.prepare_run(
            cfg, flags, ds, 2, harness._run_seed(5, 2))
        trained = engine.train(start, train2, cfg.iterations)
        assert acc == harness.evaluate_accuracy(trained.psi, trained.theta, ds[2])
        got = _arrays(state, train, holdout)
        expected = _arrays(trained, train2, holdout2)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)

    def test_flags_change_no_data(self):
        cfg, ds = tiny_config(), small_datasets()
        runs = [harness.prepare_run(cfg, flags, ds, 2, 7)
                for flags in harness.ALL_ROWS]
        for flags, (state, *_) in zip(harness.ALL_ROWS, runs):
            assert (state.hp.episodic, state.hp.use_global,
                    state.hp.use_local) == flags
        first = _arrays(*runs[0])
        for run in runs[1:]:
            for a, b in zip(_arrays(*run), first):
                np.testing.assert_array_equal(a, b)

    def test_batch_beyond_a_split_fails_before_metrics(self, tmp_path):
        # 60 rows of 3 classes per domain: a 0.7 split keeps 14 of each 20
        cfg = tiny_config(hp=replace(tiny_config().hp, batch_size=43))
        path = tmp_path / "metrics.csv"
        with pytest.raises(ValueError, match="^batch_size 43 exceeds domain 0's "
                                             "42-row training split$"):
            harness.run_single(cfg, harness.ALL_ROWS[7], 2, 0,
                               small_datasets(), path)
        assert not path.exists()

    def test_unknown_target_fails_before_any_step(self, tmp_path, monkeypatch):
        def no_step(state, batches):
            raise AssertionError("a meta step ran")

        monkeypatch.setattr(engine, "meta_step", no_step)
        path = tmp_path / "metrics.csv"
        with pytest.raises(ValueError, match=r"^target 7 is not a domain; the "
                                             r"domain ids are \[0, 1, 2\]$"):
            harness.run_single(tiny_config(), harness.ALL_ROWS[7], 7, 0,
                               small_datasets(), path)
        assert not path.exists()


class TestRunExperiment:
    def test_report_shape_and_determinism(self, tmp_path):
        cfg = tiny_config(rows=[harness.ALL_ROWS[0], harness.ALL_ROWS[7]],
                          seeds=[0, 1], out_dir=str(tmp_path / "a"))
        ds = small_datasets()
        r1 = harness.run_experiment(cfg, ds)
        r2 = harness.run_experiment(cfg, ds)
        assert len(r1) == 3 * 2 * 2  # targets x rows x seeds
        assert [r[0] for r in r1[::4]] == [0, 1, 2]  # each domain once
        assert r1 == r2

    def test_report_csv_byte_identical(self, tmp_path):
        ds = small_datasets()
        contents = []
        for sub in ("a", "b"):
            cfg = tiny_config(rows=[harness.ALL_ROWS[0]],
                              out_dir=str(tmp_path / sub))
            harness.run_experiment(cfg, ds)
            contents.append((tmp_path / sub / "report.csv").read_bytes())
        assert contents[0] == contents[1]

    def test_report_summary_groups_flags(self):
        rows = [(0, False, False, False, 0, 0.5),
                (1, False, False, False, 0, 0.7),
                (0, True, True, True, 0, 0.9)]
        summary = harness.summary(rows)
        as_dict = {flags: (m, s) for flags, m, s, _ in summary}
        assert as_dict[(False, False, False)][0] == pytest.approx(0.6)
        assert np.isnan(as_dict[(True, True, True)][1])  # single run

    def test_report_summary_skips_failed_runs(self):
        nan = float("nan")
        rows = [(0, True, True, True, 0, 0.5),
                (1, True, True, True, 0, nan),
                (2, True, True, True, 0, 0.7),
                (0, False, False, False, 0, nan)]
        summary = {flags: rest for flags, *rest in harness.summary(rows)}
        mean, std, failed = summary[(True, True, True)]
        assert mean == pytest.approx(0.6) and failed == 1
        assert std == pytest.approx(np.std([0.5, 0.7], ddof=1))
        mean, std, failed = summary[(False, False, False)]
        assert np.isnan(mean) and np.isnan(std) and failed == 1

    def test_metrics_csv_written(self, tmp_path):
        cfg = tiny_config(rows=[harness.ALL_ROWS[7]], out_dir=str(tmp_path))
        harness.run_experiment(cfg, small_datasets())
        files = list(tmp_path.rglob("metrics.csv"))
        assert len(files) == 3  # one per target
        header = files[0].read_text().splitlines()[0]
        assert header == ",".join(engine.MetricsRecord.FIELDS)

    def test_failed_run_keeps_partial_metrics(self, tmp_path, monkeypatch):
        poison_meta_step(monkeypatch)
        path = tmp_path / "metrics.csv"
        with pytest.raises(engine.NonFiniteLossError,
                           match="task loss is non-finite at iteration 2"):
            harness.run_single(tiny_config(iterations=5), harness.ALL_ROWS[7],
                               2, 0, small_datasets(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(engine.MetricsRecord.FIELDS)
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path / "env"))
        cfg = tiny_config(out_dir=str(tmp_path / "ignored"))
        assert cfg.resolved_out_dir() == tmp_path / "env"

    def test_empty_out_dir_env_is_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MASF_OUT_DIR", "")
        cfg = tiny_config(out_dir=str(tmp_path / "cfg"))
        assert cfg.resolved_out_dir() == tmp_path / "cfg"


class TestCanonicalConfig:
    def test_override_fields(self):
        cfg = harness.canonical_experiment_config(iterations=7)
        assert cfg.iterations == 7
        assert cfg.hp.beta2 == 0.3
        assert cfg.seeds == [0, 1, 2, 3, 4]

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match=r"\['bogus', 'zzz'\]"):
            harness.canonical_experiment_config(zzz=2, bogus=1)

    def test_defaults_are_the_canonical_study(self):
        for command in cli.UNREAD:
            assert (cli._load_config(None, [], command) == harness.ExperimentConfig()
                    == harness.canonical_experiment_config())


class TestSvg:
    def test_writes_polylines(self, tmp_path):
        path = tmp_path / "plot.svg"
        harness.write_svg_lines(path, {"a": [1.0, 2.0, 3.0],
                                       "b": [3.0, 2.0, 1.0]}, title="t")
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<svg")

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            harness.write_svg_lines(tmp_path / "x.svg", {"a": []}, title="t")

    def test_empty_series_creates_no_directory(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to plot"):
            harness.write_svg_lines(tmp_path / "sub" / "x.svg", {"a": []},
                                    title="t")
        assert not (tmp_path / "sub").exists()

    def test_constant_series_no_division_error(self, tmp_path):
        harness.write_svg_lines(tmp_path / "c.svg", {"a": [2.0, 2.0, 2.0]},
                                title="t")

    def test_series_of_one_point_is_skipped(self, tmp_path):
        path = tmp_path / "s.svg"
        harness.write_svg_lines(path, {"one": [1.0], "three": [1.0, 2.0, 3.0]},
                                title="t")
        root = ElementTree.parse(path).getroot()
        svg = "{http://www.w3.org/2000/svg}"
        assert len(list(root.iter(f"{svg}polyline"))) == 1
        assert [t.text for t in root.iter(f"{svg}text")] == ["t", "three"]


class TestCli:
    def test_bench_gen_and_eval_roundtrip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        assert cli.main(["bench-gen"]) == 0
        assert (tmp_path / "benchmark.csv").exists()

    def test_bench_gen_empty_out_dir_env_is_unset(self, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.setenv("MASF_OUT_DIR", "")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["bench-gen", "--out", "gen"]) == 0
        assert (tmp_path / "gen" / "benchmark.csv").exists()
        assert not (tmp_path / "benchmark.csv").exists()

    @pytest.mark.parametrize("spec, key", [
        ("num_classes: 0", "num_classes"), ("input_dim: 3", "input_dim"),
        ("num_domains: 0", "num_domains"),
        ("noise_sigma: -1", "noise_sigma"), ("latent_sigma: -1", "latent_sigma"),
        ("input_dim: 4.5", "input_dim"), ("num_classes: 2.5", "num_classes"),
        ("num_classes: true", "num_classes"), ("n_samples: 1e9", "n_samples"),
        ("rotations_deg: 5", "rotations_deg"),
        ("scales: [1.0, x, 1.0, 1.0]", "scales"),
        ("scales: [.inf, 1.0, 1.0, 1.0]", "scales"),
        ("noise_sigma: .nan", "noise_sigma"),
        ("base_seed: -1", "base_seed"), ("base_seed: 1.5", "base_seed"),
        ("1: 2\nfoo: 3", "unknown benchmark keys: ['foo', 1]"),
        ("scales: [", "spec.yaml: benchmark spec is not valid YAML"),
        ("\xff\xfe: 1", "spec.yaml, byte 0: not UTF-8 (invalid start byte)")])
    def test_bench_gen_bad_spec_is_config_error(self, tmp_path, monkeypatch,
                                                capsys, spec, key):
        (tmp_path / "spec.yaml").write_text(spec + "\n", encoding="latin-1")
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path / "out"))
        assert cli.main(["bench-gen", "--spec", str(tmp_path / "spec.yaml")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out").exists()

    def test_bench_gen_reads_exponent_floats(self, tmp_path, monkeypatch,
                                             capsys):
        # YAML 1.1 reads 1e-5 and 1e-1 as strings, 1.0e-5 and 0.1 as floats
        csv_bytes = []
        for name, spec in [("exp", "noise_sigma: 1e-5\nscales: [1, 1e-1, 1, 1]\n"),
                           ("dec", "noise_sigma: 1.0e-5\nscales: [1, 0.1, 1, 1]\n"),
                           ("canonical", "{}\n")]:
            path = tmp_path / f"{name}.yaml"
            path.write_text(spec)
            monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path / name))
            assert cli.main(["bench-gen", "--spec", str(path)]) == 0
            csv_bytes.append((tmp_path / name / "benchmark.csv").read_bytes())
        exp, dec, canonical = csv_bytes
        assert exp == dec != canonical

    def test_train_writes_artifacts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        code = cli.main(["train", "--seed", "0", "--target", "3",
                         "--set", "iterations=2", "--set", "batch_size=12",
                         "--set", "alpha=0.05", "--set", "eta=0.05",
                         "--set", "gamma=0.05",
                         "--set", "feature_widths=[10, 6]",
                         "--set", "metric_widths=[8, 4]"])
        assert code == 0
        assert (tmp_path / "resolved_config.yaml").exists()
        assert (tmp_path / "metrics.csv").exists()
        ckpts = list(tmp_path.glob("ckpt_*"))
        assert len(ckpts) == 1

        bench.export_csv(list(bench.canonical_datasets().values())[:1],
                         tmp_path / "one.csv")
        code = cli.main(["eval", "--ckpt", str(ckpts[0]),
                         "--data", str(tmp_path / "one.csv")])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("command, output", [("train", "metrics.csv"),
                                                 ("ablate", "report.csv")])
    def test_resolved_config_loads_back(self, tmp_path, monkeypatch, capsys,
                                        command, output):
        # each verb is given only the keys it reads
        sets = ["iterations=2", "alpha=1e-3", "feature_widths=[10, 6]",
                "metric_widths=[8, 4]",
                "bench_overrides={shifts: [0.0, 0.1, 0.2, 0.3]}"]
        if command == "train":
            sets += ["episodic=true", "use_global=false", "use_local=true"]
            args = [command, "--seed", "0", "--target", "3"]
        else:
            sets += ["seeds=[0]", "targets=[3]", "rows=[[true, false, true]]"]
            args = [command]
        args += ["--set", sets[0]]
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path / "first"))
        assert cli.main(args + [a for s in sets[1:] for a in ("--set", s)]) == 0
        resolved = tmp_path / "first" / "resolved_config.yaml"
        assert set(yaml.safe_load(resolved.read_text())).isdisjoint(
            cli.UNREAD[command])
        assert (cli._load_config(str(resolved), [], command)
                == cli._load_config(None, sets, command))

        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path / "second"))
        assert cli.main(args + ["--config", str(resolved)]) == 0
        assert ((tmp_path / "first" / output).read_bytes()
                == (tmp_path / "second" / output).read_bytes())

    def test_non_finite_loss_is_run_failure(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        poison_meta_step(monkeypatch)
        assert cli.main(["train", "--target", "3", "--set", "iterations=5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failure:") and "iteration 2" in err
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]

    def test_ablate_reports_failed_cells(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        real_step, failed = engine.meta_step, []

        def fail_first_full_run(state, batches):
            if state.hp.use_local and not failed:
                failed.append(state.t)
                raise engine.NonFiniteLossError("injected")
            return real_step(state, batches)

        monkeypatch.setattr(engine, "meta_step", fail_first_full_run)
        assert cli.main(["ablate", "--set", "iterations=2",
                         "--set", "seeds=[0, 1]", "--set", "targets=[3]",
                         "--set", "rows=[[false, false, false], [true, true, true]]",
                         "--set", "feature_widths=[10, 6]",
                         "--set", "metric_widths=[8, 4]"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "nan" not in lines[0] and lines[0].endswith("  failed 0")
        assert lines[1].endswith("+/- n/a  failed 1") and "nan" not in lines[1]
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[3] == "3,1,1,1,0,nan"

    @pytest.mark.parametrize("text, reason", [("", "no 'domain,label,...' CSV header"),
                                              ("domain,label,f0\n", "no samples")])
    def test_eval_on_csv_without_samples_is_config_error(self, tmp_path, capsys,
                                                         text, reason):
        data = tmp_path / "data.csv"
        data.write_text(text)
        assert cli.main(["eval", "--ckpt", str(tmp_path), "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{data}: " in err and reason in err

    def test_eval_rejects_csv_of_another_width(self, tmp_path, capsys):
        psi, theta, _ = nets.init_params(ARCH, 0)
        nets.save_params(psi, tmp_path / "psi.bin")
        nets.save_params(theta, tmp_path / "theta.bin")
        data = tmp_path / "data.csv"
        data.write_text("domain,label,f0,f1\n0,1,0.5,0.25\n")
        assert cli.main(["eval", "--ckpt", str(tmp_path), "--data", str(data)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {data} has 2 features per row, but "
            f"{tmp_path / 'psi.bin'} takes {ARCH.input_dim}\n")

    def test_eval_rejects_nonfinite_checkpoint(self, tmp_path, capsys):
        # NaN logits would argmax to class 0 and read as an accuracy
        psi, theta, _ = nets.init_params(ARCH, 0)
        w0 = ad.leaf(np.full(psi["w0"].shape, np.nan))
        nets.save_params(psi.replace([w0, *psi.tensors[1:]]), tmp_path / "psi.bin")
        nets.save_params(theta, tmp_path / "theta.bin")
        data = tmp_path / "data.csv"
        bench.export_csv(list(small_datasets(1).values()), data)
        assert cli.main(["eval", "--ckpt", str(tmp_path), "--data", str(data)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {tmp_path / 'psi.bin'}: w0 holds a NaN or inf entry\n")

    def test_eval_on_overflowing_checkpoint_is_run_failure(self, tmp_path, capsys):
        # finite weights, so load_params takes them; the logits overflow
        psi, theta, _ = nets.init_params(ARCH, 0)
        w0 = ad.leaf(np.sign(psi["w0"].value) * 1e308)
        nets.save_params(psi.replace([w0, *psi.tensors[1:]]), tmp_path / "psi.bin")
        nets.save_params(theta, tmp_path / "theta.bin")
        data = tmp_path / "data.csv"
        bench.export_csv(list(small_datasets(1).values()), data)
        assert cli.main(["eval", "--ckpt", str(tmp_path), "--data", str(data)]) == 2
        assert capsys.readouterr().err == (
            "run failure: logits on domain 0 are not finite\n")

    def test_overflowing_target_logits_are_run_failure(self, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        assert cli.main(["train", "--set", "iterations=1",
                         "--set", "eta=1e308"]) == 2
        assert capsys.readouterr().err == (
            "run failure: logits on domain 3 are not finite\n")
        assert not (tmp_path / "ckpt_1").exists()

    def test_overflowing_benchmark_is_config_error(self, tmp_path, monkeypatch,
                                                   capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        code = cli.main(["train", "--set", "iterations=2", "--set",
                         "bench_overrides={scales: [1, 1, 1, 1e308]}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: benchmark domain 3 has non-finite "
                              "features") and "1e+308" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["noise_sigma", "latent_sigma"])
    def test_negative_zero_sigma_trains(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        assert cli.main(["train", "--set", "iterations=2", "--set",
                         f"bench_overrides={{{key}: -0.0}}"]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_overflowing_grad_norm_is_run_failure(self, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        # a tiny tau, and a benchmark whose gradient squares overflow in
        # global_norm: the engine reports the inf norm, and numpy nothing
        for item in ["tau=1e-300", "bench_overrides={variant_radius: 1e100}"]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy warning reaches the user
                code = cli.main(["train", "--set", "iterations=3", "--set", item])
            assert code == 2
            assert capsys.readouterr().err == (
                "run failure: outer gradient norm is non-finite at iteration 0: inf\n")

    def test_eval_rejects_task_net_of_another_width(self, tmp_path, capsys):
        psi, _, _ = nets.init_params(ARCH, 0)
        _, theta, _ = nets.init_params(replace(ARCH, feature_widths=(10, 4)), 0)
        nets.save_params(psi, tmp_path / "psi.bin")
        nets.save_params(theta, tmp_path / "theta.bin")
        data = tmp_path / "data.csv"
        bench.export_csv(list(small_datasets(1).values()), data)
        assert cli.main(["eval", "--ckpt", str(tmp_path), "--data", str(data)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {tmp_path / 'theta.bin'} takes 4 features, but "
            f"{tmp_path / 'psi.bin'} gives {ARCH.feature_dim}\n")

    @pytest.mark.parametrize("text, where", [
        ("domain,label,f0,f1\n0,1,0.5,0.25\n0,x,0.5,0.25\n",
         "row 3, column 'label': expected int, got 'x'"),
        ("domain,label,f0,f1\n0,1,0.5\n",
         "row 2, column 'f1': expected float, got no cell"),
        ("domain,label,f0\n0,1,0.5,0.25\n", "row 2: more cells than columns"),
        ("domain,label,f0,f1\n0,1,0.5,\xff\n",
         "byte 27: not UTF-8 (invalid start byte)"),
    ], ids=["bad-label", "short-row", "long-row", "not-utf8"])
    def test_eval_names_bad_csv_cell(self, tmp_path, capsys, text, where):
        data = tmp_path / "data.csv"
        data.write_text(text, encoding="latin-1")
        assert cli.main(["eval", "--ckpt", str(tmp_path), "--data", str(data)]) == 1
        assert capsys.readouterr().err == f"config error: {data}, {where}\n"

    @staticmethod
    def _checkpoint_and_rows(tmp_path):
        """An ARCH checkpoint in ``tmp_path``, and two domains as CSV rows,
        each a list of cells, the header first."""
        psi, theta, _ = nets.init_params(ARCH, 0)
        nets.save_params(psi, tmp_path / "psi.bin")
        nets.save_params(theta, tmp_path / "theta.bin")
        data = tmp_path / "data.csv"
        bench.export_csv(list(small_datasets(2).values()), data)
        return [line.split(",") for line in data.read_text().splitlines()]

    @staticmethod
    def _eval(tmp_path, rows):
        data = tmp_path / "data.csv"
        data.write_text("".join(",".join(row) + "\n" for row in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning reaches the user
            return cli.main(["eval", "--ckpt", str(tmp_path), "--data", str(data)])

    def test_eval_rejects_label_beyond_checkpoint_classes(self, tmp_path, capsys):
        rows = self._checkpoint_and_rows(tmp_path)
        for row in rows[1:]:
            if row[0] == "1":
                row[1] = str(int(row[1]) + 7)
        first = next(row[1] for row in rows[1:] if row[0] == "1")
        assert self._eval(tmp_path, rows) == 1
        out, err = capsys.readouterr()
        assert out.startswith("domain 0: accuracy") and "domain 1" not in out
        assert err == (f"config error: {tmp_path / 'data.csv'}, domain 1: label "
                       f"out of range [0, {ARCH.num_classes}): {first}\n")

    def test_eval_rejects_negative_label(self, tmp_path, capsys):
        rows = self._checkpoint_and_rows(tmp_path)
        rows[-1][1] = "-1"
        assert self._eval(tmp_path, rows) == 1
        assert capsys.readouterr() == ("", f"config error: {tmp_path / 'data.csv'}: "
                                           f"domain 1: label -1 is negative\n")

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_eval_rejects_non_finite_feature(self, tmp_path, capsys, cell):
        rows = self._checkpoint_and_rows(tmp_path)
        rows[2][-1] = cell
        assert self._eval(tmp_path, rows) == 1
        assert capsys.readouterr().err == (
            f"config error: {tmp_path / 'data.csv'}, row 3, column "
            f"'f{ARCH.input_dim - 1}': expected a finite float, got {cell!r}\n")

    @pytest.mark.parametrize("text, where", [
        ("iteration,task_loss\n0,1.0\n1,abc\n",
         "row 3, column 'task_loss': expected float, got 'abc'"),
        ("iteration,task_loss\n0,1.0\n1\n",
         "row 3, column 'task_loss': expected float, got no cell"),
        ("iteration,task_loss\n0,1.0\n1,nan\n",
         "row 3, column 'task_loss': expected a finite float, got 'nan'"),
        ("iteration,task_loss\n0,-inf\n1,0.5\n",
         "row 2, column 'task_loss': expected a finite float, got '-inf'"),
        ("iteration,task_loss\n0,1.0\n1,\xff\n",
         "byte 28: not UTF-8 (invalid start byte)"),
    ], ids=["bad-cell", "short-row", "nan", "-inf", "not-utf8"])
    def test_plot_names_bad_csv_cell(self, tmp_path, capsys, text, where):
        metrics = tmp_path / "m.csv"
        metrics.write_text(text, encoding="latin-1")
        out = tmp_path / "m.svg"
        assert cli.main(["plot", "--metrics", str(metrics),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {metrics}, {where}\n"
        assert not out.exists()

    def test_plot_command(self, tmp_path, monkeypatch):
        metrics = tmp_path / "m.csv"
        metrics.write_text("iteration,task_loss\n0,1.0\n1,0.5\n2,0.4\n")
        out = tmp_path / "m.svg"
        assert cli.main(["plot", "--metrics", str(metrics),
                         "--out", str(out)]) == 0
        assert out.exists()

    def test_plot_escapes_markup_in_title_and_legend(self, tmp_path, capsys):
        metrics = tmp_path / "x&y<z>.csv"
        metrics.write_text("a<b&c>\n1\n2\n3\n")
        out = tmp_path / "m.svg"
        assert cli.main(["plot", "--metrics", str(metrics), "--columns",
                         "a<b&c>", "--out", str(out)]) == 0
        root = ElementTree.parse(out).getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts == ["x&y<z>", "a<b&c>"]

    def test_plot_unknown_column_is_config_error(self, tmp_path, capsys):
        metrics = tmp_path / "m.csv"
        metrics.write_text("iteration,task_loss\n0,1.0\n1,0.5\n")
        out = tmp_path / "m.svg"
        assert cli.main(["plot", "--metrics", str(metrics), "--columns",
                         "task_loss", "bogus", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'bogus'" in err
        assert "available: iteration, task_loss" in err
        assert not out.exists()

    def test_plot_without_rows_creates_no_directory(self, tmp_path, capsys):
        metrics = tmp_path / "m.csv"
        metrics.write_text("iteration,task_loss\n")
        out = tmp_path / "plots" / "m.svg"
        assert cli.main(["plot", "--metrics", str(metrics),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {metrics}: nothing to plot, the file has no rows\n")
        assert not out.parent.exists()

    def test_train_with_scientific_notation_override(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        code = cli.main(["train", "--seed", "0", "--target", "3",
                         "--set", "iterations=2", "--set", "batch_size=12",
                         "--set", "alpha=1e-5", "--set", "eta=5e-2",
                         "--set", "feature_widths=[10, 6]",
                         "--set", "metric_widths=[8, 4]"])
        assert code == 0, capsys.readouterr().err

    def test_config_file_numbers_take_declared_types(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("alpha: 1e-5\ngamma: 2\nbatch_size: 1e2\n"
                        "iterations: '7'\ntrain_fraction: 1\n")
        config = cli._load_config(str(path), ["eta=3E-4"], "train")
        assert (config.hp.alpha, config.hp.eta) == (1e-5, 3e-4)
        assert type(config.hp.gamma) is float and config.hp.gamma == 2.0
        assert type(config.hp.batch_size) is int and config.hp.batch_size == 100
        assert type(config.iterations) is int and config.iterations == 7
        assert type(config.train_fraction) is float

    @pytest.mark.parametrize("item", ["alpha=abc", "batch_size=2.5",
                                      "tau=true", "iterations=[3]"])
    def test_unconvertible_number_names_key(self, item):
        key = item.split("=")[0]
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            cli._load_config(None, [item], "train")

    @pytest.mark.parametrize("text", ["5\n", "- a\n", "[]\n", "just text\n"])
    def test_config_not_a_mapping_names_file(self, tmp_path, monkeypatch,
                                             capsys, text):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path / "out"))
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert cli.main(["train", "--config", str(path),
                         "--set", "iterations=1"]) == 1
        assert capsys.readouterr().err == (
            f"config error: {path}: config must be a YAML mapping\n")
        assert not (tmp_path / "out").exists()

    def test_malformed_config_file_is_config_error(self, tmp_path, monkeypatch,
                                                   capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path / "out"))
        path = tmp_path / "cfg.yaml"
        for data, message in [
                (b"alpha: [\n", ": config is not valid YAML: expected the node "
                 "content, but found '<stream end>' at line 2, column 1"),
                (b"\xff\xfe: 1\n", ", byte 0: not UTF-8 (invalid start byte)")]:
            path.write_bytes(data)
            assert cli.main(["train", "--config", str(path)]) == 1
            assert capsys.readouterr().err == f"config error: {path}{message}\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_te", [0, 3])
    def test_n_meta_test_rule_is_the_engine_s(self, tmp_path, monkeypatch,
                                              capsys, n_te):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        assert cli.main(["train", "--set", "iterations=1",
                         "--set", f"n_meta_test={n_te}"]) == 1
        with pytest.raises(ValueError) as engine_error:
            engine.split_domains([0, 1, 2], n_te, np.random.default_rng(0))
        assert capsys.readouterr().err == f"config error: {engine_error.value}\n"

    def test_unconvertible_number_in_file_is_config_error(self, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        path = tmp_path / "cfg.yaml"
        path.write_text("eta: fast\n")
        assert cli.main(["train", "--config", str(path),
                         "--set", "iterations=1"]) == 1
        assert "config error: config key 'eta'" in capsys.readouterr().err

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        # keys of mixed types are all named
        path = tmp_path / "cfg.yaml"
        path.write_text("1: 2\nbogus: 3\n")
        for args, message in [
                (["--set", "bogus=1"], "unknown config keys: ['bogus']"),
                (["--set", "clip_outer=false"], "unknown config keys: ['clip_outer']"),
                (["--config", str(path)], "unknown config keys: ['bogus', 1]"),
                (["--set", "bench_overrides={1: 2, foo: 3}"],
                 "unknown benchmark keys: ['foo', 1]")]:
            assert cli.main(["ablate", *args]) == 1
            assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("item, key", [
        ("bench_overrides={bogus: 1}", "'bogus'"),
        ("bench_overrides={num_domains: 5}", "'rotations_deg'"),
        ("bench_overrides={num_domains: 0}", "num_domains"),
        ("bench_overrides={num_domains: 1}", "num_domains"),
        ("bench_overrides={num_domains: 2}", "num_domains"),
        ("bench_overrides={num_classes: 0}", "num_classes"),
        ("bench_overrides={num_classes: 1}", "num_classes"),
        ("bench_overrides={input_dim: 2}", "input_dim"),
        ("clip_threshold=0", "clip_threshold"),
        ("tau=-1", "tau"),
        ("batch_size=3", "batch_size"),
        ("n_meta_test=0", "n_meta_test"),
        ("n_meta_test=3", "n_meta_test"),
        ("decay_rate=1.5", "decay_rate"),
        ("decay_rate=-0.5", "decay_rate"),
        ("xi=-1", "xi"),
        ("train_fraction=1.5", "train_fraction"),
        ("iterations=0", "iterations"),
        ("batch_size=400", "batch_size"),
        ("feature_widths=5", "feature_widths"),
        ("feature_widths=[8, 2.5]", "feature_widths"),
        ("feature_widths=[8, x]", "feature_widths"),
        ("feature_widths=[true, 4]", "feature_widths"),
        ("metric_widths=[]", "metric_widths"),
        ("metric_widths=[8, 0]", "metric_widths"),
        ("episodic=abc", "episodic"),
        ("seeds=abc", "seeds"),
        ("seeds=[0.5]", "seeds"),
        ("rows=[[1, 1]]", "rows"),
        ("targets=3", "targets"),
        ("bench_overrides=[1]", "bench_overrides"),
        ("n_meta_train=1", "n_meta_train"),
        ("bench_overrides={noise_sigma: -1}", "noise_sigma"),
        ("bench_overrides={latent_sigma: -1}", "latent_sigma"),
        ("bench_overrides={input_dim: 4.5}", "input_dim"),
        ("bench_overrides={num_classes: 2.5}", "num_classes"),
        ("bench_overrides={n_samples: 1e9}", "n_samples"),
        ("bench_overrides={rotations_deg: 5}", "rotations_deg"),
        ("bench_overrides={base_seed: -1}", "base_seed"),
        ("bench_overrides={base_seed: 1.5}", "base_seed"),
        ("bench_overrides={latent_sigma: .inf}", "latent_sigma"),
        ("bench_overrides={n_samples: 7}", "n_samples must be at least "
                                           "2 * num_classes = 10, got 7"),
        ("bench_overrides={scales: [0, 0, 0, 0]}", "scales entry of domain 0 "
                                                   "must be non-zero"),
        ("alpha=.nan", "alpha"), ("eta=.inf", "eta"), ("gamma=.nan", "gamma"),
        ("beta1=.nan", "beta1"), ("beta1=.inf", "beta1"),
        ("beta2=.nan", "beta2"), ("tau=.inf", "tau"), ("xi=.nan", "xi"),
        ("clip_threshold=.inf", "clip_threshold"), ("eta=-.inf", "eta"),
        ("alpha=-1", "alpha"), ("eta=0", "eta"), ("gamma=0", "gamma"),
        ("beta1=-1", "beta1"), ("beta2=-0.5", "beta2"),
        ("local_loss_kind=Triplet", "local_loss_kind"),
        ("alpha=[", "override 'alpha=[' is not valid YAML"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, monkeypatch, capsys,
                                       command, item, key):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        assert cli.main([command, "--set", "iterations=1", "--set", item]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not any(tmp_path.iterdir())  # no resolved_config.yaml either

    @pytest.mark.parametrize("item, message", [
        ("tau=-1", "tau must be positive, got -1.0"),
        ("clip_threshold=0", "clip_threshold must be positive, got 0.0"),
        ("xi=-1", "xi must be non-negative, got -1.0"),
        ("decay_every=0", "decay_every must be >= 1, got 0"),
        ("decay_rate=1.5", "decay_rate must be in [0, 1), got 1.5"),
        ("batch_size=4", "batch_size must be at least 2 * num_classes = 10, got 4")])
    def test_message_gives_key_and_value(self, tmp_path, monkeypatch, capsys,
                                         item, message):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        assert cli.main(["train", "--set", "iterations=1", "--set", item]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, item", [
        (command, item) for command, items in [
            ("train", ["rows=[[true, true, true]]", "seeds=[0]", "targets=[3]"]),
            ("ablate", ["episodic=false", "use_global=false", "use_local=false"])]
        for item in items])
    def test_unread_key_is_config_error(self, tmp_path, monkeypatch, capsys,
                                        command, item):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        assert cli.main([command, "--set", "iterations=1", "--set", item]) == 1
        err = capsys.readouterr().err
        key = item.split("=")[0]
        assert err == f"config error: config keys ['{key}'] are not read by {command}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["rows", "seeds", "targets"])
    def test_empty_grid_is_config_error(self, tmp_path, monkeypatch, capsys,
                                        key):
        # an empty grid would train nothing and write a header-only report
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        assert cli.main(["ablate", "--set", "iterations=1",
                         "--set", f"{key}=[]"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key '{key}' expects ")
        assert "a non-empty list" in err and err.endswith(", got []\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key, value", [
        ("seeds", "[0, 0]"), ("targets", "[3, 1, 3]"),
        ("rows", "[[true, true, true], [false, false, false], [true, true, true]]")])
    def test_duplicate_grid_entry_is_config_error(self, tmp_path, monkeypatch,
                                                  capsys, key, value):
        # a repeated entry would train one cell twice and overwrite its run
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        assert cli.main(["ablate", "--set", "iterations=1",
                         "--set", f"{key}={value}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key '{key}' expects ")
        assert "of distinct" in err
        assert not any(tmp_path.iterdir())

    def test_override_without_equals_is_config_error(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        assert cli.main(["ablate", "--set", "iterations"]) == 1
        assert capsys.readouterr().err == (
            "config error: override 'iterations' is not KEY=VALUE\n")
        assert not any(tmp_path.iterdir())

    def test_ablate_resolved_config_is_not_a_train_config(self, tmp_path,
                                                          monkeypatch, capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path / "ablate"))
        assert cli.main(["ablate", "--set", "iterations=1", "--set", "seeds=[0]",
                         "--set", "targets=[3]",
                         "--set", "rows=[[false, false, false]]"]) == 0
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path / "train"))
        resolved = tmp_path / "ablate" / "resolved_config.yaml"
        assert cli.main(["train", "--config", str(resolved)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'rows'" in err
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("args, flag", [
        (["train", "--bogus"], "--bogus"), (["train", "--seed", "abc"], "--seed"),
        (["eval"], "--ckpt"), (["frobnicate"], "frobnicate"),
        (["bench-gen", "--seed", "7"], "--seed"), ([], "command"),
        (["train", "--seed", "-1"], "--seed")])
    def test_usage_error_is_config_error(self, tmp_path, monkeypatch, capsys,
                                         args, flag):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [["--help"], ["train", "--help"]])
    def test_help_exits_0(self, capsys, args):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(args)
        assert exit_info.value.code == 0
        assert "usage: masf" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [["train", "--target", "9"],
                                      ["ablate", "--set", "targets=[0, 9]"]])
    def test_unknown_target_is_config_error(self, tmp_path, monkeypatch,
                                            capsys, args):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        assert cli.main(args + ["--set", "iterations=1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: target 9 ")
        assert "[0, 1, 2, 3]" in err
        assert not any(tmp_path.iterdir())

    def test_n_meta_train_is_derived_not_configured(self, tmp_path,
                                                    monkeypatch, capsys):
        # three domains leave two sources: one meta-train, one meta-test;
        # setting n_meta_train is a case of test_bad_value_is_config_error
        sets = ["iterations=2", "batch_size=12", "feature_widths=[10, 6]",
                "metric_widths=[8, 4]", "bench_overrides={num_domains: 3}"]
        args = ["train", "--seed", "0", "--target", "2"]
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path / "first"))
        assert cli.main(args + [a for s in sets for a in ("--set", s)]) == 0
        resolved = tmp_path / "first" / "resolved_config.yaml"
        assert "n_meta_train" not in yaml.safe_load(resolved.read_text())

        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path / "second"))
        assert cli.main(args + ["--config", str(resolved)]) == 0
        assert ((tmp_path / "first" / "metrics.csv").read_bytes()
                == (tmp_path / "second" / "metrics.csv").read_bytes())

    def test_train_honours_bench_overrides(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MASF_OUT_DIR", str(tmp_path))
        code = cli.main(["train", "--seed", "0", "--target", "3",
                         "--set", "iterations=1", "--set", "batch_size=12",
                         "--set", "feature_widths=[10, 6]",
                         "--set", "metric_widths=[8, 4]",
                         "--set", "bench_overrides={num_classes: 3}"])
        assert code == 0, capsys.readouterr().err
        (ckpt,) = tmp_path.glob("ckpt_*")
        theta = nets.load_params(ckpt / "theta.bin", nets.TASK_NET)
        assert theta["w0"].shape[1] == 3

    @pytest.mark.parametrize("name, damage", [
        ("psi.bin", lambda raw: raw[:-3]),
        ("theta.bin", lambda raw: raw + b"\x00" * 8),
        pytest.param("psi.bin", lambda raw: b"NOPE!" + b"\x00" * 16,
                     id="psi.bin-junk"),
        pytest.param("theta.bin", lambda raw: b"MASF2" + raw[5:],
                     id="theta.bin-masf2"),
    ])
    def test_damaged_checkpoint_is_io_error(self, tmp_path, capsys, name, damage):
        ckpt = tmp_path / "ckpt"
        psi, theta, _ = nets.init_params(nets.Architecture(
            input_dim=16, num_classes=5, feature_widths=(10, 6),
            metric_widths=(8, 4)), 0)
        nets.save_params(psi, ckpt / "psi.bin")
        nets.save_params(theta, ckpt / "theta.bin")
        path = ckpt / name
        path.write_bytes(damage(path.read_bytes()))
        bench.export_csv(list(bench.canonical_datasets().values())[:1],
                         tmp_path / "one.csv")
        assert cli.main(["eval", "--ckpt", str(ckpt),
                         "--data", str(tmp_path / "one.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and name in err

    def test_checkpoint_of_other_role_is_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        psi, theta, _ = nets.init_params(nets.Architecture(
            input_dim=16, num_classes=5, feature_widths=(10, 6),
            metric_widths=(8, 4)), 0)
        nets.save_params(theta, ckpt / "psi.bin")  # swapped files
        nets.save_params(psi, ckpt / "theta.bin")
        bench.export_csv(list(bench.canonical_datasets().values())[:1],
                         tmp_path / "one.csv")
        assert cli.main(["eval", "--ckpt", str(ckpt),
                         "--data", str(tmp_path / "one.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "psi.bin" in err
        assert "'task_net'" in err and "'feature_extractor'" in err

    def test_missing_metrics_is_io_error(self, tmp_path, capsys):
        assert cli.main(["plot", "--metrics", str(tmp_path / "nope.csv")]) == 3
