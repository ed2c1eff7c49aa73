import dataclasses

import numpy as np
import pytest

from masf import autodiff as ad
from masf import nets

ARCH = nets.Architecture(input_dim=6, num_classes=3,
                         feature_widths=(8, 5), metric_widths=(6, 4))


def randomized(params, seed, scale=0.3):
    """Move all tensors to a generic point (zero biases sit on ReLU kinks)."""
    rng = np.random.default_rng(seed)
    return params.replace(
        [ad.leaf(t.value + rng.normal(0, scale, size=t.shape))
         for t in params.tensors])


class TestInit:
    def test_deterministic(self):
        a = nets.init_params(ARCH, 42)
        b = nets.init_params(ARCH, 42)
        for pa, pb in zip(a, b):
            for ta, tb in zip(pa.tensors, pb.tensors):
                np.testing.assert_array_equal(ta.value, tb.value)

    def test_biases_zero(self):
        psi, theta, phi = nets.init_params(ARCH, 0)
        for pset in (psi, theta, phi):
            for name, t in pset.entries:
                if name.startswith("b"):
                    assert np.all(t.value == 0.0)

    def test_he_variance(self):
        arch = nets.Architecture(input_dim=64, num_classes=3,
                                 feature_widths=(32,), metric_widths=(8, 4))
        variances = [np.var(nets.init_params(arch, s)[0]["w0"].value)
                     for s in range(10)]
        assert np.mean(variances) == pytest.approx(2.0 / 64, rel=0.2)

    def test_invalid_arch(self):
        with pytest.raises(ValueError):
            nets.Architecture(input_dim=4, num_classes=1,
                              feature_widths=(4,), metric_widths=(4,))
        with pytest.raises(ValueError):
            nets.Architecture(input_dim=4, num_classes=3, feature_widths=(0,),
                              metric_widths=(4,))

    @pytest.mark.parametrize("field, value, message", [
        ("num_classes", 1, "num_classes must be at least 2, got 1"),
        ("input_dim", 0, "input_dim must be at least 1 per layer, got 0"),
        ("feature_widths", (4, 0),
         r"feature_widths must be at least 1 per layer, got \(4, 0\)"),
        ("metric_widths", (),
         r"metric_widths must be at least 1 per layer, got \(\)"),
    ])
    def test_invalid_arch_names_field(self, field, value, message):
        sizes = dict(input_dim=4, num_classes=3, feature_widths=(4,),
                     metric_widths=(4,))
        with pytest.raises(ValueError, match=f"^{message}$"):
            nets.Architecture(**{**sizes, field: value})


class TestForward:
    def test_zero_params_zero_features(self):
        psi, _, _ = nets.init_params(ARCH, 0)
        psi = psi.replace([ad.leaf(np.zeros(t.shape)) for t in psi.tensors])
        z = nets.feature_forward(psi, ad.const(np.ones((2, 6))))
        assert np.all(z.value == 0.0)

    def test_relu_on_identity_layer(self):
        arch = nets.Architecture(input_dim=2, num_classes=2,
                                 feature_widths=(2,), metric_widths=(2, 2))
        psi, _, _ = nets.init_params(arch, 0)
        psi = psi.replace([ad.leaf(np.eye(2)), ad.leaf(np.zeros(2))])
        z = nets.feature_forward(psi, ad.const([[-1.0, 2.0]]))
        np.testing.assert_array_equal(z.value, [[0.0, 2.0]])

    def test_batch_shape(self):
        psi, theta, phi = nets.init_params(ARCH, 1)
        x = ad.const(np.random.default_rng(0).normal(size=(3, 6)))
        z = nets.feature_forward(psi, x)
        assert z.shape == (3, ARCH.feature_dim)
        assert nets.task_forward(theta, z).shape == (3, 3)
        assert nets.metric_forward(phi, z).shape == (3, ARCH.metric_widths[-1])

    def test_zero_theta_uniform_softmax(self):
        _, theta, _ = nets.init_params(ARCH, 0)
        theta = theta.replace([ad.leaf(np.zeros(t.shape)) for t in theta.tensors])
        logits = nets.task_forward(theta, ad.const(np.ones((2, 5))))
        sm = ad.softmax(logits).value
        np.testing.assert_allclose(sm, 1.0 / 3, atol=1e-12)

    def test_hand_logits(self):
        arch = nets.Architecture(input_dim=2, num_classes=2,
                                 feature_widths=(2,), metric_widths=(2, 2))
        _, theta, _ = nets.init_params(arch, 0)
        theta = theta.replace([ad.leaf([[1.0, 2.0], [3.0, 4.0]]),
                               ad.leaf([0.5, -0.5])])
        logits = nets.task_forward(theta, ad.const([[1.0, 1.0]]))
        np.testing.assert_allclose(logits.value, [[4.5, 5.5]])

    def test_wrong_role_rejected(self):
        psi, theta, _ = nets.init_params(ARCH, 0)
        with pytest.raises(ValueError):
            nets.feature_forward(theta, ad.const(np.ones((1, 5))))
        with pytest.raises(ValueError):
            nets.task_forward(psi, ad.const(np.ones((1, 6))))

    @pytest.mark.parametrize("forward, role", [
        (nets.feature_forward, "feature-extractor"),
        (nets.task_forward, "task-net"), (nets.metric_forward, "metric-net")])
    def test_wrong_role_message(self, forward, role):
        psi, theta, _ = nets.init_params(ARCH, 0)
        wrong = theta if forward is nets.feature_forward else psi
        with pytest.raises(ValueError, match=f"^expected {role} parameters$"):
            forward(wrong, ad.const(np.ones((1, 6))))

    @pytest.mark.parametrize("forward, index, ops", [
        (nets.feature_forward, 0, ["matmul", "relu"] * 2),
        (nets.task_forward, 1, ["matmul"]),
        (nets.metric_forward, 2, ["matmul", "relu", "matmul", "square", "sum",
                                  "sqrt", "div"])])
    def test_graph_ops_in_order(self, forward, index, ops):
        params = nets.init_params(ARCH, 0)[index]
        x = ad.const(np.ones((2, 6 if index == 0 else ARCH.feature_dim)))
        seen, stack = {}, [forward(params, x)]
        while stack:
            node = stack.pop()
            if node.id > x.id and node.id not in seen:
                seen[node.id] = node.op
                stack.extend(node.inputs)
        assert [seen[i] for i in sorted(seen)] == ops

    def test_every_task_layer_applied(self):
        # a hand-made two-layer task net: ReLU between layers, none after
        params = nets.ParamSet(nets.TASK_NET, (
            ad.leaf(np.eye(2)), ad.leaf([0.0, -1.0]),
            ad.leaf([[1.0, 2.0, 0.0], [3.0, 0.0, -1.0]]),
            ad.leaf([0.0, 0.0, -0.5])))
        logits = nets.task_forward(params, ad.const([[-1.0, 3.0]]))
        np.testing.assert_array_equal(logits.value, [[6.0, 0.0, -2.5]])

    def test_forward_does_not_mutate_params(self):
        psi, _, _ = nets.init_params(ARCH, 2)
        before = [t.value.copy() for t in psi.tensors]
        nets.feature_forward(psi, ad.const(np.ones((4, 6))))
        for t, b in zip(psi.tensors, before):
            np.testing.assert_array_equal(t.value, b)


class TestParamSet:
    def test_frozen(self):
        _, theta, _ = nets.init_params(ARCH, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            theta.tensors = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            theta.role = nets.FEATURE_EXTRACTOR

    def test_names_follow_positions(self):
        tensors = [ad.leaf(np.zeros((2, 3))), ad.leaf(np.zeros(3)),
                   ad.leaf(np.zeros((3, 4))), ad.leaf(np.zeros(4))]
        params = nets.ParamSet(nets.TASK_NET, tensors)
        assert [n for n, _ in params.entries] == ["w0", "b0", "w1", "b1"]
        for name, t in zip(["w0", "b0", "w1", "b1"], tensors):
            assert params[name] is t

    def test_list_is_stored_as_tuple(self):
        psi, theta, _ = nets.init_params(ARCH, 0)
        built = nets.ParamSet(nets.TASK_NET, list(theta.tensors))
        assert isinstance(built.tensors, tuple)
        assert psi.tensors + built.tensors == psi.tensors + theta.tensors

    def test_out_width_is_last_layer_width(self):
        psi, theta, phi = nets.init_params(ARCH, 0)
        assert (psi.out_width, theta.out_width, phi.out_width) == (5, 3, 4)


class TestInputChecks:
    def test_unknown_name(self):
        _, theta, _ = nets.init_params(ARCH, 0)
        with pytest.raises(KeyError, match="w1"):
            theta["w1"]

    def test_replace_wrong_count(self):
        _, theta, _ = nets.init_params(ARCH, 0)
        with pytest.raises(ValueError, match="tensor count mismatch"):
            theta.replace(theta.tensors[:1])

    def test_replace_wrong_shape(self):
        _, theta, _ = nets.init_params(ARCH, 0)
        w0, b0 = theta.tensors
        with pytest.raises(ValueError, match="shape mismatch for b0"):
            theta.replace([w0, ad.leaf(np.zeros(b0.shape[0] + 1))])

    def test_metric_forward_given_psi(self):
        psi, _, _ = nets.init_params(ARCH, 0)
        with pytest.raises(ValueError, match="expected metric-net parameters"):
            nets.metric_forward(psi, ad.const(np.ones((2, ARCH.feature_dim))))


class TestMetricNet:
    def test_unit_row_norms(self):
        psi, _, phi = nets.init_params(ARCH, 3)
        z = nets.feature_forward(
            psi, ad.const(np.random.default_rng(1).normal(size=(7, 6))))
        e = nets.metric_forward(phi, z).value
        np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-9)

    def test_identical_inputs_distance_zero(self):
        _, _, phi = nets.init_params(ARCH, 3)
        z = ad.const(np.tile([[0.3, 0.1, 0.5, 0.2, 0.4]], (2, 1)))
        e = nets.metric_forward(phi, z).value
        assert np.linalg.norm(e[0] - e[1]) == 0.0

    def test_distances_bounded_by_two(self):
        _, _, phi = nets.init_params(ARCH, 4)
        z = ad.const(np.random.default_rng(2).normal(size=(10, 5)))
        e = nets.metric_forward(phi, z).value
        d = np.linalg.norm(e[:, None] - e[None, :], axis=-1)
        assert d.max() <= 2.0 + 1e-9


class TestSgdStep:
    def _loss_and_params(self, seed=0):
        psi, theta, _ = nets.init_params(ARCH, seed)
        psi, theta = randomized(psi, seed + 10), randomized(theta, seed + 11)
        rng = np.random.default_rng(seed)
        x = ad.const(rng.normal(size=(5, 6)))
        logits = nets.task_forward(theta, nets.feature_forward(psi, x))
        loss = ad.mean(ad.neg(ad.gather_rows(
            ad.log_softmax(logits), rng.integers(0, 3, size=5))))
        return loss, psi, theta

    def test_zero_lr_identity(self):
        loss, psi, _ = self._loss_and_params()
        stepped = nets.sgd_step(psi, ad.grad(loss, psi.tensors), 0.0)
        for a, b in zip(stepped.tensors, psi.tensors):
            np.testing.assert_array_equal(a.value, b.value)

    def test_scalar_step_value(self):
        w = ad.leaf(1.0)
        pset = nets.ParamSet(nets.TASK_NET, (w,))
        gm = ad.GradMap([w], [ad.const(2.0)])
        assert float(nets.sgd_step(pset, gm, 0.1)["w0"].value) == pytest.approx(0.8)

    def test_step_back_and_forth_returns(self):
        loss, psi, _ = self._loss_and_params(1)
        gm = ad.grad(loss, psi.tensors)
        forward = nets.sgd_step(psi, gm, 0.05)
        gm2 = ad.GradMap(forward.tensors, [gm[p] for p in psi.tensors])
        back = nets.sgd_step(forward, gm2, -0.05)
        for a, b in zip(back.tensors, psi.tensors):
            np.testing.assert_allclose(a.value, b.value, atol=1e-12)

    def test_second_order_through_step(self):
        loss, psi, theta = self._loss_and_params(2)
        params = psi.tensors + theta.tensors
        gm = ad.grad(loss, params)
        psi2 = nets.sgd_step(psi, gm, 0.1)
        theta2 = nets.sgd_step(theta, gm, 0.1)
        rng = np.random.default_rng(5)
        x = ad.const(rng.normal(size=(4, 6)))
        logits = nets.task_forward(theta2, nets.feature_forward(psi2, x))
        outer = ad.mean(ad.neg(ad.gather_rows(
            ad.log_softmax(logits), rng.integers(0, 3, size=4))))
        assert ad.finite_diff_check(outer, params) < 1e-4

    def test_forward_gradients_pass_fd(self):
        loss, psi, theta = self._loss_and_params(3)
        assert ad.finite_diff_check(loss, psi.tensors + theta.tensors) < 1e-5


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        psi, _, _ = nets.init_params(ARCH, 9)
        path = tmp_path / "psi.bin"
        nets.save_params(psi, path)
        with open(path, "rb") as f:  # the first record: role and names
            header = np.load(f, allow_pickle=False)
        assert header.tolist() == [nets.FEATURE_EXTRACTOR, "w0", "b0", "w1", "b1"]
        loaded = nets.load_params(path, nets.FEATURE_EXTRACTOR)
        for (na, ta), (nb, tb) in zip(psi.entries, loaded.entries):
            assert na == nb
            np.testing.assert_array_equal(ta.value, tb.value)

    @pytest.mark.parametrize("names", [["w0", "b1"], ["b0", "w0"],
                                       ["w0", "b0", "w1"], ["layer0", "bias0"], []])
    def test_names_off_the_layer_layout_rejected(self, tmp_path, names):
        rng = np.random.default_rng(4)
        path = tmp_path / "theta.bin"
        with open(path, "wb") as f:  # the layout of save_params, other names
            np.save(f, np.array([nets.TASK_NET, *names]))
            for _ in names:
                np.save(f, rng.normal(size=(2,)))
        with pytest.raises(ValueError, match="theta.bin: parameter names"):
            nets.load_params(path, nets.TASK_NET)

    @pytest.mark.parametrize("index, value", [(0, np.nan), (3, -np.inf)])
    def test_nonfinite_tensor_rejected_naming_path_and_tensor(self, tmp_path,
                                                             index, value):
        psi, _, _ = nets.init_params(ARCH, 9)
        tensors = [t.value.copy() for t in psi.tensors]
        tensors[index].flat[0] = value
        path = tmp_path / "psi.bin"
        nets.save_params(psi.replace([ad.leaf(t) for t in tensors]), path)
        name = psi.entries[index][0]
        with pytest.raises(ValueError, match=f"psi.bin: {name} holds a NaN or inf"):
            nets.load_params(path, nets.FEATURE_EXTRACTOR)

    def test_other_role_rejected_naming_path_and_roles(self, tmp_path):
        _, theta, _ = nets.init_params(ARCH, 9)
        path = tmp_path / "theta.bin"
        nets.save_params(theta, path)
        with pytest.raises(ValueError, match="theta.bin: holds 'task_net' "
                           "parameters, expected 'feature_extractor'"):
            nets.load_params(path, nets.FEATURE_EXTRACTOR)

    @pytest.mark.parametrize("write", [
        lambda f: None,  # empty
        lambda f: f.write(b"NOPE!" + b"\x00" * 16),
        # the header of the hand-written format this one replaced
        lambda f: f.write(b"MASF2\x04\x00\x00\x00\x11\x00\x00\x00"
                          b"feature_extractor"),
        lambda f: np.save(f, np.array("feature_extractor")),  # 0-d string
        lambda f: np.save(f, np.zeros(3)),
    ], ids=["empty", "junk", "masf2", "0d-string", "float-array"])
    def test_foreign_file_is_io_error(self, tmp_path, write):
        path = tmp_path / "psi.bin"
        with open(path, "wb") as f:
            write(f)
        with pytest.raises(OSError, match="psi.bin: "):
            nets.load_params(path, nets.FEATURE_EXTRACTOR)

    @pytest.mark.parametrize("cut", [1, 3, 8, 100])
    def test_truncated_file_is_io_error(self, tmp_path, cut):
        psi, _, _ = nets.init_params(ARCH, 9)
        path = tmp_path / "psi.bin"
        nets.save_params(psi, path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(OSError, match="psi.bin: truncated"):
            nets.load_params(path, nets.FEATURE_EXTRACTOR)

    @pytest.mark.parametrize("keep", [5, 7, 13])
    def test_truncated_header_is_io_error(self, tmp_path, keep):
        psi, _, _ = nets.init_params(ARCH, 9)
        path = tmp_path / "psi.bin"
        nets.save_params(psi, path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(OSError, match="psi.bin: truncated"):
            nets.load_params(path, nets.FEATURE_EXTRACTOR)

    def test_trailing_bytes_are_io_error(self, tmp_path):
        _, theta, _ = nets.init_params(ARCH, 9)
        path = tmp_path / "theta.bin"
        nets.save_params(theta, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(OSError, match="theta.bin: trailing bytes"):
            nets.load_params(path, nets.TASK_NET)

    @pytest.mark.parametrize("shapes, message", [
        ([(6,), (6,)], r"w0 \(6,\) and b0 \(6,\) are not an \[in, out\] matrix"),
        ([(6, 8), (5,)], r"w0 \(6, 8\) and b0 \(5,\) are not an \[in, out\] matrix"),
        ([(6, 8), (8,), (7, 5), (5,)], r"w1 takes 7 inputs, but layer 0 gives 8"),
    ], ids=["weight-not-2d", "bias-width", "layers-do-not-chain"])
    def test_shapes_that_do_not_chain_rejected(self, tmp_path, shapes, message):
        params = nets.ParamSet(nets.FEATURE_EXTRACTOR,
                               tuple(ad.leaf(np.zeros(s)) for s in shapes))
        path = tmp_path / "psi.bin"
        nets.save_params(params, path)
        with pytest.raises(ValueError, match=f"psi.bin: {message}"):
            nets.load_params(path, nets.FEATURE_EXTRACTOR)
