import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, mutually_broadcastable_shapes

from masf import autodiff as ad
from masf import nets


def scalarize(gm, rng):
    """Random linear functional of all gradient entries (for 2nd-order checks)."""
    total = None
    for _, g in gm:
        term = ad.reduce_sum(ad.mul(g, ad.const(rng.normal(size=g.shape))))
        total = term if total is None else ad.add(total, term)
    return total


class TestEvaluate:
    def test_square_leaf(self):
        assert ad.square(ad.leaf(3.0)).value == 9.0

    def test_relu_negative(self):
        assert ad.relu(ad.leaf(-2.0)).value == 0.0

    def test_log_sum_exp(self):
        got = ad.log_sum_exp(ad.leaf([0.0, 0.0])).value
        assert got.shape == (1,)
        assert got[0] == pytest.approx(np.log(2.0), abs=1e-9)

    def test_log_sum_exp_holds_one_const(self):
        # the row max is frozen once, and both the sub and the add read it
        root = ad.log_sum_exp(ad.leaf(np.arange(6.0).reshape(2, 3)))
        nodes, stack = {}, [root]
        while stack:
            node = stack.pop()
            nodes[node.id] = node
            stack.extend(node.inputs)
        assert sorted(n.op for n in nodes.values()) == [
            "add", "const", "exp", "leaf", "log", "sub", "sum"]

    def test_axis_sum_keeps_its_axis(self):
        x = ad.leaf(np.ones((2, 3, 4)))
        assert ad.reduce_sum(x, axis=-1).shape == (2, 3, 1)
        assert ad.reduce_sum(x, axis=0).shape == (1, 3, 4)
        assert ad.log_sum_exp(x).shape == (2, 3, 1)
        assert ad.reduce_sum(x).shape == ()

    def test_deterministic_bitwise(self):
        x = np.arange(12.0).reshape(3, 4)
        a = ad.softmax(ad.leaf(x)).value
        b = ad.softmax(ad.leaf(x)).value
        assert a.tobytes() == b.tobytes()

    def test_shape_mismatch_fails_at_construction(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 3))))
        with pytest.raises(ValueError):
            ad.add(ad.leaf(np.ones(3)), ad.leaf(np.ones(4)))

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_broadcast_error_names_op_and_shapes(self, op):
        a, b = ad.leaf(np.ones((2, 3))), ad.leaf(np.ones(4))
        with pytest.raises(ValueError,
                           match=rf"{op}: incompatible shapes \(2, 3\) and \(4,\)"):
            getattr(ad, op)(a, b)

    def test_log_domain_error(self):
        with pytest.raises(ad.DomainError):
            ad.log(ad.leaf(-1.0))

    def test_values_immutable(self):
        x = ad.leaf([1.0, 2.0])
        with pytest.raises(ValueError):
            x.value[0] = 5.0


def _grad_of_non_leaf():
    x = ad.leaf(2.0)
    ad.grad(ad.square(x), [ad.mul(x, x)])


def _clip_at(threshold):
    gm = ad.GradMap([ad.leaf(0.0)], [ad.const(1.0)])
    return lambda: ad.clip_by_norm(gm, threshold, ad.global_norm(gm))


# input checks: (call, exception, message); each calls the public API once
INPUT_CHECKS = {
    "div-unrepaired": (lambda: ad.div(ad.leaf(1.0), ad.leaf(-1e-12)),
                       ad.DomainError, "division by zero"),
    "sqrt-negative": (lambda: ad.sqrt(ad.leaf([1.0, -1.0])),
                      ad.DomainError, "sqrt of negative"),
    "matmul-bias-shape": (lambda: ad.matmul(ad.leaf(np.ones((2, 3))),
                                            ad.leaf(np.ones((3, 5))),
                                            ad.leaf(np.ones(4))),
                          ValueError, r"bias shape \(4,\) is not \(5,\)"),
    "index-2d": (lambda: ad.select_rows(ad.leaf(np.ones((3, 2))),
                                        np.zeros((2, 2), dtype=int)),
                 ValueError, "vector of indices"),
    "gather-rows-shapes": (lambda: ad.gather_rows(ad.leaf(np.ones((3, 2))),
                                                  np.array([0, 1])),
                           ValueError, "N indices"),
    "select-rows-0d": (lambda: ad.select_rows(ad.leaf(1.0), np.array([0])),
                       ValueError, "tensor with rows"),
    "log-softmax-1d": (lambda: ad.log_softmax(ad.leaf([1.0, 2.0])),
                       ValueError, r"\[N, C\] tensor"),
    "grad-non-leaf": (_grad_of_non_leaf, ValueError, "leaf nodes"),
    "clip-zero": (_clip_at(0.0), ValueError, "must be positive"),
    "clip-negative": (_clip_at(-1.0), ValueError, "must be positive"),
}


@pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
def test_input_check(name):
    call, error, message = INPUT_CHECKS[name]
    with pytest.raises(error, match=message):
        call()


class TestGrad:
    def test_square(self):
        x = ad.leaf(3.0)
        assert float(ad.grad(ad.square(x), [x])[x].value) == 6.0

    def test_second_order_cubic(self):
        x = ad.leaf(2.0)
        f = ad.mul(ad.square(x), x)
        g = ad.grad(f, [x])[x]
        assert float(g.value) == pytest.approx(12.0)
        g2 = ad.grad(g, [x])[x]
        assert float(g2.value) == pytest.approx(12.0)

    def test_meta_style_through_sgd_step(self):
        # f(w) = (w - 0.1 * d(w^2)/dw)^2 at w=1 => df/dw = 2 * 0.8^2 = 1.28
        w = ad.leaf(1.0)
        gw = ad.grad(ad.square(w), [w])[w]
        w2 = ad.sub(w, ad.mul(ad.const(0.1), gw))
        f = ad.square(w2)
        df = ad.grad(f, [w])[w]
        assert float(df.value) == pytest.approx(1.28, abs=1e-9)
        assert ad.finite_diff_check(f, [w]) < 1e-7

    def test_unreachable_param_zero_grad(self):
        x, y = ad.leaf(2.0), ad.leaf([1.0, 2.0])
        gm = ad.grad(ad.square(x), [x, y])
        assert np.all(gm[y].value == 0.0)
        assert gm[y].shape == (2,)

    def test_non_scalar_root_rejected(self):
        x = ad.leaf([1.0, 2.0])
        with pytest.raises(ValueError):
            ad.grad(x, [x])

    def test_gradient_shapes_match_params(self):
        w = ad.leaf(np.random.default_rng(0).normal(size=(4, 3)))
        f = ad.reduce_sum(ad.square(w))
        assert ad.grad(f, [w])[w].shape == (4, 3)

    @pytest.mark.parametrize("seed", range(4))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x = ad.leaf(rng.normal(size=5))
        f = ad.reduce_sum(ad.square(x))
        g = ad.reduce_sum(ad.exp(x))
        a, b = rng.normal(size=2)
        combo = ad.add(ad.mul(ad.const(a), f), ad.mul(ad.const(b), g))
        lhs = ad.grad(combo, [x])[x].value
        rhs = a * ad.grad(f, [x])[x].value + b * ad.grad(g, [x])[x].value
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def row(x):
    """The [5] leaf as a [1, 5] row."""
    return ad._on_graph("broadcast", x, shape=(1, 5))


def col(x):
    """The [5] leaf as a [5, 1] column: its row, read transposed, times a 1."""
    return ad._on_graph("matmul", row(x), np.ones((1, 1)), ta=True)


OPS = {
    "exp": lambda x: ad.reduce_sum(ad.exp(x)),
    "log": lambda x: ad.reduce_sum(ad.log(ad.add(ad.square(x), ad.const(0.5)))),
    "sqrt": lambda x: ad.reduce_sum(ad.sqrt(ad.add(ad.square(x), ad.const(0.5)))),
    "div": lambda x: ad.reduce_sum(ad.div(ad.const(np.arange(1.0, 6.0)),
                                          ad.add(ad.square(x), ad.const(1.0)))),
    "relu": lambda x: ad.reduce_sum(ad.square(ad.relu(x))),
    "matmul": lambda x: ad.reduce_sum(
        ad.square(ad.matmul(row(x), ad.const(np.ones((5, 2)))))),
    "matmul_bias": lambda x: ad.reduce_sum(ad.square(ad.matmul(
        row(x), ad.const(np.arange(10.0).reshape(5, 2) / 10),
        ad.select_rows(x, np.array([0, 4]))))),
    "matmul_ta": lambda x: ad.reduce_sum(ad.square(ad._on_graph(
        "matmul", col(x), np.arange(10.0).reshape(5, 2) / 10, ta=True))),
    "matmul_tb": lambda x: ad.reduce_sum(ad.square(ad._on_graph(
        "matmul", np.arange(10.0).reshape(2, 5) / 10, row(x), tb=True))),
    "matmul_ta_tb": lambda x: ad.reduce_sum(ad.exp(ad._on_graph(
        "matmul", col(x), row(ad.square(x)), ta=True, tb=True))),
    "softmax": lambda x: ad.reduce_sum(ad.square(ad.softmax(row(x)))),
    "lse": lambda x: ad.reduce_sum(ad.log_sum_exp(x)),
    "mean": lambda x: ad.square(ad.mean(x)),
    "gather": lambda x: ad.reduce_sum(ad.gather_rows(
        row(ad.square(x)), np.array([3]))),
    "select_rows": lambda x: ad.reduce_sum(ad.square(ad.select_rows(
        col(x), np.array([3, 0, 3, 4, 3])))),
    "broadcast_sub": lambda x: ad.reduce_sum(ad.square(ad.sub(
        ad._on_graph("broadcast", col(x), shape=(5, 3)),
        ad.const(np.arange(3.0))))),
    "sum_to": lambda x: ad.reduce_sum(ad.square(ad._sum_to(
        ad._on_graph, ad.mul(col(x), ad.const(np.arange(1.0, 4.0))), (1, 3)))),
}


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("seed", [0, 1])
def test_first_order_matches_finite_differences(name, seed):
    rng = np.random.default_rng(seed)
    x = ad.leaf(rng.normal(size=5))
    assert ad.finite_diff_check(OPS[name](x), [x]) < 1e-5


@pytest.mark.parametrize("name", sorted(OPS))
def test_second_order_matches_finite_differences(name):
    rng = np.random.default_rng(7)
    x = ad.leaf(rng.normal(size=5))
    g = ad.grad(OPS[name](x), [x])
    s = scalarize(g, rng)
    assert ad.finite_diff_check(s, [x]) < 1e-4


def both_modes(scalar, params):
    """grad in graph mode and in value mode."""
    graph = ad.grad(scalar, params)
    with ad.values_only():
        values = ad.grad(scalar, params)
    return graph, values


def assert_same_grads(graph, values):
    for (p, g), (q, v) in zip(graph, values):
        assert p is q
        assert v.op == "const"
        assert np.array_equal(g.value, v.value), g.value - v.value


class TestValueMode:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_matches_graph_mode(self, name):
        rng = np.random.default_rng(5)
        x = ad.leaf(rng.normal(size=5))
        graph, values = both_modes(OPS[name](x), [x])
        assert_same_grads(graph, values)
        # through the graph-mode gradient, i.e. every rule's VJP node
        assert_same_grads(*both_modes(scalarize(graph, rng), [x]))

    def test_matches_graph_mode_through_inner_step(self):
        # the shape of a meta step: an inner gradient (clipped, so the
        # clip scale is differentiated too), an SGD step, then a loss
        rng = np.random.default_rng(2)
        w = ad.leaf(rng.normal(size=(4, 3)))
        b = ad.leaf(rng.normal(size=3) * 0.1)

        def loss(w, b, x, labels):
            logits = ad.add(ad.matmul(ad.relu(ad.const(x)), w), b)
            picked = ad.gather_rows(logits, labels)
            assert picked.shape == (len(labels), 1)
            return ad.mean(ad.sub(ad.log_sum_exp(logits), picked))

        inner = loss(w, b, rng.normal(size=(6, 4)), rng.integers(0, 3, 6))
        gm = ad.grad(inner, [w, b])
        norm = ad.global_norm(gm)
        assert float(norm.value) > 0.1
        gm = ad.clip_by_norm(gm, 0.1, norm)
        w2 = ad.sub(w, ad.mul(ad.const(0.5), gm[w]))
        b2 = ad.sub(b, ad.mul(ad.const(0.5), gm[b]))
        outer = ad.add(inner, loss(w2, b2, rng.normal(size=(6, 4)),
                                   rng.integers(0, 3, 6)))
        assert_same_grads(*both_modes(outer, [w, b]))

    def test_unreachable_and_root_params(self):
        x, y = ad.leaf(2.0), ad.leaf([1.0, 2.0])
        with ad.values_only():
            gm = ad.grad(ad.square(x), [x, y])
            own = ad.grad(x, [x])
        assert float(gm[x].value) == 4.0 and gm[x].op == "const"
        np.testing.assert_array_equal(gm[y].value, [0.0, 0.0])
        assert float(own[x].value) == 1.0 and own[x].op == "const"

    def test_mode_restored_when_body_raises(self):
        x = ad.leaf(3.0)
        with pytest.raises(RuntimeError):
            with ad.values_only():
                raise RuntimeError("boom")
        g = ad.grad(ad.square(x), [x])[x]
        assert g.op != "const"
        assert float(ad.grad(g, [x])[x].value) == 2.0

    def test_nested_blocks_keep_value_mode(self):
        x = ad.leaf(3.0)
        with ad.values_only():
            with ad.values_only():
                pass
            assert ad.grad(ad.square(x), [x])[x].op == "const"
        assert ad.grad(ad.square(x), [x])[x].op != "const"


def test_every_op_has_a_forward_and_a_vjp():
    assert sorted(ad._FORWARD) == sorted(ad._VJP)


@pytest.mark.parametrize("n", [75, 150])
@pytest.mark.parametrize("mode", ["graph", "value"])
def test_sum_to_is_one_numpy_sum(n, mode):
    """Each reduction a step makes, a bias adjoint, a column and a whole sum,
    has the bytes of one NumPy sum over the same axes."""
    rng = np.random.default_rng(n)
    bias, rows = rng.normal(size=(n, 8)), rng.normal(size=(n, 5))
    cases = [(bias, (8,), bias.sum(axis=0)),
             (rows, (n, 1), rows.sum(axis=-1, keepdims=True)),
             (rows, (), rows.sum())]
    for g, shape, want in cases:
        if mode == "graph":
            got = ad._sum_to(ad._on_graph, ad.const(g), shape).value
        else:
            got = np.asarray(ad._sum_to(ad._on_values, g, shape))
        assert got.shape == shape
        assert got.tobytes() == want.tobytes(), shape


class TestNoIdentityOps:
    """A rule whose adjoint already has the shape that undoing or applying a
    broadcast would give it returns the adjoint as it is, in both sweep
    modes, and builds a ``sum`` or ``broadcast`` only where the shape
    changes."""

    def _record(self, monkeypatch):
        calls = []  # (op, input shape, output shape)
        for op in ("sum", "broadcast"):
            def recorded(attrs, a, op=op, forward=ad._FORWARD[op]):
                out = forward(attrs, a)
                calls.append((op, np.shape(a), np.shape(out)))
                return out
            monkeypatch.setitem(ad._FORWARD, op, recorded)
        return calls

    def _loss(self, rng):
        w = ad.leaf(rng.normal(size=(4, 3)))
        b = ad.leaf(rng.normal(size=3))
        c = ad.leaf(rng.normal(size=(6, 1)))
        h = ad.add(ad.matmul(ad.const(rng.normal(size=(6, 4))), w), b)
        h = ad.div(ad.mul(h, h), ad.add(ad.exp(c), ad.const(1.0)))
        h = ad.sub(h, ad.reduce_sum(c, axis=1))
        wide = ad._on_graph("broadcast", b, shape=(6, 3))
        loss = ad.add(ad.reduce_sum(ad.mul(h, wide)), ad.reduce_sum(
            ad.square(ad._sum_to(ad._on_graph, h, (1, 3)))))
        return loss, [w, b, c]

    @pytest.mark.parametrize("mode", ["graph", "value"])
    def test_second_order_sweep_builds_no_identity_op(self, monkeypatch, mode):
        rng = np.random.default_rng(0)
        loss, params = self._loss(rng)
        calls = self._record(monkeypatch)
        first = ad.grad(loss, params)  # graph mode: differentiated again
        outer = functools.reduce(ad.add, [ad.reduce_sum(ad.square(g))
                                          for _, g in first])
        if mode == "value":
            with ad.values_only():
                ad.grad(outer, params)
        else:
            ad.grad(outer, params)
        assert {op for op, _, _ in calls} == {"sum", "broadcast"}
        assert all(shape != to for _, shape, to in calls), calls


class TestMatmulAdjoints:
    """Each adjoint of a matmul node A'B' (A' = a.T if ``ta``, B' = b.T if
    ``tb``) is one matmul that reads its transpositions in place, in both
    sweep modes. It equals the transposed-product formula, g B'^T for a and
    A'^T g for b, each transposed back for an operand read transposed: bit
    for bit when one operand is read transposed, to rounding when both are."""

    @pytest.mark.parametrize("mode", ["graph", "value"])
    def test_each_adjoint_is_one_matmul(self, monkeypatch, mode):
        built = []
        for op, forward in list(ad._FORWARD.items()):
            def recorded(attrs, *xs, op=op, forward=forward):
                built.append(op)
                return forward(attrs, *xs)
            monkeypatch.setitem(ad._FORWARD, op, recorded)
        rng = np.random.default_rng(1)
        for ta, tb, _ in itertools.product([False, True], [False, True], range(5)):
            n, k, m = rng.integers(1, 9, 3)
            a = ad.leaf(rng.normal(size=(k, n) if ta else (n, k)))
            b = ad.leaf(rng.normal(size=(m, k) if tb else (k, m)))
            y = ad._on_graph("matmul", a, b, ta=ta, tb=tb)
            g = rng.normal(size=y.shape)
            loss = ad.reduce_sum(ad.mul(y, ad.const(g)))
            built.clear()
            if mode == "value":
                with ad.values_only():
                    gm = ad.grad(loss, [a, b])
            else:
                gm = ad.grad(loss, [a, b])
            # the sum's broadcast and the mul give y's adjoint, g itself
            assert built == ["broadcast", "mul", "matmul", "matmul"]
            a_p = a.value.T if ta else a.value
            b_p = b.value.T if tb else b.value
            want_a, want_b = g @ b_p.T, a_p.T @ g
            want_a, want_b = want_a.T if ta else want_a, want_b.T if tb else want_b
            for got, want in ((gm[a].value, want_a), (gm[b].value, want_b)):
                if ta and tb:
                    np.testing.assert_allclose(got, want, rtol=1e-14)
                else:
                    assert np.array_equal(got, want), (ta, tb, got - want)


class TestFusedLayer:
    """One matmul node with a bias against the two-node chain it replaces,
    ``add(matmul(h, w), b)``: the same value bit for bit, and the same first-
    and second-order gradients up to the order in which adjoints are summed."""

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_two_node_chain(self, data):
        n, k, m = data.draw(st.tuples(*[st.integers(1, 4)] * 3), label="n, k, m")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        h, w, b = (ad.leaf(rng.normal(size=s)) for s in ((n, k), (k, m), (m,)))
        weights = ad.const(rng.normal(size=(n, m)))
        fused, chain = ad.matmul(h, w, b), ad.add(ad.matmul(h, w), b)
        assert fused.value.tobytes() == chain.value.tobytes()
        first = []
        for y in (fused, chain):
            loss = ad.reduce_sum(ad.log_sum_exp(ad.mul(ad.square(y), weights)))
            first.append(ad.grad(loss, [h, w, b]))
        for (_, g), (_, c) in zip(*first):
            np.testing.assert_allclose(g.value, c.value, rtol=1e-13)
        second = [ad.grad(scalarize(gm, np.random.default_rng(seed)), [h, w, b])
                  for gm in first]
        for (_, g), (_, c) in zip(*second):
            np.testing.assert_allclose(g.value, c.value, rtol=1e-13)


class TestSelectRows:
    def test_value_is_row_take(self):
        a = np.arange(12.0).reshape(4, 3)
        idx = np.array([2, 0, 2, 3])
        np.testing.assert_array_equal(ad.select_rows(ad.leaf(a), idx).value,
                                      a[idx])

    def test_gradient_accumulates_repeats(self):
        x = ad.leaf(np.zeros((4, 2)))
        w = ad.const([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        f = ad.reduce_sum(ad.mul(ad.select_rows(x, np.array([1, 3, 1])), w))
        np.testing.assert_array_equal(
            ad.grad(f, [x])[x].value, [[0.0, 0.0], [6.0, 8.0], [0.0, 0.0], [3.0, 4.0]])

    @pytest.mark.parametrize("idx", [[0, 4], [-1], [5]])
    def test_out_of_range_rejected(self, idx):
        with pytest.raises(ValueError, match="out of range"):
            ad.select_rows(ad.leaf(np.ones((4, 2))), idx)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_matches_finite_differences(self, data):
        n = data.draw(st.integers(1, 5), label="rows")
        d = data.draw(st.integers(1, 3), label="cols")
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                          max_size=8), label="idx"))
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        x = ad.leaf(rng.normal(size=(n, d)))
        w = ad.const(rng.normal(size=(idx.size, d)))
        f = ad.reduce_sum(ad.mul(ad.square(ad.select_rows(x, idx)), w))
        assert ad.finite_diff_check(f, [x]) < 1e-6
        s = scalarize(ad.grad(f, [x]), rng)
        assert ad.finite_diff_check(s, [x]) < 1e-6


class TestBroadcastProperty:
    """The elementwise binary ops with two leaf operands of random
    broadcast-compatible shapes, either one broadcast against the other."""

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @given(shapes=mutually_broadcastable_shapes(num_shapes=2, min_dims=0,
                                                max_dims=3, max_side=3),
           seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_gradients(self, op, shapes, seed):
        rng = np.random.default_rng(seed)
        (sa, sb), out = shapes.input_shapes, shapes.result_shape
        a = ad.leaf(rng.normal(size=sa))
        b = ad.leaf(rng.uniform(0.5, 2.0, size=sb))  # away from 0 for div
        f = ad.reduce_sum(ad.mul(ad.square(getattr(ad, op)(a, b)),
                                 ad.const(rng.normal(size=out))))
        assert ad.finite_diff_check(f, [a, b]) <= 1e-6
        graph, values = both_modes(f, [a, b])
        assert_same_grads(graph, values)
        s = scalarize(graph, rng)
        assert ad.finite_diff_check(s, [a, b]) <= 1e-5
        assert_same_grads(*both_modes(s, [a, b]))


ANY_SHAPE = array_shapes(min_dims=0, max_dims=3, max_side=3)
MATRIX = array_shapes(min_dims=2, max_dims=2, max_side=3)


def normal(rng, shape):
    return rng.normal(size=shape)


def positive(rng, shape):  # inside the domain of log and sqrt
    return rng.uniform(0.5, 2.0, size=shape)


def off_kink(rng, shape):  # at least 0.1 from relu's kink at 0
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.1, 2.0, size=shape)


def unary(op, values=normal, shapes=ANY_SHAPE):
    return lambda draw, rng: (op, [values(rng, draw(shapes, label="shape"))])


def reduced(draw, shape):
    """A shape that broadcasts to ``shape``: leading axes dropped, others
    possibly set to 1."""
    keep = draw(st.integers(0, len(shape)), label="kept axes")
    return tuple(1 if draw(st.booleans(), label="to 1") else d
                 for d in shape[len(shape) - keep:])


def matmul_case(draw, rng):
    n, k, m = draw(st.tuples(*[st.integers(1, 3)] * 3), label="n, k, m")
    return ad.matmul, [normal(rng, (n, k)), normal(rng, (k, m))]


def matmul_form_case(ta, tb, bias):
    """A matmul with a bias, or reading an operand transposed as the matmuls
    that VJP rules build do."""
    def case(draw, rng):
        n, k, m = draw(st.tuples(*[st.integers(1, 3)] * 3), label="n, k, m")
        arrays = [normal(rng, (k, n) if ta else (n, k)),
                  normal(rng, (m, k) if tb else (k, m))]
        if bias:
            arrays.append(normal(rng, (m,)))
        if not (ta or tb):
            return ad.matmul, arrays
        return (lambda *xs: ad._on_graph("matmul", *xs, ta=ta, tb=tb)), arrays
    return case


def const_matmul_case(draw, rng):
    """A constant left operand, as in the triplet loss's L @ E."""
    n, k, m = draw(st.tuples(*[st.integers(1, 3)] * 3), label="n, k, m")
    left = ad.const(normal(rng, (n, k)))
    return (lambda b: ad.matmul(left, b)), [normal(rng, (k, m))]


def sum_to_case(draw, rng):
    shape = draw(ANY_SHAPE, label="shape")
    target = reduced(draw, shape)
    return (lambda a: ad._sum_to(ad._on_graph, a, target)), [normal(rng, shape)]


def broadcast_case(draw, rng):
    shape = draw(ANY_SHAPE, label="shape")
    return ((lambda a: ad._on_graph("broadcast", a, shape=shape)),
            [normal(rng, reduced(draw, shape))])


def sum_axis_case(draw, rng):
    """A sum over one axis, counted from either end, of a tensor with one to
    three axes (an [L, N, C] stack among them); the axis is kept."""
    shape = draw(array_shapes(min_dims=1, max_dims=3, max_side=3), label="shape")
    axis = draw(st.integers(-len(shape), len(shape) - 1), label="axis")
    return (lambda a: ad.reduce_sum(a, axis=axis)), [normal(rng, shape)]


def gather_rows_case(draw, rng):
    n, c = draw(MATRIX, label="shape")
    idx = rng.integers(0, c, n)
    return (lambda a: ad.gather_rows(a, idx)), [normal(rng, (n, c))]


def scatter_rows_case(draw, rng):
    """Both index kinds, with repeats: the adjoints of ``gather_rows`` and of
    ``select_rows``, which are the only builders of this op."""
    n, c = draw(MATRIX, label="shape")
    if draw(st.booleans(), label="entry kind"):
        idx = rng.integers(0, c, n)
        index, shape, a = (np.arange(n)[:, None], idx[:, None]), (n, c), (n, 1)
    else:
        index, shape, a = (rng.integers(0, c, n),), (c, 2), (n, 2)
    return (lambda x: ad._on_graph("scatter_rows", x, index=index, shape=shape),
            [normal(rng, a)])


# Every op of autodiff._FORWARD apart from add/sub/mul/div (see
# TestBroadcastProperty), plus the operand patterns of the triplet loss's
# quadratic form: name -> (draw, rng) -> (op, input arrays).
OP_CASES = {
    "neg": unary(ad.neg),
    "matmul": matmul_case,
    "matmul-const-left": const_matmul_case,
    "matmul-bias": matmul_form_case(False, False, True),
    "matmul-ta": matmul_form_case(True, False, False),
    "matmul-tb": matmul_form_case(False, True, False),
    "matmul-ta-tb-bias": matmul_form_case(True, True, True),
    "mul-same-node": unary(lambda a: ad.mul(a, a)),
    "relu": unary(ad.relu, values=off_kink),
    "exp": unary(ad.exp),
    "log": unary(ad.log, values=positive),
    "sqrt": unary(ad.sqrt, values=positive),
    "square": unary(ad.square),
    "sum-all": unary(ad.reduce_sum, shapes=MATRIX),
    "sum-axis0": unary(lambda a: ad.reduce_sum(a, axis=0), shapes=MATRIX),
    "sum-axis1": unary(lambda a: ad.reduce_sum(a, axis=1), shapes=MATRIX),
    "sum-axis": sum_axis_case,
    "sum_to": sum_to_case,
    "broadcast": broadcast_case,
    "gather_rows": gather_rows_case,
    "scatter_rows": scatter_rows_case,
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_op_properties(name, data):
    """First and second order against finite differences, and value mode
    equal to graph mode bit for bit at both orders."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    op, arrays = OP_CASES[name](data.draw, rng)
    xs = [ad.leaf(a) for a in arrays]
    y = op(*xs)
    f = ad.reduce_sum(ad.mul(ad.square(y), ad.const(rng.normal(size=y.shape))))
    assert ad.finite_diff_check(f, xs) <= 1e-6
    graph, values = both_modes(f, xs)
    assert_same_grads(graph, values)
    s = scalarize(graph, rng)
    assert ad.finite_diff_check(s, xs) <= 1e-5
    assert_same_grads(*both_modes(s, xs))


def reachable(root):
    """Ids of every node ``root`` reaches through ``Expr.inputs``."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node.id not in seen:
            seen.add(node.id)
            stack.extend(node.inputs)
    return seen


def record_rules(monkeypatch):
    """Wrap every VJP rule; the returned list gets the input of each call."""
    ran = []

    def recorded(rule, i):
        def wrapper(O, node, g, *inputs):
            ran.append(node.inputs[i])
            return rule(O, node, g, *inputs)
        return wrapper

    for op, rules in list(ad._VJP.items()):
        monkeypatch.setitem(ad._VJP, op, tuple(
            recorded(rule, i) for i, rule in enumerate(rules)))
    return ran


class TestDependencyPath:
    """``grad`` and ``recompute`` only touch the nodes through which the
    root depends on the given leaves."""

    def test_grad_runs_no_rule_for_nodes_only_psi_feeds(self, monkeypatch):
        arch = nets.Architecture(input_dim=4, num_classes=3,
                                 feature_widths=(5, 3), metric_widths=(4, 2))
        psi, _, phi = nets.init_params(arch, 0)
        x = ad.const(np.random.default_rng(0).normal(size=(6, 4)))
        z = nets.feature_forward(psi, x)
        psi_term = ad.reduce_sum(ad.square(z))
        loss = ad.add(ad.reduce_sum(ad.square(nets.metric_forward(phi, z))),
                      psi_term)
        psi_only = reachable(psi_term)
        ran = record_rules(monkeypatch)
        ad.grad(loss, phi.tensors)
        assert ran and not any(inp.id in psi_only for inp in ran)
        ran.clear()
        ad.grad(loss, psi.tensors + phi.tensors)  # the wrappers see psi's rules
        assert any(inp.id in psi_only for inp in ran)

    def test_recompute_without_overrides_is_root_value(self):
        rng = np.random.default_rng(1)
        x = ad.leaf(rng.normal(size=(3, 4)))
        root = ad.log_sum_exp(ad.matmul(x, ad.const(rng.normal(size=(4, 2)))))
        assert ad.recompute(root, {}).tobytes() == root.value.tobytes()

    def test_recompute_override_off_the_path_is_root_value(self):
        rng = np.random.default_rng(2)
        a, b = ad.leaf(rng.normal(size=3)), ad.leaf(rng.normal(size=3))
        root = ad.reduce_sum(ad.exp(a))
        ad.mul(a, b)  # b feeds a node, just not the root
        got = ad.recompute(root, {b.id: rng.normal(size=3)})
        assert got.tobytes() == root.value.tobytes()
        assert ad.recompute(root, {a.id: np.zeros(3)}) == 3.0


def add_at_reference(index, shape, a):
    """The row scatter as it was first written: np.add.at into zeros."""
    out = np.zeros(shape)
    np.add.at(out, index, a)
    return out


@st.composite
def scatter_cases(draw):
    """(index, shape, a) for both index kinds, with repeated rows and
    magnitudes from 1e-8 to 1e8, so a change of summation order shows."""
    rows = draw(st.integers(1, 6), label="rows")
    n = draw(st.integers(1, 40), label="picks")
    seed = draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    if draw(st.booleans(), label="entry kind"):
        cols = draw(st.integers(1, 5), label="cols")
        index = (np.arange(n), rng.integers(0, cols, n))
        shape = (n, cols)
        a_shape = (n,)
    else:
        index = (rng.integers(0, rows, n),)
        width = draw(st.sampled_from([None, 1, 2, 7]), label="width")
        shape = (rows,) if width is None else (rows, width)
        a_shape = (n,) + shape[1:]
    signs = rng.choice([-1.0, 1.0], size=a_shape)
    a = signs * 10.0 ** rng.uniform(-8, 8, size=a_shape)
    return index, shape, a


class TestScatterRows:
    @given(scatter_cases())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_add_at(self, case):
        index, shape, a = case
        got = ad._fwd_scatter_rows({"index": index, "shape": shape}, a)
        want = add_at_reference(index, shape, a)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0

    def test_repeated_rows_sum_in_input_order(self):
        # (1e16 + 1) + 1 rounds twice; summing the 1s first would not
        a = np.array([[1e16], [1.0], [1.0]])
        index = (np.array([0, 0, 0]),)
        got = ad._fwd_scatter_rows({"index": index, "shape": (1, 1)}, a)
        assert got.tobytes() == add_at_reference(index, (1, 1), a).tobytes()
        assert got[0, 0] == (1e16 + 1.0) + 1.0


def clip(grads, threshold):
    """``clip_by_norm`` with the norm it takes, as the engine passes it."""
    return ad.clip_by_norm(grads, threshold, ad.global_norm(grads))


class TestClipByNorm:
    def _gm(self, values):
        params = [ad.leaf(np.zeros_like(np.asarray(v, dtype=float)))
                  for v in values]
        grads = [ad.const(v) for v in values]
        return ad.GradMap(params, grads)

    def test_scales_above_threshold(self):
        gm = clip(self._gm([[3.0, 4.0]]), 2.0)
        np.testing.assert_allclose(gm.grads[0].value, [1.2, 1.6], atol=1e-9)

    def test_untouched_below_threshold(self):
        gm = self._gm([[0.1, 0.1]])
        assert clip(gm, 2.0) is gm

    def test_untouched_at_threshold(self):
        gm = self._gm([[3.0, 4.0]])  # norm exactly 5
        assert clip(gm, 5.0) is gm

    def test_zero_grads_pass_through(self):
        gm = clip(self._gm([[0.0, 0.0]]), 2.0)
        np.testing.assert_array_equal(gm.grads[0].value, [0.0, 0.0])

    def test_global_norm_over_entries(self):
        gm = self._gm([[3.0], [4.0]])
        clipped = clip(gm, 2.0)
        total = sum(float((g.value ** 2).sum()) for g in clipped.grads)
        assert np.sqrt(total) <= 2.0 + 1e-12

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=6),
           st.floats(0.1, 10))
    @settings(max_examples=50, deadline=None)
    def test_norm_bound_and_idempotence(self, vals, threshold):
        gm = self._gm([vals])
        once = clip(gm, threshold)
        norm = float(np.linalg.norm(once.grads[0].value))
        assert norm <= threshold + 1e-12
        twice = clip(once, threshold)
        np.testing.assert_allclose(twice.grads[0].value, once.grads[0].value,
                                   atol=1e-12)

    def test_clip_is_differentiable_when_active(self):
        x = ad.leaf([3.0, 4.0])
        f = ad.reduce_sum(ad.square(x))
        clipped = clip(ad.grad(f, [x]), 2.0)
        s = ad.reduce_sum(ad.square(clipped[x]))
        assert ad.finite_diff_check(s, [x]) < 1e-6

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_global_norm_matches_graph_norm_bit_for_bit(self, data):
        seed = data.draw(st.integers(0, 2**16), label="seed")
        shapes = data.draw(st.lists(st.sampled_from([(), (1,), (5,), (3, 4),
                                                     (16, 8)]),
                                    min_size=1, max_size=6), label="shapes")
        rng = np.random.default_rng(seed)
        grads = [ad.leaf(rng.normal(size=s) * 10.0 ** rng.uniform(-6, 6))
                 for s in shapes]
        gm = ad.GradMap([ad.leaf(np.zeros(s)) for s in shapes], grads)
        graph = ad.sqrt(functools.reduce(
            ad.add, [ad.reduce_sum(ad.square(g)) for g in grads]))
        norm = ad.global_norm(gm)
        assert norm.op == "const"
        assert norm.value.tobytes() == graph.value.tobytes()

    def test_precomputed_norm_stays_differentiable_when_clipping(self):
        # The scale threshold / |g(x)| must move with x. Only a finite
        # difference that rebuilds the gradient, the norm and the clip at
        # each point sees that; ``recompute`` would hold a constant scale.
        rng = np.random.default_rng(4)
        w = rng.normal(size=3)
        threshold = 0.5

        def clipped_objective(x_value, with_grad):
            x = ad.leaf(x_value)
            gm = ad.grad(ad.reduce_sum(ad.mul(ad.square(ad.square(x)),
                                              ad.const(0.25))), [x])
            norm = ad.global_norm(gm)  # a const, passed in as the engine does
            assert float(norm.value) > threshold  # clipping fires
            clipped = ad.clip_by_norm(gm, threshold, norm)
            s = ad.reduce_sum(ad.mul(clipped[x], ad.const(w)))
            if not with_grad:
                return float(s.value)
            with ad.values_only():
                return ad.grad(s, [x])[x].value

        x0 = np.array([1.5, -2.0, 0.7])
        analytic = clipped_objective(x0, True)
        h = 1e-6
        numeric = np.array([
            (clipped_objective(x0 + h * e, False)
             - clipped_objective(x0 - h * e, False)) / (2 * h)
            for e in np.eye(3)])
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)
        # holding the scale fixed gives a different gradient, so the check
        # above can tell the two apart
        fixed = threshold / (np.linalg.norm(x0 ** 3) + ad.EPS) * 3 * x0 ** 2 * w
        assert np.abs(fixed - numeric).max() > 1e-3


class TestFiniteDiffCheck:
    def test_smooth_polynomial_tight(self):
        x = ad.leaf(3.0)
        assert ad.finite_diff_check(ad.square(x), [x]) < 1e-7

    def test_mlp_cross_entropy(self):
        rng = np.random.default_rng(3)
        w1, b1 = ad.leaf(rng.normal(size=(4, 6))), ad.leaf(rng.normal(size=6) * 0.1)
        w2, b2 = ad.leaf(rng.normal(size=(6, 3))), ad.leaf(rng.normal(size=3) * 0.1)
        x = ad.const(rng.normal(size=(1, 4)))
        h = ad.relu(ad.add(ad.matmul(x, w1), b1))
        logits = ad.add(ad.matmul(h, w2), b2)
        loss = ad.neg(ad.gather_rows(ad.log_softmax(logits), np.array([1])))
        loss = ad.reduce_sum(loss)
        assert ad.finite_diff_check(loss, [w1, b1, w2, b2]) < 1e-5
