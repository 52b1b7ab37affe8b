import base64
import json
import re

import numpy as np
import pytest

import reference as ref
from tsicl import autodiff as ad
from tsicl.errors import DataError, GeometryError, NumericalError


def finite_difference(build_loss, params, eps=1e-5):
    """Central differences over every element of every parameter."""
    grads = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = build_loss()
            flat[i] = orig - eps
            down = build_loss()
            flat[i] = orig
            g[i] = (up - down) / (2 * eps)
        grads[name] = g.reshape(p.data.shape)
    return grads


def analytic(build_graph, params):
    for p in params.values():
        p.zero_grad()
    with ad.Tape() as tape:
        loss = build_graph()
        tape.backward(loss)
    return {name: (p.grad if p.grad is not None else np.zeros_like(p.data)) for name, p in params.items()}


def assert_grads_match(build_graph, params, tol=1e-4):
    exact = analytic(build_graph, params)
    approx = finite_difference(lambda: float(build_graph().data), params)
    for name in params:
        denom = np.maximum(np.maximum(np.abs(exact[name]), np.abs(approx[name])), 1e-6)
        rel = np.abs(exact[name] - approx[name]) / denom
        assert rel.max() <= tol, f"{name}: rel err {rel.max():.2e}"


def scalarize(t: ad.Tensor) -> ad.Tensor:
    # squared-mean reduction to a scalar loss via the MSE op
    return ad.mse_loss(t, np.zeros(t.shape))


class TestForwardExamples:
    def test_softmax_symmetry(self):
        out = ref.softmax(ad.constant([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = ref.softmax(ad.constant(rng.normal(size=(4, 7, 9)) * 30))
        assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) < 1e-12

    def test_softmax_mask_zeroes_disallowed(self):
        allowed = np.tril(np.ones((3, 3), dtype=bool))
        out = ref.softmax(ad.constant(np.zeros((3, 3))), allowed=allowed)
        assert np.allclose(out.data, np.tril(np.ones((3, 3))) / np.arange(1, 4)[:, None])

    def test_softmax_empty_dim(self):
        with pytest.raises(GeometryError, match="empty"):
            ref.softmax(ad.constant(np.zeros((2, 0))))

    def test_layer_norm_constant_row_is_zero(self):
        g, b = ad.Parameter(np.ones(5), "g"), ad.Parameter(np.zeros(5), "b")
        out = ad.layer_norm(ad.constant(np.full((2, 5), 3.7)), g, b)
        assert np.max(np.abs(out.data)) < 1e-6

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(1)
        g, b = ad.Parameter(np.ones(16), "g"), ad.Parameter(np.zeros(16), "b")
        out = ad.layer_norm(ad.constant(rng.normal(2.0, 3.0, size=(8, 16))), g, b)
        mu = out.data.mean(axis=-1)
        var = out.data.var(axis=-1)
        assert np.max(np.abs(mu)) < 1e-10
        assert np.max(np.abs(var - 1.0)) < 1e-6

    def test_mse_loss_hand_value(self):
        out = ad.mse_loss(ad.constant([1.0, 2.0]), np.array([0.0, 0.0]))
        assert float(out.data) == 2.5

    def test_mse_loss_of_an_empty_prediction(self):
        with pytest.raises(DataError, match="empty"):
            ad.mse_loss(ad.constant(np.zeros((2, 0))), np.zeros((2, 0)))

    def test_matmul_takes_a_2d_weight_only(self):
        with pytest.raises(GeometryError, match="2-D weight"):
            ad.matmul(ad.constant(np.zeros((2, 3, 4))), ad.constant(np.zeros((2, 4, 3))))

    def test_matmul_shape_error_reports_shapes(self):
        with pytest.raises(GeometryError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3))))
        for bias in (np.zeros(4), np.zeros((1, 3)), np.zeros((2, 3))):  # only an (n,) bias fits a (k, n) weight
            with pytest.raises(GeometryError, match=re.escape(f"(2, 2) @ (2, 3) + {bias.shape}")):
                ad.matmul(ad.constant(np.zeros((2, 2))), ad.constant(np.zeros((2, 3))), ad.constant(bias))

    def test_add_rejects_general_broadcast(self):
        with pytest.raises(GeometryError, match="add shape mismatch"):
            ad.add(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 1))))

    def test_concat_and_slice(self):
        a, b = ad.constant(np.ones((2, 3))), ad.constant(np.zeros((1, 3)))
        out = ad.concat([a, b], axis=0)
        assert out.shape == (3, 3)
        sl = ad.row_slice(ad.constant(np.arange(12.0).reshape(4, 3)), 1, 3)
        assert np.array_equal(sl.data, np.arange(12.0).reshape(4, 3)[1:3])
        with pytest.raises(GeometryError, match="out of range"):
            ad.row_slice(a, 0, 4)

    def test_transpose(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(ref.transpose(ad.constant(x)).data, x.T)

    def test_merge_heads_inverts_split_heads(self):
        x = np.random.default_rng(2).normal(size=(3, 5, 12))
        folded = ad.split_heads(ad.constant(x), 4)
        assert folded.shape == (12, 5, 3)
        assert np.array_equal(ad.merge_heads(folded, 4).data, x)

    def test_split_heads_layout(self):
        b, s, heads, dh = 2, 4, 3, 5
        x = np.random.default_rng(3).normal(size=(b, s, heads * dh))
        folded = ad.split_heads(ad.constant(x), heads).data
        for i in range(b):
            for h in range(heads):
                assert np.array_equal(folded[i * heads + h], x[i, :, h * dh : (h + 1) * dh])

    def test_split_heads_width_not_divisible(self):
        with pytest.raises(GeometryError, match="not divisible by 4 heads"):
            ad.split_heads(ad.constant(np.zeros((2, 3, 10))), 4)
        with pytest.raises(GeometryError, match="not divisible by 4 heads"):
            ad.merge_heads(ad.constant(np.zeros((6, 3, 2))), 4)

    def test_attention_rejects_mismatched_operands(self):
        q = ad.constant(np.zeros((2, 5, 3)))
        with pytest.raises(GeometryError, match="attention"):
            ad.attention(q, ad.constant(np.zeros((2, 4, 3))), q, causal=True)
        with pytest.raises(GeometryError, match="attention"):
            ad.attention(q, q, ad.constant(np.zeros((2, 5))), causal=False)

    def test_rank_cap(self):
        with pytest.raises(GeometryError, match="rank"):
            ad.Tensor(np.zeros((2, 2, 2, 2)))

    def test_gelu_is_bit_identical_to_the_closed_form(self):
        c = np.sqrt(2.0 / np.pi)
        rng = np.random.default_rng(4)
        x = ad.Parameter(rng.normal(size=(4, 9, 16)) * 2, "x")
        with ad.Tape() as tape:
            out = ad.gelu(x)
            tape.backward(scalarize(out))
        xd = x.data
        th = np.tanh(c * (xd + 0.044715 * (xd * xd * xd)))
        du = c * (1.0 + 3 * 0.044715 * (xd * xd))
        assert np.array_equal(out.data, 0.5 * xd * (1.0 + th))
        # the upstream gradient of mean(out**2), exactly as mse_loss forms it
        dout = np.ones(()) * 2.0 * out.data / out.data.size
        assert np.array_equal(x.grad, dout * (0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th * th) * du))


class TestBackwardBasics:
    def test_square_gradient(self):
        # loss = x*x at x=3 -> d/dx = 6 (mean-squared reduction of a singleton)
        x = ad.Parameter(np.array([3.0]), "x")
        with ad.Tape() as tape:
            loss = ad.mse_loss(x_t(x), np.zeros(1))
            tape.backward(loss)
        assert np.allclose(x.grad, [6.0])

    def test_backward_requires_scalar(self):
        x = ad.Parameter(np.ones((2, 2)), "x")
        with ad.Tape() as tape:
            out = ref.scale(x, 2.0)
            with pytest.raises(GeometryError, match="scalar"):
                tape.backward(out)

    def test_backward_twice_fails(self):
        x = ad.Parameter(np.array([1.0]), "x")
        with ad.Tape() as tape:
            loss = ad.mse_loss(x_t(x), np.zeros(1))
            tape.backward(loss)
            with pytest.raises(RuntimeError, match="consumed"):
                tape.backward(loss)

    def test_loss_must_come_from_tape(self):
        x = ad.Parameter(np.array([1.0]), "x")
        loss = ad.mse_loss(x_t(x), np.zeros(1))  # built off-tape
        with ad.Tape() as tape:
            _ = ref.scale(x, 1.0)
            with pytest.raises(RuntimeError, match="last op"):
                tape.backward(loss)

    def test_nested_tapes_rejected(self):
        with ad.Tape():
            with pytest.raises(RuntimeError, match="already active"):
                with ad.Tape():
                    pass

    def test_gradient_accumulates_over_reuse(self):
        x = ad.Parameter(np.array([[2.0]]), "x")
        with ad.Tape() as tape:
            y = ad.matmul(x, x)  # x^2
            loss = ad.mse_loss(y, np.zeros((1, 1)))
            tape.backward(loss)
        # d(x^2)^2/dx = 4x^3 = 32
        assert np.allclose(x.grad, [[32.0]])

    def test_op_outputs_release_gradients(self):
        # only leaves keep a gradient after backward; every op output's is freed
        rng = np.random.default_rng(0)
        w = ad.Parameter(rng.normal(size=(3, 4)), "w")
        b = ad.Parameter(rng.normal(size=4), "b")
        x = ad.constant(rng.normal(size=(2, 5, 3)))
        with ad.Tape() as tape:
            outputs = [ad.matmul(x, w)]
            outputs.append(ad.add(outputs[-1], b))
            outputs.append(ad.gelu(outputs[-1]))
            outputs.append(ref.softmax(outputs[-1]))
            y = outputs[-1]
            outputs.append(ad.mse_loss(y, np.zeros(y.shape)))
            tape.backward(outputs[-1])
        assert all(out.grad is None for out in outputs)
        assert w.grad.shape == w.shape and b.grad.shape == b.shape

    def test_shared_gradient_is_not_updated_in_place(self):
        # add hands one dout to both a and b; a then receives a second gradient
        # from the earlier scale op. Adding it in place would corrupt b's gradient.
        for rng in [np.random.default_rng(seed) for seed in range(5)]:
            a = ad.Parameter(rng.normal(size=(2, 3, 4)), "a")
            b = ad.Parameter(rng.normal(size=(2, 3, 4)), "b")
            target = rng.normal(size=(4, 3, 4))

            def graph():
                d = ref.scale(a, 2.0)
                c = ad.add(a, b)
                return ad.mse_loss(ad.concat([c, d], axis=0), target)

            assert_grads_match(graph, {"a": a, "b": b})


def x_t(x: ad.Parameter) -> ad.Tensor:
    # identity through the graph so mse_loss sees a recorded tensor
    return ref.scale(x, 1.0)


class TestFiniteDifferencePerOp:
    """Each op's backward against central differences, 20 seeded shapes each."""

    def seeded_cases(self, n=20):
        return [np.random.default_rng(seed) for seed in range(n)]

    def test_matmul_2d_2d(self):
        for rng in self.seeded_cases():
            a = ad.Parameter(rng.normal(size=(3, 4)), "a")
            b = ad.Parameter(rng.normal(size=(4, 2)), "b")
            bias = ad.Parameter(rng.normal(size=2), "bias")
            assert_grads_match(lambda: scalarize(ad.matmul(a, b)), {"a": a, "b": b})
            assert_grads_match(lambda: scalarize(ad.matmul(a, b, bias)), {"a": a, "b": b, "bias": bias})

    def test_matmul_3d_2d(self):
        for rng in self.seeded_cases():
            a = ad.Parameter(rng.normal(size=(2, 3, 4)), "a")
            b = ad.Parameter(rng.normal(size=(4, 5)), "b")
            bias = ad.Parameter(rng.normal(size=5), "bias")
            assert_grads_match(lambda: scalarize(ad.matmul(a, b)), {"a": a, "b": b})
            assert_grads_match(lambda: scalarize(ad.matmul(a, b, bias)), {"a": a, "b": b, "bias": bias})

    def test_matmul_3d_3d(self):
        for rng in self.seeded_cases():
            a = ad.Parameter(rng.normal(size=(2, 3, 4)), "a")
            b = ad.Parameter(rng.normal(size=(2, 4, 3)), "b")
            assert_grads_match(lambda: scalarize(ref.matmul(a, b)), {"a": a, "b": b})

    def test_matmul_chain(self):
        for rng in self.seeded_cases():
            a = ad.Parameter(rng.normal(size=(3, 3)), "a")
            b = ad.Parameter(rng.normal(size=(3, 3)), "b")
            c = ad.Parameter(rng.normal(size=(3, 3)), "c")
            assert_grads_match(
                lambda: scalarize(ad.matmul(ad.matmul(a, b), c)), {"a": a, "b": b, "c": c}
            )

    def test_add_same_shape_and_bias(self):
        for rng in self.seeded_cases():
            a = ad.Parameter(rng.normal(size=(2, 3, 4)), "a")
            b = ad.Parameter(rng.normal(size=(2, 3, 4)), "b")
            bias = ad.Parameter(rng.normal(size=4), "bias")
            assert_grads_match(
                lambda: scalarize(ad.add(ad.add(a, b), bias)), {"a": a, "b": b, "bias": bias}
            )

    def test_scale(self):
        for rng in self.seeded_cases():
            a = ad.Parameter(rng.normal(size=(3, 4)), "a")
            assert_grads_match(lambda: scalarize(ref.scale(a, -1.7)), {"a": a})

    def test_transpose(self):
        for rng in self.seeded_cases():
            a = ad.Parameter(rng.normal(size=(2, 3, 4)), "a")
            b = ad.Parameter(rng.normal(size=(2, 3, 4)), "b")
            assert_grads_match(
                lambda: scalarize(ref.matmul(ref.transpose(a), b)), {"a": a, "b": b}
            )

    def test_softmax(self):
        for rng in self.seeded_cases():
            a = ad.Parameter(rng.normal(size=(2, 4, 4)) * 2, "a")
            assert_grads_match(lambda: scalarize(ref.softmax(a)), {"a": a})

    def test_softmax_masked(self):
        allowed = np.tril(np.ones((4, 4), dtype=bool))
        for rng in self.seeded_cases():
            a = ad.Parameter(rng.normal(size=(2, 4, 4)) * 2, "a")
            assert_grads_match(lambda: scalarize(ref.softmax(a, allowed=allowed)), {"a": a})

    def test_layer_norm(self):
        for rng in self.seeded_cases():
            rows = rng.normal(size=(3, 6)) * 2
            g = ad.Parameter(rng.normal(size=6), "g")
            b = ad.Parameter(rng.normal(size=6), "b")
            # last row: variance ~1e-8, below the 1e-5 variance floor
            flat_row = 0.7 + 1e-4 * rng.normal(size=(1, 6))
            x = ad.Parameter(np.concatenate([rows, flat_row]), "x")
            assert x.data[-1].var() < 1e-5 <= x.data[:-1].var(axis=-1).min()
            assert_grads_match(lambda: scalarize(ad.layer_norm(x, g, b)), {"x": x, "g": g, "b": b})

    def test_gelu(self):
        for rng in self.seeded_cases():
            x = ad.Parameter(rng.normal(size=(3, 5)) * 2, "x")
            assert_grads_match(lambda: scalarize(ad.gelu(x)), {"x": x})

    def test_concat_and_slice(self):
        for rng in self.seeded_cases():
            a = ad.Parameter(rng.normal(size=(2, 2, 3)), "a")
            b = ad.Parameter(rng.normal(size=(2, 3, 3)), "b")

            def graph():
                joined = ad.concat([a, b], axis=1)
                return scalarize(ad.row_slice(joined, 1, 4))

            assert_grads_match(graph, {"a": a, "b": b})

    def test_row_slice(self):
        for rng in self.seeded_cases():
            a = ad.Parameter(rng.normal(size=(2, 6, 3)), "a")
            assert_grads_match(lambda: scalarize(ad.row_slice(a, 2, 5)), {"a": a})

    def test_split_heads(self):
        for rng in self.seeded_cases():
            heads = int(rng.integers(1, 4))
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), heads * int(rng.integers(1, 4)))
            a = ad.Parameter(rng.normal(size=shape), "a")
            # a random target makes the loss sensitive to where each element lands
            target = rng.normal(size=(shape[0] * heads, shape[1], shape[2] // heads))
            assert_grads_match(
                lambda: ad.mse_loss(ad.split_heads(a, heads), target), {"a": a}
            )

    def test_merge_heads(self):
        for rng in self.seeded_cases():
            heads = int(rng.integers(1, 4))
            shape = (heads * int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            a = ad.Parameter(rng.normal(size=shape), "a")
            target = rng.normal(size=(shape[0] // heads, shape[1], shape[2] * heads))
            assert_grads_match(
                lambda: ad.mse_loss(ad.merge_heads(a, heads), target), {"a": a}
            )

    def test_mse_loss_gradient(self):
        for rng in self.seeded_cases():
            a = ad.Parameter(rng.normal(size=(3, 4)), "a")
            target = rng.normal(size=(3, 4))
            assert_grads_match(lambda: ad.mse_loss(x_t_like(a), target), {"a": a})


# longer than one attention row tile and not a multiple of it
ATTENTION_ROWS = ad._ATTENTION_TILE + 7


def attention_operands(rng):
    return [ad.Parameter(rng.normal(size=(2, ATTENTION_ROWS, 3)), name) for name in "qkv"]


# query counts against ATTENTION_ROWS keys: inside the first tile, at its edge and past it
SHORT_QUERY_ROWS = [1, 3, ad._ATTENTION_TILE - 1, ad._ATTENTION_TILE + 3]


def short_query_operands(rng, rows):
    """Queries for the last ``rows`` positions, and keys and values over all ATTENTION_ROWS."""
    counts = (rows, ATTENTION_ROWS, ATTENTION_ROWS)
    return [ad.Parameter(rng.normal(size=(2, n, 3)), name) for name, n in zip("qkv", counts)]


class TestAttention:
    @pytest.mark.parametrize("causal", [True, False])
    def test_matches_finite_differences(self, causal):
        for rng in [np.random.default_rng(seed) for seed in range(2)]:
            q, k, v = attention_operands(rng)
            target = rng.normal(size=q.shape)
            assert_grads_match(
                lambda: ad.mse_loss(ad.attention(q, k, v, causal), target),
                {"q": q, "k": k, "v": v},
            )

    @pytest.mark.parametrize("causal", [True, False])
    def test_matches_the_softmax_chain(self, causal):
        for rng in [np.random.default_rng(seed) for seed in range(3)]:
            q, k, v = attention_operands(rng)
            q.data = q.data * 3.0  # peaked rows: some probabilities far below others
            target = rng.normal(size=q.shape)
            results = []
            for op in (ad.attention, ref.attention):
                grads = analytic(lambda: ad.mse_loss(op(q, k, v, causal), target),
                                 {"q": q, "k": k, "v": v})
                results.append((op(q, k, v, causal).data, grads))
            (got, got_grads), (want, want_grads) = results
            assert np.max(np.abs(got - want)) <= 1e-12
            for name in "qkv":
                assert np.max(np.abs(got_grads[name] - want_grads[name])) <= 1e-12, name

    def test_causal_rows_never_see_later_keys(self):
        rng = np.random.default_rng(4)
        q, k, v = attention_operands(rng)
        base = ad.attention(q, k, v, causal=True).data
        tile = ad._ATTENTION_TILE
        for j in (0, 1, tile - 1, tile, tile + 1, ATTENTION_ROWS - 1):
            k2, v2 = k.data.copy(), v.data.copy()
            k2[:, j] += rng.normal(size=k2[:, j].shape)
            v2[:, j] += rng.normal(size=v2[:, j].shape)
            out = ad.attention(q, ad.constant(k2), ad.constant(v2), causal=True).data
            assert np.array_equal(out[:, :j], base[:, :j]), f"key {j} leaked backwards"
            assert np.max(np.abs(out[:, j] - base[:, j])) > 1e-6, f"key {j} did not reach its own row"

    @pytest.mark.parametrize("rows", SHORT_QUERY_ROWS)
    @pytest.mark.parametrize("causal", [True, False])
    def test_short_queries_match_finite_differences(self, causal, rows):
        rng = np.random.default_rng(rows)
        q, k, v = short_query_operands(rng, rows)
        target = rng.normal(size=q.shape)
        assert_grads_match(
            lambda: ad.mse_loss(ad.attention(q, k, v, causal), target),
            {"q": q, "k": k, "v": v},
        )

    @pytest.mark.parametrize("rows", SHORT_QUERY_ROWS)
    @pytest.mark.parametrize("causal", [True, False])
    def test_short_queries_match_the_last_rows_of_the_full_op(self, causal, rows):
        rng = np.random.default_rng(rows + 100)
        q, k, v = short_query_operands(rng, rows)
        off = ATTENTION_ROWS - rows
        full_q = ad.Parameter(np.concatenate([rng.normal(size=(2, off, 3)), q.data], axis=1), "q")
        target = rng.normal(size=q.shape)

        def loss(out):
            return ad.mse_loss(out, target)

        got = ad.attention(q, k, v, causal).data
        got_grads = analytic(lambda: loss(ad.attention(q, k, v, causal)), {"q": q, "k": k, "v": v})
        want = ad.attention(full_q, k, v, causal).data[:, off:]
        want_grads = analytic(lambda: loss(ad.row_slice(ad.attention(full_q, k, v, causal), off, ATTENTION_ROWS)),
                              {"q": full_q, "k": k, "v": v})
        want_grads["q"] = want_grads["q"][:, off:]
        assert np.max(np.abs(got - want)) <= 1e-12
        for name in "qkv":
            assert got_grads[name].shape == want_grads[name].shape, name
            assert np.max(np.abs(got_grads[name] - want_grads[name])) <= 1e-12, name

    @pytest.mark.parametrize("rows", SHORT_QUERY_ROWS)
    def test_short_causal_queries_never_see_later_keys(self, rows):
        rng = np.random.default_rng(rows + 200)
        q, k, v = short_query_operands(rng, rows)
        off = ATTENTION_ROWS - rows
        base = ad.attention(q, k, v, causal=True).data
        for j in sorted({0, off - 1, off, off + rows // 2, ATTENTION_ROWS - 1}):
            k2, v2 = k.data.copy(), v.data.copy()
            k2[:, j] += rng.normal(size=k2[:, j].shape)
            v2[:, j] += rng.normal(size=v2[:, j].shape)
            out = ad.attention(q, ad.constant(k2), ad.constant(v2), causal=True).data
            # query row i sits at key position off + i
            seen = max(0, j - off)
            assert np.array_equal(out[:, :seen], base[:, :seen]), f"key {j} leaked backwards"
            assert np.max(np.abs(out[:, seen:] - base[:, seen:])) > 1e-6, f"key {j} reached no later row"

    def test_more_queries_than_keys_are_refused(self):
        q = ad.constant(np.zeros((2, 6, 3)))
        k = ad.constant(np.zeros((2, 5, 3)))
        with pytest.raises(GeometryError, match="S_q <= S_k"):
            ad.attention(q, k, k, causal=False)


def x_t_like(a):
    return ref.scale(a, 1.0)


def test_an_overflow_passes_through_an_op_unchecked():
    with pytest.warns(RuntimeWarning, match="overflow"):
        out = ref.scale(ad.constant([1e308]), 1e308)
    assert np.isinf(out.data).any()


class TestCheckpoint:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        params = {
            "w": ad.Parameter(rng.normal(size=(3, 4)), "w"),
            "b": ad.Parameter(rng.normal(size=4) * 1e-17, "b"),
        }
        path = tmp_path / "ckpt.json"
        ad.save_params(params, path, meta={"seed": 7})
        loaded, meta = ad.load_params(path)
        assert meta == {"seed": 7}
        for name in params:
            assert loaded[name].data.shape == params[name].data.shape
            assert np.array_equal(loaded[name].data, params[name].data)  # bit-exact
            assert loaded[name].data.flags.writeable

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(DataError, match="no such checkpoint"):
            ad.load_params(tmp_path / "missing.json")

    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        f32 = np.finfo(np.float32)
        edges = [0.0, -0.0, f32.smallest_subnormal, f32.smallest_normal, f32.max, -f32.max]
        # ±7.038531e-26, whose shortest decimal parses to the float64 midpoint between it and the next float32
        halfway = np.array([0x15AE43FD, 0x95AE43FD], dtype=np.uint32).view(np.float32)
        patterns = rng.integers(0, 2**32, size=120_000, dtype=np.uint64).astype(np.uint32).view(np.float32)
        params = {
            "w": ad.Parameter(rng.normal(size=(3, 4)).astype(np.float32), "w"),
            "b": ad.Parameter((rng.normal(size=4) * 1e-30).astype(np.float32), "b"),
            "edges": ad.Parameter(np.concatenate([np.array(edges, dtype=np.float32), halfway]), "edges"),
            "patterns": ad.Parameter(patterns[np.isfinite(patterns)], "patterns"),
        }
        assert params["patterns"].data.size >= 100_000
        path = tmp_path / "ckpt.json"
        ad.save_params(params, path)
        assert json.loads(path.read_text())["dtype"] == "float32"
        loaded, _ = ad.load_params(path)
        for name in params:
            assert loaded[name].data.dtype == np.float32
            assert np.array_equal(loaded[name].data.view(np.uint32), params[name].data.view(np.uint32))  # bit-exact

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_value_is_written_as_its_bytes_in_the_dtype(self, dtype, tmp_path):
        rng = np.random.default_rng(7)
        data = np.concatenate([rng.normal(size=50), [0.0, -0.0, 1e-40, 1e7, 3e38]]).astype(dtype)
        path = tmp_path / "ckpt.json"
        ad.save_params({"w": ad.Parameter(data.reshape(5, 11), "w")}, path)
        entry = json.loads(path.read_text())["params"]["w"]
        assert entry["shape"] == [5, 11]
        assert entry["data"] == base64.b64encode(data.astype(np.dtype(dtype).newbyteorder("<")).tobytes()).decode()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_is_refused_before_writing(self, bad, tmp_path):
        params = {
            "w": ad.Parameter(np.ones(3, dtype=np.float32), "w"),
            "l0.ff.b1": ad.Parameter(np.array([0.5, bad, 1.0], dtype=np.float32), "l0.ff.b1"),
        }
        with pytest.raises(NumericalError, match="parameter l0.ff.b1"):
            ad.save_params(params, tmp_path / "ckpt.json")
        assert not (tmp_path / "ckpt.json").exists()

    def test_a_file_without_a_dtype_names_the_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ad.save_params({"w": ad.Parameter(np.array([0.1, -2.5]), "w")}, path)
        payload = json.loads(path.read_text())
        del payload["dtype"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=f"malformed checkpoint {path}.*dtype"):
            ad.load_params(path)

    def test_an_unknown_dtype_names_the_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ad.save_params({"w": ad.Parameter(np.ones(2, dtype=np.float32), "w")}, path)
        path.write_text(path.read_text().replace('"float32"', '"int8"'))
        with pytest.raises(DataError, match=f"malformed checkpoint {path}.*int8"):
            ad.load_params(path)

    def test_mixed_dtypes_are_refused(self, tmp_path):
        params = {
            "w": ad.Parameter(np.ones(2, dtype=np.float32), "w"),
            "b": ad.Parameter(np.ones(2), "b"),
        }
        with pytest.raises(DataError, match="mixed dtypes"):
            ad.save_params(params, tmp_path / "ckpt.json")
        assert not (tmp_path / "ckpt.json").exists()
