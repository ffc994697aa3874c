import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadapt import tensor as T
from qadapt.tensor import Tensor, backward, constant, finite_difference_check


def rand(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * scale


class TestForward:
    def test_softmax_uniform_logits(self):
        out = T.softmax(constant(np.zeros(4)))
        assert np.allclose(out.data, 0.25, atol=0)

    def test_softmax_rows_sum_to_one(self):
        out = T.softmax(constant(rand((5, 7), seed=1, scale=3.0)))
        assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) < 1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        x = constant(rand((4, 6), seed=2, scale=2.0))
        a = T.log_softmax(x).data
        b = np.log(T.softmax(x).data)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_masked_mean_single_row_identity(self):
        x = rand((5, 3), seed=3)
        mask = np.array([False, False, True, False, False])
        out = T.masked_mean(constant(x), mask)
        assert np.array_equal(out.data, x[2])

    def test_masked_mean_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            T.masked_mean(constant(np.ones((3, 2))), np.zeros(3, dtype=bool))

    def test_pairwise_sq_dist_hand_value(self):
        # 3^2 + 4^2 = 25
        d = T.pairwise_sq_dist(constant([[0.0, 0.0]]), constant([[3.0, 4.0]]))
        assert d.data[0, 0] == 25.0

    def test_shape_mismatch_reports_dimensions(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\)"):
            T.add(constant(np.ones((2, 3))), constant(np.ones((3, 2))))

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            T.log(constant([1.0, 0.0]))

    def test_matmul_inner_dim_check(self):
        with pytest.raises(T.ShapeError):
            T.matmul(constant(np.ones((2, 3))), constant(np.ones((4, 2))))

    def test_row_vector_broadcast(self):
        x = constant(np.ones((4, 3)))
        b = constant(np.array([1.0, 2.0, 3.0]))
        out = T.add(x, b)
        assert np.array_equal(out.data, np.ones((4, 3)) + np.array([1.0, 2.0, 3.0]))

    def test_inner_broadcast_rejected(self):
        with pytest.raises(T.ShapeError):
            T.mul(constant(np.ones((4, 1))), constant(np.ones((4, 3))))

    def test_determinism_bitwise(self):
        x = rand((6, 6), seed=9)
        a = T.softmax(T.matmul(constant(x), constant(x))).data
        b = T.softmax(T.matmul(constant(x), constant(x))).data
        assert np.array_equal(a, b)


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        backward(T.mul(x, x))
        assert x.grad == pytest.approx(6.0, abs=0)

    def test_sum_of_softmax_has_zero_gradient(self):
        x = Tensor(rand(5, seed=4), requires_grad=True)
        backward(T.softmax(x).sum())
        assert np.max(np.abs(x.grad)) < 1e-15

    def test_unused_leaf_gets_no_gradient(self):
        x = Tensor(rand(3, seed=5), requires_grad=True)
        y = Tensor(rand(3, seed=6), requires_grad=True)
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones(3))
        assert y.grad is None

    def test_cancelled_leaf_gets_exact_zero(self):
        x = Tensor(rand(3, seed=7), requires_grad=True)
        y = Tensor(rand(3, seed=8), requires_grad=True)
        backward((x + 0.0 * y).sum())
        assert np.array_equal(y.grad, np.zeros(3))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(rand(3, seed=10), requires_grad=True)
        with pytest.raises(T.GraphError, match="scalar"):
            backward(x + x)

    def test_graph_consumed_once(self):
        x = Tensor(rand(3, seed=11), requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        with pytest.raises(T.GraphError, match="consumed"):
            backward(loss)

    def test_shared_subgraph_consumed(self):
        x = Tensor(rand(3, seed=12), requires_grad=True)
        h = x * x
        l1 = h.sum()
        l2 = h.mean()
        backward(l1)
        with pytest.raises(T.GraphError, match="consumed"):
            backward(l2)

    def test_gradient_accumulates_across_backwards(self):
        x = Tensor(rand(3, seed=13), requires_grad=True)
        backward(x.sum())
        backward(x.sum())
        assert np.array_equal(x.grad, 2.0 * np.ones(3))

    def test_diamond_graph_accumulates(self):
        # loss = sum(x*x + x*x) -> grad 4x
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        h = x * x
        backward((h + h).sum())
        assert np.allclose(x.grad, 4.0 * x.data, atol=0)


class TestFiniteDifference:
    def test_linear_function_exact(self):
        x = constant(rand(7, seed=20))
        err = finite_difference_check(lambda t: t.sum(), x)
        assert err < 1e-10

    def test_composite_three_layer(self):
        w1 = rand((4, 5), seed=21)
        w2 = rand((5, 3), seed=22)
        x = constant(rand((2, 4), seed=23))

        def f(t):
            h = T.relu(T.matmul(x, t))
            h = T.softmax(T.matmul(h, constant(w2)))
            return T.mul(h, h).sum()

        assert finite_difference_check(f, constant(w1)) < 1e-5

    def test_gaussian_kernel_term(self):
        y = constant(rand((3, 4), seed=24))

        def f(t):
            d = T.pairwise_sq_dist(t, y)
            return T.exp(T.mul(d, constant(-1.0))).sum()

        assert finite_difference_check(f, constant(rand((2, 4), seed=25))) < 1e-5

    def test_wrong_gradient_rule_is_caught(self):
        # forward 2x, backward claims 3: a corrupted vjp must show up
        def bad_double(t):
            return T._node(2.0 * t.data, (t,), lambda g: (3.0 * g,))

        x = constant(rand(4, seed=26))
        err = finite_difference_check(lambda t: bad_double(t).sum(), x)
        assert err > 1e-2

    def test_nonfinite_reports_coordinate(self):
        x = constant(np.array([1.0, 1e-6]))

        def f(t):
            return T.log(t).sum()

        with pytest.raises(T.NonFiniteError, match="coordinate 1"):
            finite_difference_check(f, x, step=1e-5)


def _fixed(shape, seed):
    return constant(rand(shape, seed=300 + seed))


SEGMENTS = [0, 1, 4]  # two segments of different lengths over 4 packed rows


def _attention_with(position):
    """segment_attention with the [4 x 3] input as q, k or v (3 heads)."""
    def fn(t, aux):
        qkv = [constant(aux.data[:4]), constant(aux.data[4:]), _fixed((4, 3), 1)]
        qkv[position] = t
        return T.mul(T.segment_attention(*qkv, SEGMENTS, num_heads=3), _fixed((4, 3), 2)).sum()
    return fn


# each entry: (aux shape, scalar-valued function of a [4 x 3] input and the aux)
OPS = {
    "add": ((4, 3), lambda t, aux: (t + aux).sum()),
    "sub": ((4, 3), lambda t, aux: (aux - t).mean()),
    "mul": ((4, 3), lambda t, aux: (t * aux * t).sum()),
    "matmul": ((3, 4), lambda t, aux: T.matmul(t, aux).sum()),
    "exp": ((4, 3), lambda t, aux: T.exp(t).sum()),
    "log": ((4, 3), lambda t, aux: T.log(T.exp(t)).mean()),
    "relu": ((4, 3), lambda t, aux: T.relu(t).sum()),
    "softmax": ((4, 3), lambda t, aux: T.mul(T.softmax(t), aux).sum()),
    "log_softmax": ((4, 3), lambda t, aux: T.mul(T.log_softmax(t), aux).sum()),
    "layer_norm": ((4, 3), lambda t, aux: T.mul(T.layer_norm(t), aux).sum()),
    "masked_mean": ((3,), lambda t, aux: T.mul(T.masked_mean(t, np.array([True, False, True, True])), aux).sum()),
    "pairwise_sq_dist": ((5, 3), lambda t, aux: T.exp(-1.0 * T.pairwise_sq_dist(t, aux)).sum()),
    "transpose": ((4, 4), lambda t, aux: T.matmul(T.transpose(t), aux).sum()),
    "stack_slice": ((3, 4), lambda t, aux: T.slice_cols(T.matmul(t, aux), 1, 3).sum()),
    "linear": ((3, 5), lambda t, aux: T.mul(T.linear(t, aux, _fixed(5, 3)), _fixed((4, 5), 4)).sum()),
    "layer_norm_affine": ((2, 3), lambda t, aux: T.mul(
        T.layer_norm(t, constant(aux.data[0]), constant(aux.data[1])), _fixed((4, 3), 5)).sum()),
    "ffn": ((3, 6), lambda t, aux: T.mul(
        T.ffn(t, aux, _fixed(6, 6), _fixed((6, 3), 7), _fixed(3, 8)), _fixed((4, 3), 9)).sum()),
    "segment_attention_q": ((8, 3), _attention_with(0)),
    "segment_attention_k": ((8, 3), _attention_with(1)),
    "segment_attention_v": ((8, 3), _attention_with(2)),
    "segment_nll": ((2,), lambda t, aux: T.mul(
        T.segment_nll(T.reshape(t, (12,)), [0, 5, 12], [2, 9]), aux).sum()),
}


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("seed", range(7))
def test_gradcheck_per_op(op, seed):
    # spread: 22 ops x 7 seeds, plus 2 model-level checks
    aux_shape, fn = OPS[op]
    x = constant(rand((4, 3), seed=100 + seed))
    aux = constant(rand(aux_shape, seed=200 + seed))
    err = finite_difference_check(lambda t: fn(t, aux), x)
    assert err < 1e-5, f"{op} seed={seed}: rel err {err:.3e}"


# fused ops' parameter inputs: (op, [input shapes], scalar function of the inputs)
FUSED_INPUTS = {
    "linear": ([(4, 3), (3, 5), (5,)], lambda x, w, b: T.mul(T.linear(x, w, b), _fixed((4, 5), 10)).sum()),
    "layer_norm": ([(4, 3), (3,), (3,)],
                   lambda x, g, b: T.mul(T.layer_norm(x, g, b), _fixed((4, 3), 11)).sum()),
    "ffn": ([(4, 3), (3, 6), (6,), (6, 3), (3,)],
            lambda x, w1, b1, w2, b2: T.mul(T.ffn(x, w1, b1, w2, b2), _fixed((4, 3), 12)).sum()),
}


@pytest.mark.parametrize("op,position", [(op, i) for op, (shapes, _) in sorted(FUSED_INPUTS.items())
                                         for i in range(1, len(shapes))])
@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_fused_op_parameters(op, position, seed):
    shapes, fn = FUSED_INPUTS[op]
    inputs = [constant(rand(shape, seed=400 + 10 * seed + i)) for i, shape in enumerate(shapes)]

    def f(t):
        return fn(*inputs[:position], t, *inputs[position + 1:])

    err = finite_difference_check(f, inputs[position])
    assert err < 1e-5, f"{op} input {position} seed={seed}: rel err {err:.3e}"


class TestFusedForward:
    def test_segment_attention_keeps_segments_apart(self):
        q, k, v = (rand((7, 4), seed=s) for s in (30, 31, 32))
        packed = T.segment_attention(constant(q), constant(k), constant(v), [0, 3, 7], 2).data
        for lo, hi in ((0, 3), (3, 7)):
            alone = T.segment_attention(constant(q[lo:hi]), constant(k[lo:hi]),
                                        constant(v[lo:hi]), [0, hi - lo], 2).data
            assert np.max(np.abs(packed[lo:hi] - alone)) < 1e-15

    def test_segment_attention_matches_per_head_softmax(self):
        q, k, v = (rand((5, 4), seed=s) for s in (33, 34, 35))
        got = T.segment_attention(constant(q), constant(k), constant(v), [0, 5], 2).data
        for h in range(2):
            cols = slice(2 * h, 2 * h + 2)
            want = T.softmax(constant(q[:, cols] @ k[:, cols].T / np.sqrt(2))).data @ v[:, cols]
            assert np.max(np.abs(got[:, cols] - want)) < 1e-14

    def test_segment_nll_matches_log_softmax(self):
        x = rand(9, seed=36)
        got = T.segment_nll(constant(x), [0, 4, 9], [1, 8]).data
        want = [-T.log_softmax(constant(x[:4])).data[1], -T.log_softmax(constant(x[4:])).data[4]]
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("offsets", [[0, 4], [0, 2, 2, 5], [1, 5], [0, 3], [[0, 5]]])
    def test_bad_offsets_rejected(self, offsets):
        x = constant(np.ones((5, 2)))
        with pytest.raises(T.ShapeError, match="offsets"):
            T.segment_attention(x, x, x, offsets, 1)

    def test_segment_nll_index_outside_its_segment_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            T.segment_nll(constant(np.zeros(6)), [0, 3, 6], [1, 2])


class TestNoGrad:
    def test_records_nothing_and_restores(self):
        x = Tensor(rand(3, seed=40), requires_grad=True)
        with T.no_grad():
            y = T.exp(x) * x
            assert not y.requires_grad and y._parents == ()
        z = T.exp(x)
        assert z.requires_grad and z._parents == (x,)

    def test_nested_and_restored_after_error(self):
        x = Tensor(rand(3, seed=41), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                with T.no_grad():
                    pass
                assert not T.exp(x).requires_grad
                raise RuntimeError("boom")
        assert T.exp(x).requires_grad


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_softmax_sums_property(seed):
    out = T.softmax(constant(rand((3, 5), seed=seed, scale=4.0)))
    assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) < 1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_embedding_gradient_scatters(seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 6, size=8)
    table = Tensor(rand((6, 3), seed=seed), requires_grad=True)
    backward(T.embedding(table, ids).sum())
    expected = np.zeros((6, 3))
    for i in ids:
        expected[i] += 1.0
    assert np.array_equal(table.grad, expected)
