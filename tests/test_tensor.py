import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qadapt import tensor as T
from qadapt.tensor import Tensor, backward, constant, finite_difference_check


def rand(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * scale


def col_log_softmax(t, i):
    """Row i of the column-wise log-softmax of a 2-D tensor, from segment_nll
    with all rows one segment: a [1 x cols] tensor."""
    rows, cols = t.shape
    return -T.segment_nll(t, [0, rows], [[i] * cols])


def attention_params(width, seed, scale=1.0):
    """Constant [gain, bias, wq, bq, wk, bk, wv, bv, wo, bo] for
    attention_sublayer: a layer norm near the identity, q, k and v projections
    scaled by ``scale`` and an unscaled output projection."""
    ln = [constant(1.0 + rand(width, seed=1000 + 10 * seed, scale=0.1)),
          constant(rand(width, seed=1001 + 10 * seed, scale=0.1))]
    return ln + [constant(rand((width, width) if i % 2 == 0 else width, seed=1002 + 10 * seed + i,
                               scale=1.0 if i >= 6 else scale))
                 for i in range(8)]


def reference_layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + T.LN_EPS) * gain + bias


def row_softmax_sums(x):
    """Per-row sums of the softmax of a 2-D array: the column-wise softmax of
    its transpose, one segment_nll per column of x."""
    return sum(np.exp(col_log_softmax(constant(x.T), j).data[0]) for j in range(x.shape[1]))


class TestForward:
    def test_softmax_uniform_logits(self):
        out = T.segment_nll(constant(np.zeros((8, 2))), [0, 4, 8], [[1, 0], [6, 7]])
        assert np.allclose(np.exp(-out.data), 0.25, atol=0)

    def test_softmax_rows_sum_to_one(self):
        sums = row_softmax_sums(rand((5, 7), seed=1, scale=3.0))
        assert np.all(np.abs(sums - 1.0) < 1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        x = rand((4, 6), seed=2, scale=2.0)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = np.log(e / e.sum(axis=-1, keepdims=True))
        got = np.stack([col_log_softmax(constant(x.T), j).data[0] for j in range(6)], axis=1)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_masked_mean_single_row_identity(self):
        # the class-mean form: a constant one-hot weight row picks one row exactly
        x = rand((5, 3), seed=3)
        weight = np.array([[0.0, 0.0, 1.0, 0.0, 0.0]])
        out = T.matmul(constant(weight), constant(x))
        assert np.array_equal(out.data, x[2:3])

    def test_pairwise_sq_dist_hand_value(self):
        # the kernel's squared distance is 3^2 + 4^2 = 25, so bandwidth 25 gives exp(-1)
        k = T.gaussian_kernel_values(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]), (25.0,))
        assert k[0, 0] == np.exp(-1.0)

    def test_shape_mismatch_reports_dimensions(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\)"):
            T.add(constant(np.ones((2, 3))), constant(np.ones((3, 2))))

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

        def run():
            h = T.matmul(constant(x), constant(x))
            return T.attention_sublayer(h, *attention_params(6, seed=9), [0, 2, 6], 2).data

        assert np.array_equal(run(), run())


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        backward(T.mul(x, x))
        assert x.grad == pytest.approx(6.0, abs=0)

    def test_sum_of_softmax_has_zero_gradient(self):
        # with every value row 1 (wv = 0, bv = 1) each head output entry is the
        # sum of one row of attention probabilities, 1 whatever x is, so only
        # the residual's gradient reaches x
        x = Tensor(rand((5, 4), seed=4), requires_grad=True)
        params = attention_params(4, seed=4)
        params[6:8] = [constant(np.zeros((4, 4))), constant(np.ones(4))]
        out = T.attention_sublayer(x, *params, [0, 5], 2)
        backward(out.sum())
        assert np.max(np.abs(x.grad - 1.0)) < 1e-15

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
        w2 = rand((5, 4), seed=22)
        x = constant(rand((2, 4), seed=23))

        def f(t):
            eye, zero, one = constant(np.eye(4)), constant(np.zeros(4)), constant(np.ones(4))
            h = T.ffn_sublayer(x, one, zero, t, constant(np.zeros(5)), constant(w2), zero)
            h = T.attention_sublayer(h, one, zero, eye, zero, eye, zero, eye, zero, eye, zero,
                                     [0, 2], 1)
            return T.mul(h, h).sum()

        assert finite_difference_check(f, constant(w1)) < 1e-5

    def test_gaussian_kernel_term(self):
        y = constant(rand((3, 4), seed=24))

        def f(t):
            return T.gaussian_kernel(t, y, (1.0,)).sum()

        assert finite_difference_check(f, constant(rand((2, 4), seed=25))) < 1e-5

    def test_wrong_gradient_rule_is_caught(self):
        # forward 2x, backward claims 3: a corrupted vjp must show up
        def bad_double(t):
            return T._node(2.0 * t.data, (t,), lambda g: (3.0 * g,))

        x = constant(rand(4, seed=26))
        err = finite_difference_check(lambda t: bad_double(t).sum(), x)
        assert err > 1e-2

    def test_nonfinite_reports_coordinate(self):
        # the largest float64 is 1.7976931348623157e308: coordinate 1 overflows
        # when the step is added
        x = constant(np.array([1.0, 1.79769313486]))

        def f(t):
            return T.mul(t, constant([1.0, 1e308])).sum()

        with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="coordinate 1"):
            finite_difference_check(f, x, step=1e-5)


def _fixed(shape, seed):
    return constant(rand(shape, seed=300 + seed))


SEGMENTS = [0, 1, 4]  # two segments of different lengths over 4 packed rows
WEIGHT_ROWS = constant(np.eye(4)[:3])


def _attention_with(position):
    """attention_sublayer (3 heads) with the [4 x 3] input as x (position 0)
    or its first 3 rows as the q, k or v weight (positions 1 to 3). The layer
    norm, the biases and the output projection, and the weights of every
    input position, are checked in ``FUSED_INPUTS``."""
    def fn(t, aux):
        args = [constant(aux.data)] + attention_params(3, seed=1)
        if position == 0:
            args[0] = t
        else:
            args[2 * position + 1] = T.matmul(WEIGHT_ROWS, t)
        return T.mul(T.attention_sublayer(*args, SEGMENTS, num_heads=3), _fixed((4, 3), 2)).sum()
    return fn


def _attention_inputs(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, num_heads=3):
    out = T.attention_sublayer(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, SEGMENTS,
                               num_heads=num_heads)
    # bk shifts a row's scores by a constant, so its exact gradient is 0 and its
    # finite differences are round-off: a linear term in bk gives every
    # coordinate a nonzero reference
    return T.mul(out, _fixed((4, 3), 13)).sum() + T.mul(bk, _fixed(3, 6)).sum()


def _col_log_softmax_weighted(t, aux):
    """Sum of the column-wise log-softmax of t weighted by aux, from segment_nll."""
    total = None
    for i in range(4):
        term = T.mul(col_log_softmax(t, i), constant(aux.data[i])).sum()
        total = term if total is None else total + term
    return total


UNIT_LN = (constant(np.ones(3)), constant(np.zeros(3)))
IDENTITY_FFN = (constant(np.eye(3)), constant(np.zeros(3))) * 2  # hidden layer relu(layer_norm(t))
IDENTITY_ATTENTION = (constant(np.eye(3)), constant(np.zeros(3))) * 4


def _softmax_weighted(t, aux):
    """Attention of the 4 rows of t as one segment and one head, with identity
    projections of its unit layer norm h: t + softmax(h h^T / sqrt 3) h,
    weighted by aux."""
    out = T.attention_sublayer(t, *UNIT_LN, *IDENTITY_ATTENTION, [0, 4], 1)
    return T.mul(out, aux).sum()


# token ids into a [4 x 3] table (id 2 absent, 0 and 3 repeated) and position
# ids into a [5 x 3] table (id 3 absent, 0 and 1 repeated)
EMBED_TOKENS, EMBED_POSITIONS = [3, 0, 3, 3, 1, 0], [0, 1, 2, 0, 1, 4]
EMBED_NOISE = rand((6, 3), seed=15, scale=0.1)


def _embed_weighted(tokens, positions, noise=None):
    out = T.embed(tokens, positions, EMBED_TOKENS, EMBED_POSITIONS, noise)
    return T.mul(out, _fixed((6, 3), 14)).sum()


# each entry: (aux shape, scalar-valued function of a [4 x 3] input and the aux);
# relu, softmax, log_softmax and masked_mean are the forms those functions take
# inside the fused ops and the class means, and exp and pairwise_sq_dist the
# forms they take inside gaussian_kernel: with x the same tensor as y (as in
# the intra-class terms) and with x != y
OPS = {
    "add": ((4, 3), lambda t, aux: (t + aux).sum()),
    "sub": ((4, 3), lambda t, aux: (aux - t).mean()),
    "mul": ((4, 3), lambda t, aux: (t * aux * t).sum()),
    "matmul": ((3, 4), lambda t, aux: T.matmul(t, aux).sum()),
    "exp": ((4, 4), lambda t, aux: T.mul(T.gaussian_kernel(t, t, (0.5, 2.0, 8.0)), aux).sum()),
    "relu": ((4, 3), lambda t, aux: T.ffn_sublayer(t, *UNIT_LN, *IDENTITY_FFN).sum()),
    "softmax": ((4, 3), _softmax_weighted),
    "log_softmax": ((4, 3), _col_log_softmax_weighted),
    "layer_norm": ((4, 3), lambda t, aux: T.mul(T.layer_norm(t, *UNIT_LN), aux).sum()),
    "masked_mean": ((3,), lambda t, aux: T.mul(
        T.matmul(constant([[1 / 3, 0.0, 1 / 3, 1 / 3]]), t), aux).sum()),
    "pairwise_sq_dist": ((5, 3), lambda t, aux: T.gaussian_kernel(t, aux, (1.0,)).sum()),
    "linear": ((3, 5), lambda t, aux: T.mul(T.linear(t, aux, _fixed(5, 3)), _fixed((4, 5), 4)).sum()),
    "layer_norm_affine": ((2, 3), lambda t, aux: T.mul(
        T.layer_norm(t, constant(aux.data[0]), constant(aux.data[1])), _fixed((4, 3), 5)).sum()),
    "ffn_sublayer": ((3, 6), lambda t, aux: T.mul(
        T.ffn_sublayer(t, *UNIT_LN, aux, _fixed(6, 6), _fixed((6, 3), 7), _fixed(3, 8)),
        _fixed((4, 3), 9)).sum()),
    "attention_sublayer_x": ((4, 3), _attention_with(0)),
    "attention_sublayer_q": ((4, 3), _attention_with(1)),
    "attention_sublayer_k": ((4, 3), _attention_with(2)),
    "attention_sublayer_v": ((4, 3), _attention_with(3)),
    "embed": ((5, 3), _embed_weighted),
    "embed_noise": ((5, 3), lambda t, aux: _embed_weighted(t, aux, EMBED_NOISE)),
    "segment_nll": ((2, 3), lambda t, aux: T.mul(
        T.segment_nll(t, [0, 2, 4], [[0, 1, 1], [3, 2, 3]]), aux).sum()),
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
    "ffn_sublayer": ([(4, 3), (3,), (3,), (3, 6), (6,), (6, 3), (3,)],
                     lambda *inputs: T.mul(T.ffn_sublayer(*inputs), _fixed((4, 3), 12)).sum()),
    "attention_sublayer": ([(4, 3), (3,), (3,)] + [(3, 3), (3,)] * 4, _attention_inputs),
    # one head of width 3: the 1/sqrt(dh) score scale is 1/sqrt(3), not 1
    "attention_sublayer_one_head": ([(4, 3), (3,), (3,)] + [(3, 3), (3,)] * 4,
                                    lambda *inputs: _attention_inputs(*inputs, num_heads=1)),
    # the position table; the token table is the input of the registry entries
    "embed": ([(4, 3), (5, 3)], _embed_weighted),
    "embed_noise": ([(4, 3), (5, 3)], lambda tokens, positions: _embed_weighted(
        tokens, positions, EMBED_NOISE)),
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
    def test_attention_sublayer_keeps_segments_apart(self):
        x = rand((7, 4), seed=30)
        params = attention_params(4, seed=30)
        packed = T.attention_sublayer(constant(x), *params, [0, 3, 7], 2).data
        for lo, hi in ((0, 3), (3, 7)):
            alone = T.attention_sublayer(constant(x[lo:hi]), *params, [0, hi - lo], 2).data
            assert np.max(np.abs(packed[lo:hi] - alone)) < 1e-15

    @staticmethod
    def projections(x, params, num_heads):
        """Layer norm h of x and the q, k, v projections of h, split into
        [heads x N x dh] head-major arrays with q scaled by 1/sqrt(dh)."""
        gain, bias, wq, bq, wk, bk, wv, bv = (p.data for p in params[:8])
        h = reference_layer_norm(x, gain, bias)
        dh = x.shape[1] // num_heads
        q, k, v = ((h @ w + b).reshape(len(x), num_heads, dh).transpose(1, 0, 2)
                   for w, b in ((wq, bq), (wk, bk), (wv, bv)))
        return q / np.sqrt(dh), k, v

    @classmethod
    def per_head_reference(cls, x, params, num_heads):
        """The attention sublayer of one segment in numpy, with a
        max-subtracted softmax per head, and the largest score magnitude."""
        wo, bo = params[8].data, params[9].data
        q, k, v = cls.projections(x, params, num_heads)
        heads = []
        largest = 0.0
        for qh, kh, vh in zip(q, k, v):
            scores = qh @ kh.T
            largest = max(largest, np.max(np.abs(scores)))
            probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
            heads.append(probs / probs.sum(axis=-1, keepdims=True) @ vh)
        return x + np.hstack(heads) @ wo + bo, largest

    def test_attention_sublayer_matches_per_head_softmax(self):
        x = rand((5, 4), seed=33)
        params = attention_params(4, seed=33)
        got = T.attention_sublayer(constant(x), *params, [0, 5], 2).data
        want, _ = self.per_head_reference(x, params, 2)
        assert np.max(np.abs(got - want)) < 1e-14

    def test_attention_sublayer_matches_per_head_softmax_per_segment(self):
        x = rand((12, 6), seed=34)
        params = attention_params(6, seed=34)
        bounds = [0, 1, 5, 12]
        got = T.attention_sublayer(constant(x), *params, bounds, 3).data
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            want, _ = self.per_head_reference(x[lo:hi], params, 3)
            assert np.max(np.abs(got[lo:hi] - want)) < 1e-14

    def test_attention_sublayer_large_scores_take_the_stabilised_path(self):
        # scores near 1e3 would overflow exp without the row-max subtraction
        x = rand((6, 4), seed=37)
        params = attention_params(4, seed=37, scale=12.0)
        got = T.attention_sublayer(constant(x), *params, [0, 6], 2).data
        want, largest = self.per_head_reference(x, params, 2)
        assert largest > 500.0
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("scores,shifted", [
        ([29.9, -29.9], False), ([30.0, -30.0], False), ([30.1, 0.0], True), ([0.0, -30.1], True),
    ])
    def test_exp_scores_shift_exactly_outside_the_bound(self, scores, shifted):
        e = np.array(scores).reshape(1, 1, 2)
        want = np.exp(e - e.max()) if shifted else np.exp(e)
        assert np.array_equal(T._exp_scores(e.copy()), want)

    @staticmethod
    def spy_shifts(monkeypatch):
        """Per ``_exp_scores`` call, in order: whether the row max was
        subtracted (then every row's largest numerator is exactly exp(0) = 1)."""
        calls = []
        original = T._exp_scores

        def spy(e):
            out = original(e)
            calls.append(bool((out.max(axis=-1) == 1.0).all()))
            return out

        monkeypatch.setattr(T, "_exp_scores", spy)
        return calls

    @pytest.mark.parametrize("target,shifted", [(30.3, True), (29.7, False)])
    def test_row_max_is_subtracted_only_above_the_bound(self, target, shifted, monkeypatch):
        # scaling the q and k projections by s scales every score by s^2: put
        # the largest score magnitude just above or just below 30
        x = rand((6, 4), seed=39)
        params = attention_params(4, seed=39)

        def largest(ps):
            q, k, _ = self.projections(x, ps, 2)
            return max(np.abs(qh @ kh.T).max() for qh, kh in zip(q, k))

        s = np.sqrt(target / largest(params))
        params[2:6] = [constant(p.data * s) for p in params[2:6]]
        assert abs(largest(params) - target) < 1e-9
        calls = self.spy_shifts(monkeypatch)
        got = T.attention_sublayer(constant(x), *params, [0, 6], 2).data
        assert calls == [shifted]
        want, _ = self.per_head_reference(x, params, 2)
        assert np.max(np.abs(got - want)) < 1e-14

    def test_row_max_is_decided_per_segment_from_its_scores(self, monkeypatch):
        # with the q and k projections scaled so that the largest score
        # magnitude of segment [0, 5) is 29, that of [5, 11) is above 30, so
        # only the second takes the row max; the first segment's Cauchy-Schwarz
        # bound, max_i |q_i| * max_j |k_j| per head, exceeds 30, so a bound from
        # the norms would have shifted it as well
        x = rand((11, 4), seed=63)
        params = attention_params(4, seed=63)
        segments = ((0, 5), (5, 11))

        def per_segment(ps):
            q, k, _ = self.projections(x, ps, 2)
            largest = [max(np.abs(qh[lo:hi] @ kh[lo:hi].T).max() for qh, kh in zip(q, k))
                       for lo, hi in segments]
            norms = [max(np.linalg.norm(qh[lo:hi], axis=1).max()
                         * np.linalg.norm(kh[lo:hi], axis=1).max() for qh, kh in zip(q, k))
                     for lo, hi in segments]
            return largest, norms

        (low, _), _ = per_segment(params)
        s = np.sqrt(29.0 / low)
        params[2:6] = [constant(p.data * s) for p in params[2:6]]
        (low, high), (cauchy_schwarz, _) = per_segment(params)
        assert low < 30.0 < high and cauchy_schwarz > 30.0
        calls = self.spy_shifts(monkeypatch)
        got = T.attention_sublayer(constant(x), *params, [0, 5, 11], 2).data
        assert calls == [False, True]
        for lo, hi in segments:
            want, _ = self.per_head_reference(x[lo:hi], params, 2)
            assert np.max(np.abs(got[lo:hi] - want)) < 1e-14

    def test_ffn_sublayer_matches_reference(self):
        x = rand((5, 4), seed=35)
        gain, bias = 1.0 + rand(4, seed=41, scale=0.1), rand(4, seed=42, scale=0.1)
        w1, b1, w2, b2 = rand((4, 7), seed=43), rand(7, seed=44), rand((7, 4), seed=45), rand(4, seed=46)
        got = T.ffn_sublayer(*(constant(a) for a in (x, gain, bias, w1, b1, w2, b2))).data
        hidden = np.maximum(reference_layer_norm(x, gain, bias) @ w1 + b1, 0.0)
        assert np.max(np.abs(got - (x + hidden @ w2 + b2))) < 1e-14

    def test_segment_nll_matches_log_softmax(self):
        x = rand((9, 2), seed=36)
        got = T.segment_nll(constant(x), [0, 4, 9], [[1, 3], [8, 4]]).data
        want = [[np.log(np.exp(x[lo:hi, k]).sum()) - x[i, k] for k, i in enumerate(rows)]
                for lo, hi, rows in ((0, 4, (1, 3)), (4, 9, (8, 4)))]
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("scores,index", [(np.zeros(6), [[1], [4]]),
                                              (np.zeros((6, 2)), [1, 4]),
                                              (np.zeros((6, 2)), [[1], [4]])])
    def test_segment_nll_shapes_checked(self, scores, index):
        with pytest.raises(ValueError):  # ShapeError for 1-D scores
            T.segment_nll(constant(scores), [0, 3, 6], index)

    def test_overflowing_projection_raises_before_the_scores(self):
        # the projection is checked as a separate op's output would be, so no
        # inf - inf in the score matmul warns of an invalid value first; the
        # layer norm of the constant rows is its bias, 1
        x = constant(np.ones((3, 2)))
        ln = [constant(np.ones(2))] * 2
        params = ln + [constant(np.full((2, 2), 1e308)), constant(np.zeros(2))] * 4
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(T.NonFiniteError):
                T.attention_sublayer(x, *params, [0, 3], 1)

    @pytest.mark.parametrize("op", ["layer_norm", "attention_sublayer", "ffn_sublayer"])
    def test_overflowing_row_variance_raises(self, op):
        # the squared deviations overflow, so the variance is inf; unchecked,
        # rstd is 0 and the layer norm returns its bias, [0.5, 0.5, 0.5]
        x = constant([[1e200, -1e200, 0.0]])
        ln = (constant(np.ones(3)), constant([0.5] * 3))
        calls = {
            "layer_norm": lambda: T.layer_norm(x, *ln),
            "attention_sublayer": lambda: T.attention_sublayer(x, *ln, *IDENTITY_ATTENTION,
                                                               [0, 1], 1),
            "ffn_sublayer": lambda: T.ffn_sublayer(x, *ln, *IDENTITY_FFN),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(T.NonFiniteError, match="variance"):
                calls[op]()

    @pytest.mark.parametrize("offsets", [[0, 4], [0, 2, 2, 5], [1, 5], [0, 3], [[0, 5]]])
    def test_bad_offsets_rejected(self, offsets):
        x = constant(np.ones((5, 2)))
        with pytest.raises(T.ShapeError, match="offsets"):
            T.attention_sublayer(x, *attention_params(2, seed=0), offsets, 1)

    @pytest.mark.parametrize("op,shapes", [
        ("ffn_sublayer", [(4, 3), (3,), (3,), (3, 6), (6,), (6, 4), (3,)]),
        ("ffn_sublayer", [(4, 3), (2,), (3,), (3, 6), (6,), (6, 3), (3,)]),
        ("attention_sublayer", [(4, 3), (3,), (3,)] + [(3, 3), (3,)] * 3 + [(3, 2), (3,)]),
        ("attention_sublayer", [(4, 3), (3,), (4,)] + [(3, 3), (3,)] * 4),
    ])
    def test_sublayer_shapes_checked(self, op, shapes):
        inputs = [constant(np.ones(shape)) for shape in shapes]
        extra = ([0, 4], 1) if op == "attention_sublayer" else ()
        with pytest.raises(T.ShapeError):
            getattr(T, op)(*inputs, *extra)

    @pytest.mark.parametrize("tokens,positions,noise,error", [
        ([0, 1, 2], [0, 1], None, T.ShapeError),
        ([0, 4, 2], [0, 1, 2], None, ValueError),
        ([0, -1, 2], [0, 1, 2], None, ValueError),
        ([0, 1, 2], [0, 1, 5], None, ValueError),
        ([0, 1, 2], [0, 1, 2], np.zeros((3, 2)), T.ShapeError),
    ])
    def test_embed_ids_and_noise_checked(self, tokens, positions, noise, error):
        with pytest.raises(error):
            T.embed(constant(np.ones((4, 3))), constant(np.ones((5, 3))), tokens, positions, noise)

    def test_segment_nll_index_outside_its_segment_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            T.segment_nll(constant(np.zeros((6, 2))), [0, 3, 6], [[1, 4], [2, 5]])


class TestNoGrad:
    def test_records_nothing_and_restores(self):
        x = Tensor(rand(3, seed=40), requires_grad=True)
        with T.no_grad():
            y = -x * x
            assert not y.requires_grad and y._parents == ()
        z = -x
        assert z.requires_grad and z._parents == (x,)

    def test_nested_and_restored_after_error(self):
        x = Tensor(rand(3, seed=41), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                with T.no_grad():
                    pass
                assert not (-x).requires_grad
                raise RuntimeError("boom")
        assert (-x).requires_grad


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_softmax_sums_property(seed):
    sums = row_softmax_sums(rand((3, 5), seed=seed, scale=4.0))
    assert np.all(np.abs(sums - 1.0) < 1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_embedding_gradient_scatters(seed):
    rng = np.random.default_rng(seed)
    ids, positions = rng.integers(0, 6, size=8), rng.integers(0, 5, size=8)
    tokens = Tensor(rand((6, 3), seed=seed), requires_grad=True)
    table = Tensor(rand((5, 3), seed=seed + 1), requires_grad=True)
    backward(T.embed(tokens, table, ids, positions).sum())
    for grad, used, rows in ((tokens.grad, ids, 6), (table.grad, positions, 5)):
        expected = np.zeros((rows, 3))
        for i in used:
            expected[i] += 1.0
        assert np.array_equal(grad, expected)


@given(st.lists(st.integers(min_value=0, max_value=7), max_size=20), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_embedding_gradient_matches_add_at(ids, seed):
    table = Tensor(rand((8, 3), seed=seed), requires_grad=True)
    positions = Tensor(rand((20, 3), seed=seed + 2), requires_grad=True)
    weight = rand((len(ids), 3), seed=seed + 1)
    backward(T.mul(T.embed(table, positions, ids, range(len(ids))), constant(weight)).sum())
    expected = np.zeros((8, 3))
    np.add.at(expected, np.asarray(ids, dtype=np.int64), weight)
    # equal up to the order in which repeated ids are summed
    assert np.max(np.abs(table.grad - expected)) <= 1e-12
    assert np.array_equal(positions.grad[:len(ids)], weight)
    assert not positions.grad[len(ids):].any()


ENGINE_ENTRY_POINTS = {"finite_difference_check", "backward", "no_grad", "constant"}


def test_every_public_op_has_a_caller():
    """Every public function of qadapt.tensor, other than the engine entry
    points and the gradient oracle, is called by a Tensor method or by another
    module of the package (as ``T.<op>`` or imported from ``.tensor``)."""
    package = Path(T.__file__).parent
    tree = ast.parse((package / "tensor.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    tensor_class = next(node for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name == "Tensor")
    called = {node.id for node in ast.walk(tensor_class) if isinstance(node, ast.Name)}
    for path in package.glob("*.py"):
        if path.name in ("tensor.py", "__init__.py"):  # a re-export is not a call
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "T"):
                called.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "tensor":
                called.update(alias.name for alias in node.names)
    assert sorted(public - ENGINE_ENTRY_POINTS - called) == []


@st.composite
def point_set_pair(draw):
    """Two finite [N x H] and [M x H] point sets of a common width."""
    width = draw(st.integers(1, 6))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    x = draw(hnp.arrays(np.float64, (draw(st.integers(1, 7)), width), elements=values))
    y = draw(hnp.arrays(np.float64, (draw(st.integers(1, 7)), width), elements=values))
    return x, y


@given(point_set_pair())
@settings(max_examples=200, deadline=None)
def test_sq_dists_matches_direct_difference_form(pair):
    x, y = pair
    for a, b in ((x, y), (x, x)):
        got = T.sq_dists(a, b)
        direct = ((a[:, None] - b[None]) ** 2).sum(-1)
        scale = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] + 1.0
        assert got.shape == direct.shape
        assert np.all(got >= 0.0)
        assert np.all(np.abs(got - direct) <= 1e-12 * scale)
    same = T.sq_dists(x, x)
    assert np.array_equal(same, same.T)
    assert np.all(np.diagonal(same) == 0.0)


def test_sq_dists_rejects_mismatched_widths():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        T.sq_dists(np.zeros((2, 3)), np.zeros((4, 2)))
