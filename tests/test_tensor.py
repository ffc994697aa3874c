import ast
import importlib
import warnings
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qadapt import tensor as T
from qadapt.tensor import Tensor, backward, constant, finite_difference_check
from conftest import two_pass_bandwidths


def rand(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * scale


def col_nll(t, i):
    """Row i of the column-wise negative log-softmax of a 2-D tensor: one
    segment_nll with all rows one segment, a [1 x cols] tensor."""
    rows, cols = t.shape
    return T.segment_nll(t, [0, rows], [[i] * cols])


def col_log_softmax(x, i):
    """Row i of the column-wise log-softmax of a 2-D array: a [1 x cols] array."""
    return -col_nll(constant(x), i).data


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


def summed(t):
    """The sum of the entries of t as a graph node: the mean of t weighted by
    its entry count n. The gradient reaching every entry is fl(n * fl(1/n)),
    exactly 1 for the n used here (it is not for n = 49)."""
    n = t.data.size
    assert 1.0 / n * n == 1.0
    return T.weighted_sum([t], [float(n)]).mean()


def row_softmax_sums(x):
    """Per-row sums of the softmax of a 2-D array: the column-wise softmax of
    its transpose, one segment_nll per column of x."""
    return sum(np.exp(col_log_softmax(x.T, j)[0]) for j in range(x.shape[1]))


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
        got = np.stack([col_log_softmax(x.T, j)[0] for j in range(6)], axis=1)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_masked_mean_single_row_identity(self):
        # the class-mean form: a constant one-hot weight row picks one row exactly
        x = rand((5, 3), seed=3)
        weight = np.array([[0.0, 0.0, 1.0, 0.0, 0.0]])
        out = T.matmul(weight, constant(x))
        assert np.array_equal(out.data, x[2:3])

    def test_pairwise_sq_dist_hand_value(self):
        # the kernel's squared distance is 3^2 + 4^2 = 25, so bandwidth 25 gives
        # exp(-1), and the weights pick that one pair
        points, weights = constant([[0.0, 0.0], [3.0, 4.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])
        assert T.kernel_sum(points, weights, (25.0,)).item() == np.exp(-1.0)

    def test_shape_mismatch_reports_dimensions(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\)"):
            T.weighted_sum([constant(np.ones((2, 3))), constant(np.ones((3, 2)))], [1.0, 1.0])

    def test_matmul_inner_dim_check(self):
        with pytest.raises(T.ShapeError):
            T.matmul(np.ones((2, 3)), constant(np.ones((4, 2))))

    def test_inner_broadcast_rejected(self):
        with pytest.raises(T.ShapeError):
            T.weighted_sum([constant(np.ones((4, 3)))], [np.ones((4, 1))])

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_scalar_against_a_vector_rejected(self, op):
        # no broadcasting, not even of a scalar: a scalar term added to a
        # vector term or offset, or multiplied by a vector weight
        scalar, vector = constant(2.0), Tensor(np.ones(3), requires_grad=True)
        calls = {"add": [([scalar, vector], [1.0, 1.0], 0.0), ([vector, scalar], [1.0, 1.0], 0.0),
                         ([scalar], [1.0], np.ones(3))],
                 "mul": [([scalar], [np.ones(3)], 0.0)]}[op]
        for terms, weights, offset in calls:
            with pytest.raises(T.ShapeError, match=r"\(3,\)"):
                T.weighted_sum(terms, weights, offset)
        with pytest.raises(TypeError):  # Tensor has no arithmetic operators
            vector * 2.0

    @pytest.mark.parametrize("terms, weights, offset", [
        ([], [], 0.0),
        ([np.ones(3)], [], 0.0),
        ([np.ones(3)], [1.0, 1.0], 0.0),
        ([np.ones(3), np.ones(3)], [1.0], 0.0),
    ])
    def test_weighted_sum_rejects(self, terms, weights, offset):
        # no terms, or a wrong number of weights
        with pytest.raises(T.ShapeError, match="weighted_sum"):
            T.weighted_sum([constant(t) for t in terms], weights, offset)

    def test_determinism_bitwise(self):
        x = rand((6, 6), seed=9)

        def run():
            h = T.matmul(x, constant(x))
            return T.attention_sublayer(h, *attention_params(6, seed=9), [0, 2, 6], 2).data

        assert np.array_equal(run(), run())


U = np.finfo(np.float64).eps / 2  # the unit roundoff


def softmax_gradient_rounding_bound(x, params, num_heads):
    """A first-order bound on |x.grad - 1| for the gradient of the sum of
    attention_sublayer(x, *params) over one segment when every value row is 1.

    The softmax VJP's row term go_n.v_m - go_n.mix_n is then exactly 0: with
    L rows and dh columns per head, both dots are sums of dh products and mix
    is 1 within 2L ulps, so the computed term is at most 2 (dh + L) u
    sum_d |go_n,d| (u the unit roundoff), with go = g wo^T / sums and g all
    ones. That error, times the probabilities, takes the path of the q and k
    gradients to x; every factor is taken in absolute value on the way. The
    residual's gradient, 1, is added last and rounds once more."""
    gain = params[0].data
    wqk = np.concatenate([params[2].data, params[4].data], axis=1)
    rows, width = x.shape
    dh = width // num_heads
    q, k, _ = TestFusedForward.projections(x, params, num_heads)
    scores = q @ k.transpose(0, 2, 1)
    probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    go = np.abs(params[8].data.sum(axis=1)).reshape(num_heads, dh).sum(axis=1)
    gs = (2 * (dh + rows) * U * go)[:, None, None] * probs
    gq = gs @ np.abs(k) / np.sqrt(dh)
    gk = gs.transpose(0, 2, 1) @ np.abs(q)
    gqk = np.hstack([a.transpose(1, 0, 2).reshape(rows, width) for a in (gq, gk)])
    gh = np.abs(gain) * (gqk @ np.abs(wqk).T)
    centred = x - x.mean(axis=1, keepdims=True)
    rstd = 1.0 / np.sqrt((centred ** 2).mean(axis=1, keepdims=True) + T.LN_EPS)
    xhat = np.abs(centred * rstd)
    gx = rstd * (gh + gh.mean(axis=1, keepdims=True)
                 + xhat * (gh * xhat).mean(axis=1, keepdims=True))
    return gx + 2 * U


class TestBackward:
    def test_repeated_term_gradients_add(self):
        x = Tensor(3.0, requires_grad=True)
        backward(T.weighted_sum([x, x], [2.0, 4.0]))
        assert x.grad == 6.0

    def test_sum_of_softmax_has_zero_gradient(self):
        # with every value row 1 (wv = 0, bv = 1) each head output entry is the
        # sum of one row of attention probabilities, 1 whatever x is, so only
        # the residual's gradient reaches x, up to the rounding that
        # softmax_gradient_rounding_bound bounds
        for seed in range(300):
            x = Tensor(rand((5, 4), seed=seed), requires_grad=True)
            params = attention_params(4, seed=seed)
            params[6:8] = [constant(np.zeros((4, 4))), constant(np.ones(4))]
            out = T.attention_sublayer(x, *params, [0, 5], 2)
            backward(summed(out))
            bound = softmax_gradient_rounding_bound(x.data, params, 2)
            assert np.all(np.abs(x.grad - 1.0) <= bound), f"seed {seed}"

    def test_unused_leaf_gets_no_gradient(self):
        x = Tensor(rand(3, seed=5), requires_grad=True)
        y = Tensor(rand(3, seed=6), requires_grad=True)
        backward(x.mean())
        assert np.array_equal(x.grad, np.full(3, 1 / 3))
        assert y.grad is None

    def test_cancelled_leaf_gets_exact_zero(self):
        x = Tensor(rand(3, seed=7), requires_grad=True)
        y = Tensor(rand(3, seed=8), requires_grad=True)
        backward(T.weighted_sum([x, y], [1.0, np.zeros(3)]).mean())
        assert np.array_equal(y.grad, np.zeros(3))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(rand(3, seed=10), requires_grad=True)
        with pytest.raises(T.GraphError, match="scalar"):
            backward(T.weighted_sum([x, x], [1.0, 1.0]))

    def test_graph_consumed_once(self):
        x = Tensor(rand(3, seed=11), requires_grad=True)
        loss = T.weighted_sum([x], [2.0]).mean()
        backward(loss)
        with pytest.raises(T.GraphError, match="consumed"):
            backward(loss)

    def test_shared_subgraph_consumed(self):
        x = Tensor(rand(3, seed=12), requires_grad=True)
        h = T.weighted_sum([x], [2.0])
        l1 = h.mean()
        l2 = h.mean()
        backward(l1)
        with pytest.raises(T.GraphError, match="consumed"):
            backward(l2)

    def test_gradient_accumulates_across_backwards(self):
        x = Tensor(rand(3, seed=13), requires_grad=True)
        backward(x.mean())
        backward(x.mean())
        assert np.array_equal(x.grad, np.full(3, 2 / 3))

    def test_diamond_graph_accumulates(self):
        # loss = mean(3x + 3x) over 2 entries -> grad 3
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        h = T.weighted_sum([x], [3.0])
        backward(T.weighted_sum([h, h], [1.0, 1.0]).mean())
        assert np.array_equal(x.grad, [3.0, 3.0])


class TestFiniteDifference:
    def test_linear_function_exact(self):
        x = constant(rand(7, seed=20))
        err = finite_difference_check(lambda t: t.mean(), x)
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
            # a weighted contraction: the mean of a layer norm is about 0 for any input
            return T.weighted_sum([h], [rand((2, 4), seed=27)]).mean()

        assert finite_difference_check(f, constant(w1)) < 1e-5

    def test_gaussian_kernel_term(self):
        # the squared kernel distance between the rows of t and a constant y,
        # with the weights of mmd_squared: +1/2 for t's rows, -1/3 for y's
        y = constant(rand((3, 4), seed=24))
        side = np.array([1 / 2] * 2 + [-1 / 3] * 3)

        def f(t):
            return stacked_kernel_sum(t, y, np.outer(side, side), (0.5, 2.0))

        assert finite_difference_check(f, constant(rand((2, 4), seed=25))) < 1e-5

    def test_wrong_gradient_rule_is_caught(self):
        # forward 2x, backward claims 3: a corrupted vjp must show up
        def bad_double(t):
            return T._node(2.0 * t.data, (t,), lambda g: (3.0 * g,))

        x = constant(rand(4, seed=26))
        err = finite_difference_check(lambda t: bad_double(t).mean(), x)
        assert err > 1e-2

    def test_nonfinite_reports_coordinate(self):
        # the largest float64 is 1.7976931348623157e308: coordinate 1 overflows
        # when the step is added
        x = constant(np.array([1.0, 1.79769313486]))

        def f(t):
            return T.weighted_sum([t], [np.array([1.0, 1e308])]).mean()

        with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="coordinate 1"):
            finite_difference_check(f, x, step=1e-5)


def stacked_kernel_sum(t, y, weights, bandwidths):
    """kernel_sum over the stacked [t; y] of a tensor t [N x H] and a
    constant y [M x H]."""
    n, m = t.shape[0], y.shape[0]
    select = np.eye(n + m)
    stacked = T.weighted_sum([T.matmul(select[:, :n], t)], [1.0], select[:, n:] @ y.data)
    return T.kernel_sum(stacked, weights, bandwidths)


def cross_kernel(t, y):
    """sum over i, j of k(t_i, y_j) with one bandwidth of 1: the kernel sum
    over the stacked [t; y] with weight 1 on the t-y block only, the form of
    the cross terms of ``mmd_squared``."""
    n = t.shape[0]
    weights = np.zeros((n + y.shape[0],) * 2)
    weights[:n, n:] = 1.0
    return stacked_kernel_sum(t, y, weights, (1.0,))


def _fixed(shape, seed):
    return constant(rand(shape, seed=300 + seed))


def _contracted(out, seed):
    """The mean of out weighted by a fixed random cotangent of its shape."""
    return T.weighted_sum([out], [_fixed(out.shape, seed).data]).mean()


SEGMENTS = [0, 1, 4]  # two segments of different lengths over 4 packed rows
WEIGHT_ROWS = np.eye(4)[:3]


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
        return _contracted(T.attention_sublayer(*args, SEGMENTS, num_heads=3), 2)
    return fn


def _attention_inputs(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, num_heads=3):
    out = T.attention_sublayer(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, SEGMENTS,
                               num_heads=num_heads)
    # bk shifts a row's scores by a constant, so its exact gradient is 0 and its
    # finite differences are round-off: a linear term in bk gives every
    # coordinate a nonzero reference
    return T.weighted_sum([_contracted(out, 13), _contracted(bk, 6)], [1.0, 1.0])


def _col_log_softmax_weighted(t, aux):
    """Sum of the column-wise log-softmax of t weighted by aux, from segment_nll."""
    terms = [T.weighted_sum([col_nll(t, i)], [-aux.data[i:i + 1]]).mean() for i in range(4)]
    return T.weighted_sum(terms, [1.0] * 4)


UNIT_LN = (constant(np.ones(3)), constant(np.zeros(3)))
IDENTITY_FFN = (constant(np.eye(3)), constant(np.zeros(3))) * 2  # hidden layer relu(layer_norm(t))
IDENTITY_ATTENTION = (constant(np.eye(3)), constant(np.zeros(3))) * 4


def _softmax_weighted(t, aux):
    """Attention of the 4 rows of t as one segment and one head, with identity
    projections of its unit layer norm h: t + softmax(h h^T / sqrt 3) h,
    weighted by aux."""
    out = T.attention_sublayer(t, *UNIT_LN, *IDENTITY_ATTENTION, [0, 4], 1)
    return T.weighted_sum([out], [aux.data]).mean()


# token ids into a [4 x 3] table (id 2 absent, 0 and 3 repeated) and position
# ids into a [5 x 3] table (id 3 absent, 0 and 1 repeated)
EMBED_TOKENS, EMBED_POSITIONS = [3, 0, 3, 3, 1, 0], [0, 1, 2, 0, 1, 4]
EMBED_NOISE = rand((6, 3), seed=15, scale=0.1)


def _embed_weighted(tokens, positions, noise=None):
    out = T.embed(tokens, positions, EMBED_TOKENS, EMBED_POSITIONS, noise)
    return _contracted(out, 14)


# each entry: (the op it drives, aux shape, scalar-valued function of a
# [4 x 3] input and the aux). Keys that do not name their op name the form
# that the entry drives: add and mul the two forms of weighted_sum (a sum of
# two terms with a float and an array weight from an array offset, and the
# product with a constant array that ends most entries here); relu, softmax
# and log_softmax the forms those functions take inside ffn_sublayer,
# attention_sublayer and segment_nll; masked_mean the class-mean form of
# matmul (a constant averaging row); exp kernel_sum over one point set with
# random weights (not symmetric, so each point's gradient as the first and as
# the second of a pair is checked), and pairwise_sq_dist kernel_sum's cross
# block between two sets
OPS = {
    "add": (T.weighted_sum, (4, 3), lambda t, aux: T.weighted_sum(
        [t, T.layer_norm(t, *UNIT_LN)], [-1.5, aux.data], aux.data).mean()),
    "mul": (T.weighted_sum, (4, 3), lambda t, aux: T.weighted_sum([t], [aux.data]).mean()),
    "mean": (T.mean_, (4, 3), lambda t, aux: t.mean()),
    "matmul": (T.matmul, (3, 4), lambda t, aux: _contracted(T.matmul(aux.data, t), 1)),
    "exp": (T.kernel_sum, (4, 4), lambda t, aux: T.kernel_sum(t, aux.data, (0.5, 2.0, 8.0))),
    "relu": (T.ffn_sublayer, (4, 3),
             lambda t, aux: T.ffn_sublayer(t, *UNIT_LN, *IDENTITY_FFN).mean()),
    "softmax": (T.attention_sublayer, (4, 3), _softmax_weighted),
    "log_softmax": (T.segment_nll, (4, 3), _col_log_softmax_weighted),
    "layer_norm": (T.layer_norm, (4, 3), lambda t, aux: T.weighted_sum(
        [T.layer_norm(t, *UNIT_LN)], [aux.data]).mean()),
    "masked_mean": (T.matmul, (1, 3), lambda t, aux: T.weighted_sum(
        [T.matmul(np.array([[1 / 3, 0.0, 1 / 3, 1 / 3]]), t)], [aux.data]).mean()),
    "pairwise_sq_dist": (T.kernel_sum, (5, 3), cross_kernel),
    "linear": (T.linear, (3, 5), lambda t, aux: _contracted(T.linear(t, aux, _fixed(5, 3)), 4)),
    "layer_norm_affine": (T.layer_norm, (2, 3), lambda t, aux: _contracted(
        T.layer_norm(t, constant(aux.data[0]), constant(aux.data[1])), 5)),
    "ffn_sublayer": (T.ffn_sublayer, (3, 6), lambda t, aux: _contracted(
        T.ffn_sublayer(t, *UNIT_LN, aux, _fixed(6, 6), _fixed((6, 3), 7), _fixed(3, 8)), 9)),
    "attention_sublayer_x": (T.attention_sublayer, (4, 3), _attention_with(0)),
    "attention_sublayer_q": (T.attention_sublayer, (4, 3), _attention_with(1)),
    "attention_sublayer_k": (T.attention_sublayer, (4, 3), _attention_with(2)),
    "attention_sublayer_v": (T.attention_sublayer, (4, 3), _attention_with(3)),
    "embed": (T.embed, (5, 3), _embed_weighted),
    "embed_noise": (T.embed, (5, 3), lambda t, aux: _embed_weighted(t, aux, EMBED_NOISE)),
    "segment_nll": (T.segment_nll, (2, 3), lambda t, aux: T.weighted_sum(
        [T.segment_nll(t, [0, 2, 4], [[0, 1, 1], [3, 2, 3]])], [aux.data]).mean()),
}


def spied(op, monkeypatch) -> list:
    """Count the calls of a tensor op, however they reach it: the list gets
    one entry per call."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(None)
        return op(*args, **kwargs)

    monkeypatch.setattr(T, op.__name__, spy)
    return calls


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("seed", range(7))
def test_gradcheck_per_op(op, seed, monkeypatch):
    # spread: 22 ops x 7 seeds
    driven, aux_shape, fn = OPS[op]
    calls = spied(driven, monkeypatch)
    x = constant(rand((4, 3), seed=100 + seed))
    aux = constant(rand(aux_shape, seed=200 + seed))
    err = finite_difference_check(lambda t: fn(t, aux), x)
    assert err < 1e-5, f"{op} seed={seed}: rel err {err:.3e}"
    assert calls, f"{op} does not drive {driven.__name__}"


# fused ops' parameter inputs: (the op, [input shapes], scalar function of the inputs)
FUSED_INPUTS = {
    "linear": (T.linear, [(4, 3), (3, 5), (5,)],
               lambda x, w, b: _contracted(T.linear(x, w, b), 10)),
    "layer_norm": (T.layer_norm, [(4, 3), (3,), (3,)],
                   lambda x, g, b: _contracted(T.layer_norm(x, g, b), 11)),
    "ffn_sublayer": (T.ffn_sublayer, [(4, 3), (3,), (3,), (3, 6), (6,), (6, 3), (3,)],
                     lambda *inputs: _contracted(T.ffn_sublayer(*inputs), 12)),
    "attention_sublayer": (T.attention_sublayer, [(4, 3), (3,), (3,)] + [(3, 3), (3,)] * 4,
                           _attention_inputs),
    # one head of width 3: the 1/sqrt(dh) score scale is 1/sqrt(3), not 1
    "attention_sublayer_one_head": (T.attention_sublayer,
                                    [(4, 3), (3,), (3,)] + [(3, 3), (3,)] * 4,
                                    lambda *inputs: _attention_inputs(*inputs, num_heads=1)),
    # the position table; the token table is the input of the registry entries
    "embed": (T.embed, [(4, 3), (5, 3)], _embed_weighted),
    "embed_noise": (T.embed, [(4, 3), (5, 3)], lambda tokens, positions: _embed_weighted(
        tokens, positions, EMBED_NOISE)),
}


@pytest.mark.parametrize("op,position", [(op, i) for op, (_, shapes, _) in sorted(FUSED_INPUTS.items())
                                         for i in range(1, len(shapes))])
@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_fused_op_parameters(op, position, seed, monkeypatch):
    driven, shapes, fn = FUSED_INPUTS[op]
    calls = spied(driven, monkeypatch)
    inputs = [constant(rand(shape, seed=400 + 10 * seed + i)) for i, shape in enumerate(shapes)]

    def f(t):
        return fn(*inputs[:position], t, *inputs[position + 1:])

    err = finite_difference_check(f, inputs[position])
    assert err < 1e-5, f"{op} input {position} seed={seed}: rel err {err:.3e}"
    assert calls, f"{op} does not drive {driven.__name__}"


def _ops_without_an_entry(*registries) -> list[str]:
    """The public ops of qadapt.tensor, its public functions that record a
    graph node, that no entry of the registries drives."""
    ops = {node.name for node in ast.parse(Path(T.__file__).read_text()).body
           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
           and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_node"
                   for call in ast.walk(node))}
    driven = {op.__name__ for registry in registries for op, _, _ in registry.values()}
    return sorted(ops - driven)


def test_every_public_op_has_an_oracle_entry():
    """Every op of the engine passes the finite-difference oracle through at
    least one entry of ``OPS`` or ``FUSED_INPUTS``, and every entry drives
    the op it names (``test_gradcheck_per_op``,
    ``test_gradcheck_fused_op_parameters``)."""
    assert _ops_without_an_entry(OPS, FUSED_INPUTS) == []


def test_oracle_guard_sees_an_op_without_an_entry():
    # "mean" is the one entry that drives mean_
    missing_one = {key: entry for key, entry in OPS.items() if key != "mean"}
    assert _ops_without_an_entry(missing_one, FUSED_INPUTS) == ["mean_"]


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


@st.composite
def layouts_and_rows(draw, every_row=False):
    """Segment offsets (one segment or several, some of length 1) and the
    sorted rows to keep: any subset, so some segments keep none, or every
    row."""
    lengths = draw(st.lists(st.sampled_from([1, 1, 2, 3, 5, 7]), min_size=1, max_size=5))
    offsets = np.cumsum([0, *lengths])
    n = int(offsets[-1])
    if every_row:
        return offsets, np.arange(n)
    keep = draw(st.one_of(st.just([True] * n), st.lists(st.booleans(), min_size=n, max_size=n)))
    return offsets, np.flatnonzero(keep)


class TestAttentionAtRows:
    """attention_sublayer with ``rows``: the full op's output at those rows,
    forward-only."""

    @staticmethod
    def both(offsets, rows, heads, seed):
        width = 2 * heads
        x = constant(rand((int(offsets[-1]), width), seed=seed))
        params = attention_params(width, seed=seed, scale=2.0)
        full = T.attention_sublayer(x, *params, offsets, heads).data
        return full, T.attention_sublayer(x, *params, offsets, heads, rows=rows).data

    @given(layouts_and_rows(), st.sampled_from([1, 2, 3]), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_full_op(self, layout, heads, seed):
        offsets, rows = layout
        full, got = self.both(offsets, rows, heads, seed)
        assert got.shape == (len(rows), full.shape[1])
        assert np.abs(got - full[rows]).max(initial=0.0) <= 1e-12 * np.abs(full).max()

    @given(layouts_and_rows(every_row=True), st.sampled_from([1, 2, 3]), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_every_row_is_the_full_op_bit_for_bit(self, layout, heads, seed):
        full, got = self.both(*layout, heads, seed)
        assert np.array_equal(got, full)

    @pytest.mark.parametrize("needs_grad", ["x", "wq"])
    def test_rows_with_a_recorded_graph_raise(self, needs_grad):
        x = Tensor(rand((5, 4), seed=50), requires_grad=needs_grad == "x")
        params = attention_params(4, seed=50)
        params[2] = Tensor(params[2].data, requires_grad=needs_grad == "wq")
        with pytest.raises(T.GraphError, match="forward-only"):
            T.attention_sublayer(x, *params, [0, 2, 5], 2, rows=[1, 3])
        with T.no_grad():
            assert T.attention_sublayer(x, *params, [0, 2, 5], 2, rows=[1, 3]).shape == (2, 4)

    @pytest.mark.parametrize("rows", [[3, 1], [1, 1], [-1, 2], [2, 5], [[1, 2]], [0.0, 1.0],
                                      [True, False], np.array([4, 2**63 + 1], dtype=np.uint64)])
    def test_unsorted_or_out_of_range_rows_rejected(self, rows):
        x = constant(rand((5, 4), seed=51))
        with pytest.raises(ValueError, match="rows must be"):
            T.attention_sublayer(x, *attention_params(4, seed=51), [0, 2, 5], 2, rows=rows)


class TestNoGrad:
    def test_records_nothing_and_restores(self):
        x = Tensor(rand(3, seed=40), requires_grad=True)
        with T.no_grad():
            y = T.weighted_sum([x, x], [1.0, 2.0])
            assert not y.requires_grad and y._parents == ()
        z = T.weighted_sum([x, x], [1.0, 2.0])
        assert z.requires_grad and z._parents == (x, x)

    def test_nested_and_restored_after_error(self):
        x = Tensor(rand(3, seed=41), requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                with T.no_grad():
                    pass
                assert not T.weighted_sum([x, x], [1.0, 2.0]).requires_grad
                raise RuntimeError("boom")
        assert T.weighted_sum([x, x], [1.0, 2.0]).requires_grad


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
    backward(summed(T.embed(tokens, table, ids, positions)))
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
    out = T.weighted_sum([T.embed(table, positions, ids, range(len(ids)))], [weight])
    # the mean of the column sums of out (0 for no ids): each entry of out
    # gets a gradient of exactly fl(1/3), so each row of the embedding gets
    # its weight times that
    backward(T.matmul(np.ones((1, len(ids))), out).mean())
    rows = weight * (1 / 3)
    expected = np.zeros((8, 3))
    np.add.at(expected, np.asarray(ids, dtype=np.int64), rows)
    # equal up to the order in which repeated ids are summed
    assert np.max(np.abs(table.grad - expected)) <= 1e-12
    assert np.array_equal(positions.grad[:len(ids)], rows)
    assert not positions.grad[len(ids):].any()


PACKAGE = Path(T.__file__).parent
CALLERS = ([path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
           + sorted((PACKAGE.parent.parent / "scripts").glob("*.py"))
           + sorted((PACKAGE.parent.parent / "perfbench").glob("*.py")))


def _public_defs(module: ModuleType) -> tuple[dict[str, object], set[str]]:
    """The public functions of a module, by ``<module>.<name>``, and the
    names of the public methods and properties of its public classes."""
    functions, methods = {}, set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            methods |= {f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            short = module.__name__.removeprefix("qadapt.")
            functions[f"{short}.{node.name}"] = getattr(module, node.name)
    return functions, methods


def _references(path: Path, source: str) -> tuple[set[int], set[str]]:
    """What ``source`` (the text of ``path``) refers to: the ids of the
    package objects it names qualified (``<module alias>.f``, ``from
    <module> import f``, or a bare ``f`` in the package module that holds
    it), and the attribute names it reads anywhere (``x.f``)."""
    here = importlib.import_module(f"qadapt.{path.stem}") if path.parent == PACKAGE else None
    bound: dict[str, object] = {}  # a name bound by an import of the package
    objects: list[object] = []
    attributes: set[str] = set()

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound[node.id] if node.id in bound else getattr(here, node.id, None)
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            if isinstance(base, ModuleType) and base.__name__.split(".")[0] == "qadapt":
                return getattr(base, node.attr, None)
        return None

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "qadapt" + (f".{node.module}" if node.module else "") if node.level \
                else node.module or ""
            if module.split(".")[0] == "qadapt":
                for alias in node.names:
                    bound[alias.asname or alias.name] = getattr(
                        importlib.import_module(module), alias.name, None)
                    objects.append(bound[alias.asname or alias.name])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qadapt":
                    name = alias.asname or "qadapt"
                    bound[name] = importlib.import_module(alias.name if alias.asname else "qadapt")
        elif isinstance(node, (ast.Name, ast.Attribute)):
            objects.append(resolve(node))
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return {id(obj) for obj in objects}, attributes


def _unreferenced(replaced: dict[str, str] | None = None) -> list[str]:
    """The public functions, methods and properties of the package that have
    no caller, with the callers' texts as on disk except those ``replaced``
    (file name -> text). A function counts as exported only if
    ``qadapt.__all__`` names that very object."""
    import qadapt
    functions, methods = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            module_functions, module_methods = _public_defs(
                importlib.import_module(f"qadapt.{path.stem}"))
            functions.update(module_functions)
            methods |= module_methods
    referenced, attributes = {id(getattr(qadapt, name)) for name in qadapt.__all__}, set()
    for path in CALLERS:
        ids, names = _references(path, (replaced or {}).get(path.name) or path.read_text())
        referenced |= ids
        attributes |= names
    return sorted([name for name, obj in functions.items() if id(obj) not in referenced]
                  + [name for name in methods if name.split(".")[1] not in attributes])


def test_every_public_op_has_a_caller():
    """Every public function, method and property of every module of qadapt
    is referenced somewhere other than its definition, in the package, in
    ``scripts/`` or in ``perfbench/``, or is the very object that
    ``qadapt.__all__`` exports under its name. A function counts as
    referenced only by a qualified name: ``<module alias>.f``, ``from
    <module> import f`` or a bare ``f`` in its own module; a method or
    property by any ``x.name``. A re-export in ``__init__`` is not a
    reference, and tests do not count: code only they read is dead."""
    assert _unreferenced() == []


@pytest.mark.parametrize("caller, call, dead", [
    # np.matmul in tensor.py does not stand in for the one T.matmul caller
    ("losses.py", "T.matmul(", "tensor.matmul"),
    # the contrastive loss and the kernel distance are the two callers
    ("losses.py", "T.kernel_sum(", "tensor.kernel_sum"),
    # the loss and the whole-batch class-mean stack of a half-step
    ("training.py", "T.weighted_sum(", "tensor.weighted_sum"),
])
def test_caller_guard_sees_a_dead_function(caller, call, dead):
    source = (PACKAGE / caller).read_text()
    assert call in source
    assert _unreferenced({caller: source.replace(call, "_gone(")}) == [dead]


@st.composite
def point_set(draw):
    """A finite [N x H] point set."""
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return draw(hnp.arrays(np.float64, (draw(st.integers(1, 14)), draw(st.integers(1, 6))),
                           elements=values))


@given(point_set())
@settings(max_examples=200, deadline=None)
def test_sq_dists_matches_direct_difference_form(x):
    got = T.sq_dists(x)
    direct = ((x[:, None] - x[None]) ** 2).sum(-1)
    norms = (x * x).sum(1)
    assert got.shape == direct.shape
    assert np.all(got >= 0.0)
    assert np.all(np.abs(got - direct) <= 1e-12 * (norms[:, None] + norms[None, :] + 1.0))
    assert np.array_equal(got, got.T)
    assert np.all(np.diagonal(got) == 0.0)


@st.composite
def kernel_points(draw):
    """A [N x H] point set of width 1 to 48: one row, several equal rows, or
    drawn rows (which may repeat, so the median may be 0). The values lie on
    a grid of 1e-6: a median squared distance below about 1e-308 makes the
    bandwidth's reciprocal overflow, a fault of the heuristic that the
    one-pass and the two-pass form share."""
    width, rows = draw(st.integers(1, 48)), draw(st.integers(2, 12))
    values = st.integers(-3_000_000, 3_000_000).map(lambda k: k * 1e-6)
    form = draw(st.sampled_from(["one row", "equal rows", "drawn"]))
    if form == "drawn":
        return draw(hnp.arrays(np.float64, (rows, width), elements=values))
    row = draw(hnp.arrays(np.float64, (1, width), elements=values))
    return row if form == "one row" else np.repeat(row, rows, axis=0)


def two_pass_kernel_sum(points, weights, bandwidths):
    """The value of a kernel sum at given bandwidths, written out as a
    reference: the mean over the bandwidths of the exponentiated squared
    distances, weighted and summed."""
    d2 = T.sq_dists(points)
    kernel = sum(np.exp(d2 * (-1.0 / gamma)) for gamma in bandwidths) * (1.0 / len(bandwidths))
    return (kernel * weights).sum()


@given(points=kernel_points(), seed=st.integers(0, 2**32 - 1),
       multipliers=st.lists(st.floats(0.1, 8.0), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_kernel_sum_takes_the_two_pass_median_in_one_pass(points, seed, multipliers):
    """With the median heuristic, the value and gradient are those of the
    kernel sum at the bandwidths a second pass over the points resolves;
    explicit bandwidths are multipliers of a scale of 1.0."""
    weights = np.random.default_rng(seed).standard_normal((len(points),) * 2)
    bandwidths = two_pass_bandwidths(points, multipliers)
    one, two = Tensor(points, requires_grad=True), Tensor(points, requires_grad=True)
    got, want = T.kernel_sum(one, weights, multipliers, median=True), T.kernel_sum(
        two, weights, bandwidths)
    assert got.item() == want.item() == two_pass_kernel_sum(points, weights, bandwidths)
    backward(got)
    backward(want)
    assert np.array_equal(one.grad, two.grad)
    assert T.kernel_sum(constant(points), weights, multipliers).item() == two_pass_kernel_sum(
        points, weights, multipliers)


@pytest.mark.parametrize("points, weights", [
    (np.zeros((3, 2)), np.zeros((3, 2))),
    (np.zeros((3, 2)), np.zeros((2, 2))),
    (np.zeros((3, 2)), np.zeros(9)),
    (np.zeros(3), np.zeros((3, 3))),
])
def test_kernel_sum_rejects_weights_not_n_by_n(points, weights):
    with pytest.raises(T.ShapeError, match="kernel_sum"):
        T.kernel_sum(constant(points), weights, (1.0,))
