"""Dense fp64 tensors with a small reverse-mode autodiff engine.

Define-by-run: every operation whose inputs require gradients records a node
holding parent links and a vector-Jacobian closure. ``backward`` replays the
recorded graph once, in reverse topological order; a consumed graph cannot be
replayed. Graphs are rebuilt on every forward pass. Inside ``no_grad()`` no
node is recorded at all, so inference builds no graph.

The encoder runs on a packed layout: the tokens of a batch of variable-length
sequences are concatenated into one ``[N x H]`` array without padding, and
``offsets`` (``[B + 1]``, starting at 0 and ending at N) mark where each
sequence (segment) begins. A single sequence is the one-segment case. The
fused ops with hand-written VJPs that the encoder and its loss are built from
are ``embed`` (the encoder's input rows: token rows, optional constant noise
and position rows, from two tables), ``linear``, ``layer_norm`` (with gain
and bias), one op for each pre-norm residual sublayer of a transformer layer,
``attention_sublayer`` (x plus the output projection of multi-head softmax
attention within each segment over the layer norm of x; a segment whose
scores all lie within +-``ROW_MAX_BOUND`` skips the softmax row-max
subtraction) and ``ffn_sublayer`` (x plus a ReLU feed-forward block over the
layer norm of x), ``segment_nll`` (negative log-softmax of each segment of
each score column at one position, for the span head's [N x 2] start and end
scores) and ``kernel_sum`` (the weighted sum of a multi-bandwidth Gaussian
kernel matrix over one point set, for the contrastive loss and the kernel
distance). ``kernel_sum`` builds its squared distances once per call, with
``sq_dists`` in Gram form, |x_i|^2 + |x_j|^2 - 2 x_i.x_j clamped at 0:
[N x N] memory, not an [N x N x H] difference tensor. Its median-heuristic
bandwidths, when asked for, scale by ``median_scale`` of those same
distances. Segment means are a ``matmul`` of a constant weight array with a
tensor, and a training step's loss and class-mean stack are each one
``weighted_sum`` of tensors of one shape, whose weights and offset are
floats or arrays of that shape; there is no other broadcasting. Constants,
there and in ``kernel_sum``, stay plain floats and arrays and record
nothing. Every op has a caller in the model or its losses.

Everything is float64; every completed operation is checked for NaN/Inf.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operand shapes do not conform to what an op takes."""


class GraphError(RuntimeError):
    """Backward misuse: non-scalar loss or replay of a consumed graph."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_consumed")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.asarray(values, dtype=np.float64)
        if not np.isfinite(self.data).all():
            raise NonFiniteError("tensor constructed from non-finite values")
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], tuple[Array | None, ...]] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def mean(self) -> "Tensor":
        return mean_(self)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph nodes inside the block: results never require grad,
    whatever their inputs. The previous setting is restored on exit."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data: Array, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op result; record the graph node only when a parent needs grad
    and recording is enabled."""
    if not np.isfinite(data).all():
        raise NonFiniteError("operation produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._consumed = False
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def _col_sums(a: Array) -> Array:
    """Column sums of a 2-D array as one matrix-vector product, which is
    several times faster than ``a.sum(axis=0)`` on row-major data."""
    return np.ones(a.shape[0]) @ a


# -- arithmetic ---------------------------------------------------------------

def weighted_sum(terms: Sequence[Tensor], weights: Sequence, offset=0.0) -> Tensor:
    """offset + w_0 t_0 + w_1 t_1 + ..., elementwise and left to right from
    the offset, for one or more tensors t_i of one shape. Each weight, and
    the offset, is a constant: a float or an array of the terms' shape. Term
    i gets the gradient w_i g."""
    if not terms or len(weights) != len(terms):
        raise ShapeError(f"weighted_sum takes terms and one weight per term, got "
                         f"{len(terms)} terms and {len(weights)} weights")
    shape = terms[0].shape
    if any(t.shape != shape for t in terms):
        raise ShapeError(f"weighted_sum terms differ in shape: {[t.shape for t in terms]}")
    for c in (offset, *weights):
        if np.ndim(c) and np.shape(c) != shape:
            raise ShapeError(f"weighted_sum constant of shape {np.shape(c)} for terms of "
                             f"shape {shape}")
    out = np.full(shape, offset, dtype=np.float64)
    for w, t in zip(weights, terms):
        out += w * t.data
    return _node(out, tuple(terms), lambda g: tuple(w * g for w in weights))


def matmul(a: Array, b: Tensor) -> Tensor:
    """Product of a constant [M x N] array and a tensor [N x H]; the constant
    gets no gradient."""
    if a.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    return _node(a @ b.data, (b,), lambda g: (a.T @ g,))


# -- fused blocks -------------------------------------------------------------

LN_EPS = 1e-5  # layer-norm variance floor

# A segment whose scores all lie in [-ROW_MAX_BOUND, ROW_MAX_BOUND] takes its
# softmax exponentials without subtracting each row's max: exp stays within
# [e^-30, e^30], far from overflow and from underflow to 0.
ROW_MAX_BOUND = 30.0


@functools.cache
def _mean_weights(width: int) -> Array:
    """The read-only [H] vector 1/H: a product with it takes row means."""
    weights = np.full(width, 1.0 / width)
    weights.flags.writeable = False
    return weights


def _layer_norm_rows(x: Array, gain: Array, bias: Array) -> tuple[Array, Array, Array]:
    """Layer norm of the rows of x [N x H]: the output, the normalised rows
    and the [N x 1] reciprocal standard deviations its VJP needs. Row means
    are products with the constant 1/H vector and variances row dots, so no
    pass builds a squared copy of the input."""
    width = x.shape[1]
    xhat = x - (x @ _mean_weights(width))[:, None]
    var = np.einsum("ij,ij->i", xhat, xhat)
    var *= 1.0 / width
    if not var.max(initial=0.0) < np.inf:  # rstd would be 0, and the output the bias
        raise NonFiniteError("layer norm: a row's variance overflows")
    var += LN_EPS
    rstd = np.sqrt(var, out=var)[:, None]
    np.divide(1.0, rstd, out=rstd)
    xhat *= rstd
    out = xhat * gain
    out += bias
    return out, xhat, rstd


def _layer_norm_vjp(g: Array, gain: Array, xhat: Array, rstd: Array) -> tuple[Array, Array, Array]:
    """Gradients of the layer norm input, gain and bias for the output
    gradient g."""
    width = xhat.shape[1]
    gx = g * gain
    gxh = np.einsum("ij,ij->i", gx, xhat)[:, None]
    gxh *= 1.0 / width
    gx -= (gx @ _mean_weights(width))[:, None]
    gx -= xhat * gxh
    gx *= rstd
    return gx, np.einsum("ij,ij->j", g, xhat), _col_sums(g)


def _check_layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> int:
    width = x.data.shape[-1]
    if x.data.ndim != 2 or gain.data.shape != (width,) or bias.data.shape != (width,):
        raise ShapeError(f"layer_norm input {x.shape} / gain {gain.shape} / bias {bias.shape}")
    return width


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the rows of a [N x H] to zero mean and unit variance, then
    scale by ``gain`` and shift by ``bias`` (both [H])."""
    _check_layer_norm(a, gain, bias)
    out, xhat, rstd = _layer_norm_rows(a.data, gain.data, bias.data)
    return _node(out, (a, gain, bias), lambda g: _layer_norm_vjp(g, gain.data, xhat, rstd))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of rows: x [N x I] @ w [I x O] + b [O]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear expects [N x I] @ [I x O], got {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias {b.shape} does not match output width {w.shape[1]}")
    out = x.data @ w.data
    out += b.data

    def vjp(g: Array):
        return g @ w.data.T, x.data.T @ g, _col_sums(g)

    return _node(out, (x, w, b), vjp)


def ffn_sublayer(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                 b2: Tensor) -> Tensor:
    """Pre-norm residual feed-forward sublayer as one node:
    x + relu(h @ w1 + b1) @ w2 + b2 with h = layer_norm(x, gain, bias)."""
    width = _check_layer_norm(x, gain, bias)
    if w1.data.ndim != 2 or w1.shape[0] != width or w2.shape != (w1.shape[1], width):
        raise ShapeError(f"ffn shapes do not chain: {x.shape}, {w1.shape}, {w2.shape}")
    if b1.shape != (w1.shape[1],) or b2.shape != (width,):
        raise ShapeError(f"ffn biases {b1.shape}, {b2.shape} do not match {w1.shape}, {w2.shape}")
    h, xhat, rstd = _layer_norm_rows(x.data, gain.data, bias.data)
    hidden = h @ w1.data
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    out = hidden @ w2.data
    out += b2.data
    out += x.data

    def vjp(g: Array):
        gh = g @ w2.data.T
        gh *= hidden > 0.0  # the ReLU's mask
        gx, ggain, gbias = _layer_norm_vjp(gh @ w1.data.T, gain.data, xhat, rstd)
        gx += g
        return gx, ggain, gbias, h.T @ gh, _col_sums(gh), hidden.T @ g, _col_sums(g)

    return _node(out, (x, gain, bias, w1, b1, w2, b2), vjp)


def _segment_edges(offsets, rows: int) -> list[int]:
    """The segment offsets as a list, checked to rise strictly from 0 to rows."""
    bounds = np.asarray(offsets, dtype=np.int64)
    edges = bounds.tolist()
    if (bounds.ndim != 1 or len(edges) < 2 or edges[0] != 0 or edges[-1] != rows
            or any(lo >= hi for lo, hi in zip(edges, edges[1:]))):
        raise ShapeError(f"offsets must rise strictly from 0 to {rows}, got {edges}")
    return edges


def _exp_scores(e: Array) -> Array:
    """Softmax numerators of one segment's [heads x L x L] scores, in place:
    exp(e), or exp(e - row max) unless every score lies within
    +-ROW_MAX_BOUND. The decision (two whole-block reductions) costs less
    than the per-row max and subtraction it skips: against always
    subtracting, it answered a question 9.6 % faster over ten benchmark
    pairs on a 2-core host (BENCH_pr14.json)."""
    if not (e.max() <= ROW_MAX_BOUND and e.min() >= -ROW_MAX_BOUND):
        e -= e.max(axis=-1, keepdims=True)
    return np.exp(e, out=e)


def attention_sublayer(x: Tensor, gain: Tensor, bias: Tensor, wq: Tensor, bq: Tensor,
                       wk: Tensor, bk: Tensor, wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
                       offsets, num_heads: int) -> Tensor:
    """Pre-norm residual attention sublayer as one node over packed rows:
    x + mix @ wo + bo, where mix is multi-head scaled dot-product attention
    inside each segment over h = layer_norm(x, gain, bias). The q, k and v
    projections of h (each weight [H x H]) are one [H x 3H] product. Heads
    are the H / num_heads column groups, read as strided [heads x N x dh]
    views (a head-major copy costs a training step more than its contiguous
    matmuls save), and each segment gets one [heads x L x L] softmax; rows
    never attend across segments. The softmax is left unnormalised: each
    head's output rows are divided by the row sums instead, and a segment
    whose scores all lie within +-ROW_MAX_BOUND skips the row-max
    subtraction."""
    width = _check_layer_norm(x, gain, bias)
    weights, biases = (wq, wk, wv, wo), (bq, bk, bv, bo)
    if (any(w.data.shape != (width, width) for w in weights)
            or any(b.data.shape != (width,) for b in biases)):
        raise ShapeError(f"attention expects [N x H] input with [H x H] weights and [H] biases, "
                         f"got {x.shape}, {[w.shape for w in weights]}, {[b.shape for b in biases]}")
    rows = x.data.shape[0]
    if num_heads < 1 or width % num_heads:
        raise ShapeError(f"width {width} does not split into {num_heads} heads")
    edges = _segment_edges(offsets, rows)
    segments = list(zip(edges[:-1], edges[1:]))
    dh = width // num_heads
    scale = 1.0 / math.sqrt(dh)
    h, xhat, rstd = _layer_norm_rows(x.data, gain.data, bias.data)
    w = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    qkv = h @ w
    qkv += np.concatenate([bq.data, bk.data, bv.data])
    if not np.isfinite(qkv).all():  # stop before the score matmuls turn inf into NaN
        raise NonFiniteError("operation produced non-finite values")
    qkv[:, :width] *= scale
    qh, kh, vh = qkv.reshape(rows, 3, num_heads, dh).transpose(1, 2, 0, 3)
    ones = np.ones(max(hi - lo for lo, hi in segments))
    heads = np.empty((rows, width))  # the head mix, before the output projection
    mix = heads.reshape(rows, num_heads, dh).transpose(1, 0, 2)
    sums = np.empty((num_heads, rows, 1))  # softmax denominators, per head and row
    exps = []  # unnormalised softmax numerators, per segment
    for lo, hi in segments:
        e = qh[:, lo:hi] @ kh[:, lo:hi].transpose(0, 2, 1)
        _exp_scores(e)
        np.matmul(e, ones[:hi - lo, None], out=sums[:, lo:hi])
        np.matmul(e, vh[:, lo:hi], out=mix[:, lo:hi])
        exps.append(e)
    mix /= sums
    out = heads @ wo.data
    out += bo.data
    out += x.data

    def vjp(g: Array):
        # gradient of the unnormalised mix e @ v
        go = (g @ wo.data.T).reshape(rows, num_heads, dh).transpose(1, 0, 2) / sums
        # rows of go . mix: the softmax VJP's row dots, divided by the sums
        dots = np.einsum("hnd,hnd->hn", go, mix)[..., None]
        gqkv = np.empty((rows, 3 * width))
        gqh, gkh, gvh = gqkv.reshape(rows, 3, num_heads, dh).transpose(1, 2, 0, 3)
        for (lo, hi), e in zip(segments, exps):
            np.matmul(e.transpose(0, 2, 1), go[:, lo:hi], out=gvh[:, lo:hi])
            gs = go[:, lo:hi] @ vh[:, lo:hi].transpose(0, 2, 1)
            gs -= dots[:, lo:hi]
            gs *= e
            np.matmul(gs, kh[:, lo:hi], out=gqh[:, lo:hi])
            np.matmul(gs.transpose(0, 2, 1), qh[:, lo:hi], out=gkh[:, lo:hi])
        gqkv[:, :width] *= scale
        gx, ggain, gbias = _layer_norm_vjp(gqkv @ w.T, gain.data, xhat, rstd)
        gx += g
        gw = h.T @ gqkv
        gb = _col_sums(gqkv)
        return (gx, ggain, gbias) + tuple(
            part for i in range(3)
            for part in (gw[:, i * width:(i + 1) * width], gb[i * width:(i + 1) * width])
        ) + (heads.T @ g, _col_sums(g))

    return _node(out, (x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo), vjp)


def segment_nll(scores: Tensor, offsets, index) -> Tensor:
    """Per-segment negative log-softmax of each column of packed [N x K]
    scores, at one row per segment and column: out[i, k] =
    -log softmax(scores[o_i:o_(i+1), k])[index[i, k] - o_i], where the [B x K]
    ``index`` holds absolute rows."""
    if scores.data.ndim != 2:
        raise ShapeError(f"segment_nll expects [N x K] scores, got {scores.shape}")
    bounds = np.array(_segment_edges(offsets, scores.shape[0]))
    starts, lengths = bounds[:-1], np.diff(bounds)
    idx = np.asarray(index, dtype=np.int64)
    if (idx.shape != (starts.size, scores.shape[1]) or np.any(idx < starts[:, None])
            or np.any(idx >= bounds[1:, None])):
        raise ValueError(f"index {idx.tolist()} outside segments {bounds.tolist()}")
    cols = np.arange(scores.shape[1])
    shifted = scores.data - np.repeat(np.maximum.reduceat(scores.data, starts), lengths, axis=0)
    e = np.exp(shifted)
    total = np.add.reduceat(e, starts)
    out = np.log(total) - shifted[idx, cols]
    soft = e / np.repeat(total, lengths, axis=0)

    def vjp(g: Array):
        gs = soft * np.repeat(g, lengths, axis=0)
        gs[idx, cols] -= g
        return (gs,)

    return _node(out, (scores,), vjp)


# -- structural ops -----------------------------------------------------------

def _scatter_rows(g: Array, ids: Array, rows: int) -> Array:
    """[rows x H] table gradient of a row lookup ``table[ids]``: row r is the
    sum of the rows of g whose id is r, in order of occurrence (a stable sort
    groups them)."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    firsts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
    gt = np.zeros((rows, g.shape[1]))
    gt[sorted_ids[firsts]] = np.add.reduceat(g[order], firsts, axis=0)
    return gt


def embed(tokens: Tensor, positions: Tensor, token_ids, position_ids,
          noise: Array | None = None) -> Tensor:
    """The encoder's input rows as one node: tokens[token_ids], plus an
    optional constant [N x H] noise, plus positions[position_ids], for
    [V x H] and [P x H] tables and two integer id sequences of length N."""
    tok = np.asarray(token_ids, dtype=np.int64)
    pos = np.asarray(position_ids, dtype=np.int64)
    if tok.ndim != 1 or pos.shape != tok.shape:
        raise ShapeError(f"embed ids must be two 1-D sequences of one length, "
                         f"got shapes {tok.shape} and {pos.shape}")
    if tokens.data.ndim != 2 or positions.data.ndim != 2 or tokens.shape[1] != positions.shape[1]:
        raise ShapeError(f"embed tables must be [V x H] and [P x H], "
                         f"got {tokens.shape} and {positions.shape}")
    for table, idx in ((tokens, tok), (positions, pos)):
        if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
            raise ValueError(f"id out of range [0, {table.shape[0]}): {idx.min()}..{idx.max()}")
    out = tokens.data[tok]
    if noise is not None:
        if noise.shape != out.shape:
            raise ShapeError(f"embed noise {noise.shape} does not match the rows {out.shape}")
        out += noise
    out += positions.data[pos]

    def vjp(g: Array):
        return _scatter_rows(g, tok, tokens.shape[0]), _scatter_rows(g, pos, positions.shape[0])

    return _node(out, (tokens, positions), vjp)


def sq_dists(x: Array) -> Array:
    """[N x N] squared distances ||x_i - x_j||^2 between the rows of x [N x H],
    in Gram form: |x_i|^2 + |x_j|^2 - 2 x_i.x_j, with the norms read off the
    diagonal of one ``x @ x.T`` product, so no [N x N x H] difference tensor
    is built. Every self-distance is exactly 0 and the matrix is symmetric;
    round-off can take a distance of (nearly) equal rows a few ulps below 0,
    so the result is clamped at 0."""
    if x.ndim != 2:
        raise ShapeError(f"squared distances expect [N x H] points, got {x.shape}")
    gram = x @ x.T
    norms = np.diagonal(gram)
    d2 = np.add.outer(norms, norms)
    d2 -= 2.0 * gram
    return np.maximum(d2, 0.0, out=d2)


def median_scale(d2: Array) -> float:
    """The median heuristic's scale of the [N x N] squared distances d2: the
    median of the entries above the diagonal, or 1.0 when there are fewer
    than 2 rows or that median is not positive and finite."""
    n = d2.shape[0]
    if n < 2:
        return 1.0
    med = float(np.median(d2[np.triu_indices(n, k=1)]))
    return med if np.isfinite(med) and med > 0.0 else 1.0


def kernel_sum(x: Tensor, weights: Array, multipliers: Sequence[float],
               median: bool = False) -> Tensor:
    """The scalar sum over i, j of weights_ij k(x_i, x_j) for the rows of
    x [N x H] and constant [N x N] weights, where k is the Gaussian kernel
    averaged over the bandwidths: the mean over gamma of
    exp(-||x_i - x_j||^2 / gamma). The bandwidths are the multipliers times
    a scale: ``median_scale`` of the squared distances the kernel
    exponentiates when ``median``, else 1.0. The scale is a constant, so no
    gradient flows through the median. The VJP recomputes the kernel's slope
    from the squared distances, so a recorded node holds one [N x N] array
    rather than one per bandwidth."""
    if x.data.ndim != 2 or weights.shape != (x.shape[0],) * 2:
        raise ShapeError(f"kernel_sum expects [N x H] points and [N x N] weights, "
                         f"got {x.shape} and {weights.shape}")
    d2 = sq_dists(x.data)
    scale = median_scale(d2) if median else 1.0
    bandwidths = [m * scale for m in multipliers]
    kernel = sum(np.exp(d2 * (-1.0 / gamma)) for gamma in bandwidths) * (1.0 / len(bandwidths))
    out = (kernel * weights).sum().reshape(())

    def vjp(g: Array):
        slope = sum(np.exp(d2 * (-1.0 / gamma)) * (-1.0 / gamma) for gamma in bandwidths)
        # gd_ij is twice the gradient reaching ||x_i - x_j||^2; x_i takes it as
        # the first point of the pair (row sums) and as the second (column sums)
        gd = float(g) * weights * slope * (2.0 / len(bandwidths))
        first = gd.sum(axis=1)[:, None] * x.data - gd @ x.data
        second = gd.sum(axis=0)[:, None] * x.data - gd.T @ x.data
        return (first + second,)

    return _node(out, (x,), vjp)


def mean_(a: Tensor) -> Tensor:
    n = a.data.size
    out = a.data.mean().reshape(())
    return _node(out, (a,), lambda g: (np.full(a.shape, float(g) / n),))


# -- backward -----------------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad for every requires_grad leaf.

    The loss must be scalar. Each recorded node is visited exactly once and its
    closure is dropped afterwards, so a graph (or any shared subgraph) can back
    up only one backward pass.
    """
    if loss.data.shape != ():
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._consumed:
        raise GraphError("graph already consumed by a previous backward")
    if not loss.requires_grad:
        loss._consumed = True
        return
    order = _topo_order(loss)
    grads: dict[int, Array] = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._parents:
            if node._vjp is None:
                raise GraphError("subgraph already consumed by a previous backward")
            parent_grads = node._vjp(g)
            node._vjp = None
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else acc + pg
        elif node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g
    loss._consumed = True


# -- gradient oracle ----------------------------------------------------------

def finite_difference_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    step: float = 1e-5,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between the analytic gradient of f at x and central
    finite differences: |a - n| / (|a| + |n| + 1e-12), maximized over checked
    coordinates. ``max_coords`` limits the check to a seeded coordinate sample;
    by default every coordinate is checked. f must be deterministic.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    leaf = Tensor(x.data.copy(), requires_grad=True)
    out = f(leaf)
    backward(out)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
    analytic = analytic.ravel()

    base = x.data.copy().ravel()
    n = base.size
    if max_coords is not None and max_coords < n:
        rng = np.random.default_rng(seed)
        coords = np.sort(rng.choice(n, size=max_coords, replace=False))
    else:
        coords = np.arange(n)

    worst = 0.0
    for i in coords:
        shifted = base.copy()
        shifted[i] = base[i] + step
        try:
            fp = f(constant(shifted.reshape(x.shape))).item()
            shifted[i] = base[i] - step
            fm = f(constant(shifted.reshape(x.shape))).item()
        except (NonFiniteError, ValueError) as err:
            raise NonFiniteError(f"non-finite intermediate at coordinate {int(i)}: {err}") from err
        numeric = (fp - fm) / (2.0 * step)
        a = analytic[i]
        rel = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
        if rel > worst:
            worst = rel
    return worst
