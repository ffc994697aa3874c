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
are ``linear``, ``layer_norm`` (with gain and bias), ``ffn`` (ReLU
feed-forward block), ``segment_attention`` (multi-head softmax attention
within each segment) and ``segment_nll`` (negative log-softmax of each
segment at one position). Segment means are a ``matmul`` with a constant
weight matrix.

Broadcasting is deliberately narrow: operand shapes must match exactly, or the
smaller operand's shape must equal the trailing dimensions of the larger one
(a row vector against a matrix, a scalar against anything). Everything is
float64; every completed operation is checked for NaN/Inf.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operand shapes do not conform under the supported broadcasting rules."""


class GraphError(RuntimeError):
    """Backward misuse: non-scalar loss or replay of a consumed graph."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


def _as_f64(values) -> Array:
    arr = np.asarray(values, dtype=np.float64)
    return arr


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_consumed")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_f64(values)
        if not np.all(np.isfinite(self.data)):
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

    def sum(self) -> "Tensor":
        return sum_(self)

    def mean(self) -> "Tensor":
        return mean_(self)

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, constant(1.0 / float(other)))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def _coerce(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return constant(value)


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
    if not np.all(np.isfinite(data)):
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


# -- broadcasting helpers -----------------------------------------------------

def _check_broadcast(sa: tuple[int, ...], sb: tuple[int, ...]) -> None:
    if sa == sb:
        return
    small, big = (sa, sb) if len(sa) < len(sb) else (sb, sa)
    if big[len(big) - len(small):] == small:
        return
    raise ShapeError(f"shapes do not conform: {sa} vs {sb}")


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the leading axes that were broadcast."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    return grad


# -- arithmetic ---------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    out = a.data + b.data

    def vjp(g: Array):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    out = a.data - b.data

    def vjp(g: Array):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    out = a.data * b.data

    def vjp(g: Array):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp(g: Array):
        return g @ b.data.T, a.data.T @ g

    return _node(out, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {a.shape}")
    return _node(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    old = a.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


# -- pointwise functions ------------------------------------------------------

def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError(f"log requires positive values, min={a.data.min()!r}")
    out = np.log(a.data)
    return _node(out, (a,), lambda g: (g / a.data,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _node(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g: Array):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _node(out, (a,), vjp)


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def vjp(g: Array):
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return _node(out, (a,), vjp)


def layer_norm(a: Tensor, gain: Tensor | None = None, bias: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale by
    ``gain`` and shift by ``bias`` (both [H]; omitted, they are 1 and 0)."""
    width = a.shape[-1]
    gain = constant(np.ones(width)) if gain is None else gain
    bias = constant(np.zeros(width)) if bias is None else bias
    if gain.shape != (width,) or bias.shape != (width,):
        raise ShapeError(f"layer_norm gain {gain.shape} / bias {bias.shape} vs width {width}")
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    s = np.sqrt(var + eps)
    xhat = centered / s
    out = xhat * gain.data + bias.data

    def vjp(g: Array):
        gx = g * gain.data
        gm = gx.mean(axis=-1, keepdims=True)
        gxh = (gx * xhat).mean(axis=-1, keepdims=True)
        return ((gx - gm - xhat * gxh) / s, _unbroadcast(g * xhat, gain.shape),
                _unbroadcast(g, bias.shape))

    return _node(out, (a, gain, bias), vjp)


# -- fused blocks -------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of rows: x [N x I] @ w [I x O] + b [O]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear expects [N x I] @ [I x O], got {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias {b.shape} does not match output width {w.shape[1]}")
    out = x.data @ w.data + b.data

    def vjp(g: Array):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return _node(out, (x, w, b), vjp)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Feed-forward block relu(x @ w1 + b1) @ w2 + b2 as one node."""
    if x.data.ndim != 2 or x.shape[1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise ShapeError(f"ffn shapes do not chain: {x.shape}, {w1.shape}, {w2.shape}")
    if b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],):
        raise ShapeError(f"ffn biases {b1.shape}, {b2.shape} do not match {w1.shape}, {w2.shape}")
    pre = x.data @ w1.data + b1.data
    mask = pre > 0.0
    hidden = np.where(mask, pre, 0.0)
    out = hidden @ w2.data + b2.data

    def vjp(g: Array):
        gh = (g @ w2.data.T) * mask
        return gh @ w1.data.T, x.data.T @ gh, gh.sum(axis=0), hidden.T @ g, g.sum(axis=0)

    return _node(out, (x, w1, b1, w2, b2), vjp)


def _segment_bounds(offsets, rows: int) -> Array:
    bounds = np.asarray(offsets, dtype=np.int64)
    if (bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0 or bounds[-1] != rows
            or np.any(np.diff(bounds) <= 0)):
        raise ShapeError(f"offsets must rise strictly from 0 to {rows}, got {bounds.tolist()}")
    return bounds


def segment_attention(q: Tensor, k: Tensor, v: Tensor, offsets, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention inside each segment of packed
    rows. q, k, v are [N x H]; heads are the H / num_heads column groups, and
    each segment gets one [heads x L x L] softmax. Rows never attend across
    segments."""
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention expects equal [N x H] q, k, v, got {q.shape}, {k.shape}, {v.shape}")
    rows, width = q.shape
    if num_heads < 1 or width % num_heads:
        raise ShapeError(f"width {width} does not split into {num_heads} heads")
    bounds = _segment_bounds(offsets, rows)
    segments = list(zip(bounds[:-1], bounds[1:]))
    dh = width // num_heads
    scale = 1.0 / np.sqrt(dh)

    def split(a: Array) -> Array:  # [N x H] -> [heads x N x dh], a view
        return a.reshape(rows, num_heads, dh).transpose(1, 0, 2)

    def merge(a: Array) -> Array:  # [heads x N x dh] -> [N x H]
        return a.transpose(1, 0, 2).reshape(rows, width)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    out = np.empty((num_heads, rows, dh))
    probs = []
    for lo, hi in segments:
        p = qh[:, lo:hi] @ kh[:, lo:hi].transpose(0, 2, 1)
        p *= scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, vh[:, lo:hi], out=out[:, lo:hi])
        probs.append(p)

    def vjp(g: Array):
        gh = split(g)
        gq, gk, gv = (np.empty((num_heads, rows, dh)) for _ in range(3))
        for (lo, hi), p in zip(segments, probs):
            go = gh[:, lo:hi]
            np.matmul(p.transpose(0, 2, 1), go, out=gv[:, lo:hi])
            gs = go @ vh[:, lo:hi].transpose(0, 2, 1)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale
            np.matmul(gs, kh[:, lo:hi], out=gq[:, lo:hi])
            np.matmul(gs.transpose(0, 2, 1), qh[:, lo:hi], out=gk[:, lo:hi])
        return merge(gq), merge(gk), merge(gv)

    return _node(merge(out), (q, k, v), vjp)


def segment_nll(scores: Tensor, offsets, index) -> Tensor:
    """Per-segment negative log-softmax of a packed score vector at one row per
    segment: out[i] = -log softmax(scores[o_i:o_(i+1)])[index[i] - o_i], where
    ``index`` holds absolute rows."""
    if scores.data.ndim != 1:
        raise ShapeError(f"segment_nll expects 1-D scores, got {scores.shape}")
    bounds = _segment_bounds(offsets, scores.shape[0])
    starts, lengths = bounds[:-1], np.diff(bounds)
    idx = np.asarray(index, dtype=np.int64)
    if idx.shape != starts.shape or np.any(idx < starts) or np.any(idx >= bounds[1:]):
        raise ValueError(f"index {idx.tolist()} outside segments {bounds.tolist()}")
    shifted = scores.data - np.repeat(np.maximum.reduceat(scores.data, starts), lengths)
    e = np.exp(shifted)
    total = np.add.reduceat(e, starts)
    out = np.log(total) - shifted[idx]
    soft = e / np.repeat(total, lengths)

    def vjp(g: Array):
        gs = soft * np.repeat(g, lengths)
        gs[idx] -= g
        return (gs,)

    return _node(out, (scores,), vjp)


# -- structural ops -----------------------------------------------------------

def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: table [V x H] indexed by an integer id sequence."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"embedding ids must be 1-D, got shape {idx.shape}")
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(f"id out of range [0, {table.shape[0]}): {idx.min()}..{idx.max()}")
    out = table.data[idx]

    def vjp(g: Array):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _node(out, (table,), vjp)


def masked_mean(a: Tensor, mask) -> Tensor:
    """Mean over axis 0 restricted to rows where mask is true."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 1 or m.shape[0] != a.shape[0]:
        raise ShapeError(f"mask shape {m.shape} does not match leading dim of {a.shape}")
    count = int(m.sum())
    if count == 0:
        raise ValueError("masked_mean over an empty mask")
    out = a.data[m].mean(axis=0)

    def vjp(g: Array):
        ga = np.zeros_like(a.data)
        ga[m] = g / count
        return (ga,)

    return _node(out, (a,), vjp)


def pairwise_sq_dist(a: Tensor, b: Tensor) -> Tensor:
    """Squared Euclidean distances between rows: out[i, j] = ||a_i - b_j||^2."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"pairwise_sq_dist expects [N x H] and [M x H], got {a.shape}, {b.shape}")
    diff = a.data[:, None, :] - b.data[None, :, :]
    # sum of squares is >= 0 by construction; the clamp only absorbs round-off
    out = np.maximum((diff * diff).sum(axis=-1), 0.0)

    def vjp(g: Array):
        scaled = 2.0 * g[:, :, None] * diff
        return scaled.sum(axis=1), -scaled.sum(axis=0)

    return _node(out, (a, b), vjp)


def stack_rows(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    if not tensors:
        raise ShapeError("stack_rows of an empty sequence")
    shape = tensors[0].shape
    for t in tensors:
        if t.shape != shape:
            raise ShapeError(f"stack_rows shapes differ: {shape} vs {t.shape}")
    out = np.stack([t.data for t in tensors], axis=0)

    def vjp(g: Array):
        return tuple(g[i] for i in range(len(tensors)))

    return _node(out, tuple(tensors), vjp)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"slice_cols expects a 2-D tensor, got {a.shape}")
    out = a.data[:, start:stop].copy()

    def vjp(g: Array):
        ga = np.zeros_like(a.data)
        ga[:, start:stop] = g
        return (ga,)

    return _node(out, (a,), vjp)


def sum_(a: Tensor) -> Tensor:
    out = a.data.sum().reshape(())
    return _node(out, (a,), lambda g: (np.full(a.shape, float(g)),))


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
