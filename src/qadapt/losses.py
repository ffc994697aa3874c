"""Training objectives: span cross-entropy, kernel two-sample distance, and
the contrastive class-separation term combined into one loss.

The kernel is a Gaussian averaged over multiple bandwidths. Bandwidths are
either given explicitly or resolved per call by the median heuristic (median
pairwise squared distance of the pooled points, times a multiplier set); the
resolved values are treated as constants, so no gradient flows through the
median.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .model import PackedBatch, SpanLogits, TokenizedSample, SOURCE, TARGET_SYNTHETIC

MEDIAN_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
MEDIAN_FALLBACK = 1.0

SIGN_AS_PRINTED = "as-printed"
SIGN_SIMILARITY_FLIPPED = "similarity-flipped"
PAIRING_MIXED = "mixed-batch"
PAIRING_DOMAIN_SEPARATED = "domain-separated"


class MalformedSampleError(ValueError):
    """A sample reached the loss with an unusable token-class layout."""


@dataclass(frozen=True)
class KernelConfig:
    """Explicit bandwidths, or median-heuristic resolution when None."""

    bandwidths: tuple[float, ...] | None = None
    median_multipliers: tuple[float, ...] = MEDIAN_MULTIPLIERS

    def __post_init__(self):
        if self.bandwidths is not None:
            if len(self.bandwidths) == 0:
                raise ValueError("bandwidth list must be non-empty")
            if any(g <= 0 for g in self.bandwidths):
                raise ValueError(f"bandwidths must be positive, got {self.bandwidths}")
        if len(self.median_multipliers) == 0 or any(m <= 0 for m in self.median_multipliers):
            raise ValueError("median multipliers must be positive and non-empty")


@dataclass(frozen=True)
class ContrastiveConfig:
    beta: float = 0.001
    noise_sigma: float = 0.01
    kernel: KernelConfig = field(default_factory=KernelConfig)
    sign_variant: str = SIGN_AS_PRINTED
    pairing_variant: str = PAIRING_MIXED

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.sign_variant not in (SIGN_AS_PRINTED, SIGN_SIMILARITY_FLIPPED):
            raise ValueError(f"unknown sign_variant {self.sign_variant!r}")
        if self.pairing_variant not in (PAIRING_MIXED, PAIRING_DOMAIN_SEPARATED):
            raise ValueError(f"unknown pairing_variant {self.pairing_variant!r}")


@dataclass
class ClassMeans:
    """Mean feature of the answer tokens and of the remaining question/context
    tokens (specials excluded from both): [H] means and one domain tag for a
    sample, or [B x H] means and one tag per row for a packed batch."""

    answer_mean: Tensor
    cq_mean: Tensor
    domain_tag: str | tuple[str, ...]


def resolve_bandwidths(points: np.ndarray, config: KernelConfig) -> tuple[float, ...]:
    """Concrete bandwidth list for a set of points; gradient-free."""
    if config.bandwidths is not None:
        return tuple(float(g) for g in config.bandwidths)
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        med = MEDIAN_FALLBACK
    else:
        diffs = pts[:, None, :] - pts[None, :, :]
        d2 = (diffs * diffs).sum(axis=-1)
        med = float(np.median(d2[np.triu_indices(n, k=1)]))
        if not np.isfinite(med) or med <= 0.0:
            med = MEDIAN_FALLBACK
    return tuple(m * med for m in config.median_multipliers)


def kernel_matrix(x: Tensor, y: Tensor, bandwidths: Sequence[float]) -> Tensor:
    """Average over bandwidths of exp(-||x_i - y_j||^2 / gamma), differentiable."""
    d2 = T.pairwise_sq_dist(x, y)
    acc = None
    for gamma in bandwidths:
        term = T.exp(d2 * (-1.0 / gamma))
        acc = term if acc is None else acc + term
    return acc * (1.0 / len(bandwidths))


def gaussian_kernel(x, y, config: KernelConfig = KernelConfig()) -> float:
    """Multi-bandwidth Gaussian kernel value for two vectors, in (0, 1]."""
    xv = np.atleast_2d(np.asarray(x, dtype=np.float64))
    yv = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if xv.shape != yv.shape:
        raise T.ShapeError(f"kernel operands differ in dimension: {xv.shape} vs {yv.shape}")
    bw = resolve_bandwidths(np.vstack([xv, yv]), config)
    return float(kernel_matrix(T.constant(xv), T.constant(yv), bw).data[0, 0])


def mmd_squared(x, y, config: KernelConfig = KernelConfig()) -> float:
    """Biased V-statistic estimate of the squared kernel distance between the
    empirical distributions of two vector sets."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 2 or yv.ndim != 2:
        raise T.ShapeError("mmd_squared expects [N x H] sets")
    if xv.shape[0] == 0 or yv.shape[0] == 0:
        raise ValueError("mmd_squared requires non-empty sets")
    if xv.shape[1] != yv.shape[1]:
        raise T.ShapeError(f"set dimensions differ: {xv.shape[1]} vs {yv.shape[1]}")
    bw = resolve_bandwidths(np.vstack([xv, yv]), config)
    kxx = kernel_matrix(T.constant(xv), T.constant(xv), bw).data.mean()
    kyy = kernel_matrix(T.constant(yv), T.constant(yv), bw).data.mean()
    kxy = kernel_matrix(T.constant(xv), T.constant(yv), bw).data.mean()
    return float(kxx + kyy - 2.0 * kxy)


def _class_weights(batch: PackedBatch) -> tuple[np.ndarray, np.ndarray]:
    """[B x N] averaging weights over the packed rows: row i of the first
    matrix averages sample i's answer tokens, of the second its non-answer
    question/context tokens."""
    answer = np.zeros((len(batch), batch.offsets[-1]))
    cq = np.zeros_like(answer)
    for i, (ts, lo) in enumerate(zip(batch.samples, batch.offsets)):
        cq_mask = (ts.question_mask | ts.context_mask) & ~ts.answer_mask
        if not ts.answer_mask.any():
            raise MalformedSampleError("sample has an empty answer mask")
        if not cq_mask.any():
            raise MalformedSampleError("sample has no non-answer question/context tokens")
        answer[i, lo:lo + len(ts)] = ts.answer_mask / ts.answer_mask.sum()
        cq[i, lo:lo + len(ts)] = cq_mask / cq_mask.sum()
    return answer, cq


def class_means(features: Tensor, sample: TokenizedSample | PackedBatch) -> ClassMeans:
    """Mean features of the answer tokens and of the non-answer question/context
    tokens, for one sample ([L x H] features) or for every segment of a packed
    batch ([N x H] features, one weight-matrix product per class)."""
    packed = sample if isinstance(sample, PackedBatch) else PackedBatch.pack([sample])
    answer_w, cq_w = _class_weights(packed)
    answer = T.matmul(T.constant(answer_w), features)
    cq = T.matmul(T.constant(cq_w), features)
    if isinstance(sample, PackedBatch):
        return ClassMeans(answer, cq, tuple(ts.domain_tag for ts in sample.samples))
    width = (features.shape[1],)
    return ClassMeans(T.reshape(answer, width), T.reshape(cq, width), sample.domain_tag)


def contrastive_loss(batch: Sequence[ClassMeans] | ClassMeans, config: ContrastiveConfig) -> Tensor:
    """The contrastive term of a batch given as per-sample class means, or as
    the stacked class means of a packed batch; see ``contrastive_term``."""
    if isinstance(batch, ClassMeans):
        return contrastive_term(batch.answer_mean, batch.cq_mean, batch.domain_tag, config)
    if len(batch) == 0:
        raise ValueError("contrastive_loss over an empty batch")
    return contrastive_term(T.stack_rows([m.answer_mean for m in batch]),
                            T.stack_rows([m.cq_mean for m in batch]),
                            [m.domain_tag for m in batch], config)


def contrastive_term(answer: Tensor, cq: Tensor, domain_tags: Sequence[str],
                     config: ContrastiveConfig) -> Tensor:
    """Kernel sum over stacked [B x H] class means: two intra-class terms and
    one (negated) cross-class term, each normalized by its pair count.

    sign_variant "as-printed" scores intra-class terms positively (minimizing
    spreads same-class means apart); "similarity-flipped" negates the intra
    terms and adds the cross term, so minimizing pulls same-class means
    together and pushes the classes apart. pairing_variant "domain-separated"
    restricts the intra-class sums to symmetrized source/target pairs.
    """
    n = answer.shape[0]
    if n == 0:
        raise ValueError("contrastive_loss over an empty batch")
    if cq.shape != answer.shape or len(domain_tags) != n:
        raise T.ShapeError(f"class means {answer.shape} / {cq.shape} for {len(domain_tags)} tags")
    bw = resolve_bandwidths(np.vstack([answer.data, cq.data]), config.kernel)
    k_aa = kernel_matrix(answer, answer, bw)
    k_cc = kernel_matrix(cq, cq, bw)
    k_ac = kernel_matrix(answer, cq, bw)

    if config.pairing_variant == PAIRING_DOMAIN_SEPARATED:
        src = np.array([tag == SOURCE for tag in domain_tags])
        tgt = np.array([tag == TARGET_SYNTHETIC for tag in domain_tags])
        cross = np.outer(src, tgt).astype(np.float64)
        cross = cross + cross.T
        pairs = cross.sum()
        if pairs == 0:
            raise ValueError("domain-separated pairing needs both domains in the batch")
        intra_a = (k_aa * T.constant(cross)).sum() * (1.0 / pairs)
        intra_c = (k_cc * T.constant(cross)).sum() * (1.0 / pairs)
    else:
        intra_a = k_aa.sum() * (1.0 / n**2)
        intra_c = k_cc.sum() * (1.0 / n**2)
    inter = k_ac.sum() * (1.0 / n**2)

    if config.sign_variant == SIGN_SIMILARITY_FLIPPED:
        return -intra_a - intra_c + inter
    return intra_a + intra_c - inter


def span_cross_entropy(logits: SpanLogits, gold: tuple[int, int] | PackedBatch) -> Tensor:
    """Mean over sequences of the mean start and end negative log-softmax at
    the gold positions. ``gold`` is the (start, end) pair of one sequence, or
    the packed batch the logits were computed from, whose samples' answer
    spans are the golds of its segments."""
    if isinstance(gold, PackedBatch):
        offsets = gold.offsets
        spans = np.array([ts.answer_span for ts in gold.samples]) + offsets[:-1, None]
    else:
        length = logits.start_scores.shape[0]
        start, end = gold
        if not (0 <= start < length and 0 <= end < length):
            raise ValueError(f"gold span {gold} outside sequence of length {length}")
        offsets, spans = np.array([0, length]), np.array([gold])
    nll_start = T.segment_nll(logits.start_scores, offsets, spans[:, 0])
    nll_end = T.segment_nll(logits.end_scores, offsets, spans[:, 1])
    return ((nll_start + nll_end) * 0.5).mean()


def total_loss(ce, con, config: ContrastiveConfig) -> Tensor:
    """Combined objective: cross-entropy plus beta times the contrastive term."""
    ce_t = ce if isinstance(ce, Tensor) else T.constant(ce)
    con_t = con if isinstance(con, Tensor) else T.constant(con)
    return ce_t + config.beta * con_t
