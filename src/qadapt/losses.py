"""Training objectives: span cross-entropy, kernel two-sample distance, and
the contrastive class-separation term combined into one loss.

The kernel is a Gaussian averaged over multiple bandwidths. Bandwidths are
either given explicitly or resolved per call by the median heuristic (median
pairwise squared distance of the pooled points, times a multiplier set); the
resolved values are treated as constants, so no gradient flows through the
median. The heuristic and the kernel take their squared distances from
``tensor.sq_dists``, in Gram form |x|^2 + |y|^2 - 2 x.y clamped at 0: [N x M]
memory, where the direct difference form needs [N x M x H].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .model import (
    NON_NEGATIVE, POSITIVE, SOURCE, TARGET_SYNTHETIC, PackedBatch, SpanLogits, TokenizedSample,
    check_fields, items, one_of, optional,
)

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
        check_fields(self, bandwidths=optional(items(POSITIVE)), median_multipliers=items(POSITIVE))


@dataclass(frozen=True)
class ContrastiveConfig:
    beta: float = 0.001
    noise_sigma: float = 0.01
    kernel: KernelConfig = field(default_factory=KernelConfig)
    sign_variant: str = SIGN_AS_PRINTED
    pairing_variant: str = PAIRING_MIXED

    def __post_init__(self):
        check_fields(self, beta=NON_NEGATIVE, noise_sigma=NON_NEGATIVE,
                     sign_variant=one_of(SIGN_AS_PRINTED, SIGN_SIMILARITY_FLIPPED),
                     pairing_variant=one_of(PAIRING_MIXED, PAIRING_DOMAIN_SEPARATED))


@dataclass
class ClassMeans:
    """Mean feature of the answer tokens and of the remaining question/context
    tokens (specials excluded from both) of every sample of a batch, stacked
    as one [2B x H] tensor: the B answer means, then the B question/context
    means, in sample order, with one domain tag per sample."""

    stacked: Tensor
    domain_tag: tuple[str, ...]

    @property
    def answer_mean(self) -> np.ndarray:
        """The [B x H] answer means, as an array."""
        return self.stacked.data[:len(self.domain_tag)]


def resolve_bandwidths(points: np.ndarray, config: KernelConfig) -> tuple[float, ...]:
    """Concrete bandwidth list for a set of points; gradient-free."""
    if config.bandwidths is not None:
        return tuple(float(g) for g in config.bandwidths)
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        med = MEDIAN_FALLBACK
    else:
        d2 = T.sq_dists(pts, pts)
        med = float(np.median(d2[np.triu_indices(n, k=1)]))
        if not np.isfinite(med) or med <= 0.0:
            med = MEDIAN_FALLBACK
    return tuple(m * med for m in config.median_multipliers)


def gaussian_kernel(x, y, config: KernelConfig = KernelConfig()) -> float:
    """Multi-bandwidth Gaussian kernel value for two vectors, in (0, 1]."""
    xv = np.atleast_2d(np.asarray(x, dtype=np.float64))
    yv = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if xv.shape != yv.shape:
        raise T.ShapeError(f"kernel operands differ in dimension: {xv.shape} vs {yv.shape}")
    bw = resolve_bandwidths(np.vstack([xv, yv]), config)
    return float(T.gaussian_kernel_values(xv, yv, bw)[0, 0])


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
    kxx = T.gaussian_kernel_values(xv, xv, bw).mean()
    kyy = T.gaussian_kernel_values(yv, yv, bw).mean()
    kxy = T.gaussian_kernel_values(xv, yv, bw).mean()
    return float(kxx + kyy - 2.0 * kxy)


def _class_weights(batch: PackedBatch, total: int, first: int) -> np.ndarray:
    """[2 total x N] averaging weights over the packed rows: row first + i
    averages the answer tokens of sample i of the batch, row total + first + i
    its non-answer question/context tokens, and every other row is 0."""
    weights = np.zeros((2 * total, batch.offsets[-1]))
    for i, (ts, lo) in enumerate(zip(batch.samples, batch.offsets)):
        answer_mask = ts.answer_mask
        cq_mask = (ts.question_mask | ts.context_mask) & ~answer_mask
        if not cq_mask.any():
            raise MalformedSampleError("sample has no non-answer question/context tokens")
        weights[first + i, lo:lo + len(ts)] = answer_mask / answer_mask.sum()
        weights[total + first + i, lo:lo + len(ts)] = cq_mask / cq_mask.sum()
    return weights


def class_means(features: Tensor, batch: PackedBatch, whole: Sequence[TokenizedSample] = (),
                first: int = 0) -> ClassMeans:
    """Mean features of the answer tokens and of the non-answer question/context
    tokens of every segment of a packed batch ([N x H] features), as one
    product with a constant weight matrix. Given ``whole``, a batch whose
    samples from ``first`` on are the packed ones, the means take their rows
    in ``whole``'s [2 |whole| x H] stack and carry its domain tags; the rows
    of its other samples are 0."""
    samples = tuple(whole) or batch.samples
    weights = _class_weights(batch, len(samples), first)
    return ClassMeans(T.matmul(T.constant(weights), features),
                      tuple(ts.domain_tag for ts in samples))


def _pair_weights(domain_tags: Sequence[str], config: ContrastiveConfig) -> np.ndarray:
    """The constant [2B x 2B] weights whose product with the kernel matrix of
    the stacked class means sums to the loss: each intra-class block is
    normalized by its pair count, the cross-class term is split evenly
    between its two mirrored blocks, and the signs follow the variant."""
    n = len(domain_tags)
    if config.pairing_variant == PAIRING_DOMAIN_SEPARATED:
        src = np.array([tag == SOURCE for tag in domain_tags])
        tgt = np.array([tag == TARGET_SYNTHETIC for tag in domain_tags])
        cross = np.outer(src, tgt).astype(np.float64)
        cross = cross + cross.T
        pairs = cross.sum()
        if pairs == 0:
            raise ValueError("domain-separated pairing needs both domains in the batch")
        intra = cross * (1.0 / pairs)
    else:
        intra = np.full((n, n), 1.0 / n**2)
    inter = np.full((n, n), -0.5 / n**2)
    weights = np.block([[intra, inter], [inter, intra]])
    return -weights if config.sign_variant == SIGN_SIMILARITY_FLIPPED else weights


def contrastive_loss(means: ClassMeans, config: ContrastiveConfig) -> Tensor:
    """Kernel sum over the stacked [2B x H] class means of a batch: two
    intra-class terms and one (negated) cross-class term, each normalized by
    its pair count. One kernel matrix over the stacked means holds all three
    terms' pairs, and one product with constant weights (``_pair_weights``)
    sums them.

    sign_variant "as-printed" scores intra-class terms positively (minimizing
    spreads same-class means apart); "similarity-flipped" negates the intra
    terms and adds the cross term, so minimizing pulls same-class means
    together and pushes the classes apart. pairing_variant "domain-separated"
    restricts the intra-class sums to symmetrized source/target pairs. The
    median-heuristic bandwidths come from the pooled answer and
    question/context means.
    """
    stacked, n = means.stacked, len(means.domain_tag)
    if stacked.data.ndim != 2 or stacked.shape[0] != 2 * n:
        raise T.ShapeError(f"stacked class means {stacked.shape} for {n} tags")
    if n == 0:
        raise ValueError("contrastive_loss over an empty batch")
    weights = _pair_weights(means.domain_tag, config)
    kernel = T.gaussian_kernel(stacked, stacked, resolve_bandwidths(stacked.data, config.kernel))
    return (kernel * T.constant(weights)).sum()


def span_cross_entropy(logits: SpanLogits, gold: PackedBatch) -> Tensor:
    """Mean over segments of the mean start and end negative log-softmax at
    the gold positions; the golds are the answer spans of the samples of the
    packed batch the logits were computed from."""
    spans = np.array([ts.answer_span for ts in gold.samples]) + gold.offsets[:-1, None]
    return T.segment_nll(logits.scores, gold.offsets, spans).mean()


def total_loss(ce: Tensor, con: Tensor, config: ContrastiveConfig) -> Tensor:
    """Combined objective: cross-entropy plus beta times the contrastive term."""
    return ce + config.beta * con
