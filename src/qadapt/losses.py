"""Training objectives: span cross-entropy, kernel two-sample distance, and
the contrastive class-separation term. The trainer combines the
cross-entropy and beta times the contrastive term in one
``tensor.weighted_sum`` (``training._half_step``).

The kernel is a Gaussian averaged over multiple bandwidths. Bandwidths are
either given explicitly or resolved per call by the median heuristic (median
pairwise squared distance of the pooled points, times a multiplier set); the
resolved values are treated as constants, so no gradient flows through the
median. The contrastive term and the kernel distance are both one
``tensor.kernel_sum``: a weighted sum of the kernel matrix of one stacked
point set, the class means of a batch or the two sets being compared, and
they differ only in their constant pair weights. The heuristic and the
kernel take their squared distances from ``tensor.sq_dists``, in Gram form:
[N x N] memory, where the direct difference form needs [N x N x H].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .model import (
    NON_NEGATIVE, POSITIVE, PackedBatch, SpanLogits, TokenizedSample,
    check_fields, items, one_of, optional,
)

MEDIAN_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
MEDIAN_FALLBACK = 1.0

SIGN_SIMILARITY_FLIPPED = "similarity-flipped"


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
    sign_variant: str = SIGN_SIMILARITY_FLIPPED  # the one sign; configs that name it still load

    def __post_init__(self):
        check_fields(self, beta=NON_NEGATIVE, noise_sigma=NON_NEGATIVE,
                     sign_variant=one_of(SIGN_SIMILARITY_FLIPPED))


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
        d2 = T.sq_dists(pts)
        med = float(np.median(d2[np.triu_indices(n, k=1)]))
        if not np.isfinite(med) or med <= 0.0:
            med = MEDIAN_FALLBACK
    return tuple(m * med for m in config.median_multipliers)


def mmd_squared(x, y, config: KernelConfig = KernelConfig()) -> float:
    """Biased V-statistic estimate of the squared kernel distance between the
    empirical distributions of two vector sets: the kernel sum over the
    stacked [x; y] whose pair weights are the products of +1/n for each of
    the n rows of x and -1/m for each of the m rows of y."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 2 or yv.ndim != 2:
        raise T.ShapeError("mmd_squared expects [N x H] sets")
    if xv.shape[0] == 0 or yv.shape[0] == 0:
        raise ValueError("mmd_squared requires non-empty sets")
    if xv.shape[1] != yv.shape[1]:
        raise T.ShapeError(f"set dimensions differ: {xv.shape[1]} vs {yv.shape[1]}")
    points = np.vstack([xv, yv])
    side = np.concatenate([np.full(len(xv), 1.0 / len(xv)), np.full(len(yv), -1.0 / len(yv))])
    return T.kernel_sum(T.constant(points), np.outer(side, side),
                        resolve_bandwidths(points, config)).item()


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
    return ClassMeans(T.matmul(weights, features),
                      tuple(ts.domain_tag for ts in samples))


def _pair_weights(n: int) -> np.ndarray:
    """The constant [2n x 2n] pair weights of the kernel sum over the stacked
    class means of a batch of n samples that is the loss: -1/n^2 for each
    pair within the answer means and within the question/context means, and
    the cross-class weight +1/n^2 split evenly between its two mirrored
    blocks."""
    intra = np.full((n, n), -1.0 / n**2)
    inter = np.full((n, n), 0.5 / n**2)
    return np.block([[intra, inter], [inter, intra]])


def contrastive_loss(means: ClassMeans, config: ContrastiveConfig) -> Tensor:
    """Kernel sum over the stacked [2B x H] class means of a batch, source
    and synthetic samples pooled: the cross-class term (answer means against
    question/context means) minus the two intra-class terms, each averaged
    over its B^2 pairs, as one ``kernel_sum`` with the constant weights of
    ``_pair_weights``. Minimizing it pulls same-class means together and
    pushes the two classes apart. The median-heuristic bandwidths come from
    the pooled answer and question/context means.

    The paper prints the opposite sign (intra-class terms positive), which
    minimized spreads same-class means apart; see the README.
    """
    stacked, n = means.stacked, len(means.domain_tag)
    if stacked.data.ndim != 2 or stacked.shape[0] != 2 * n:
        raise T.ShapeError(f"stacked class means {stacked.shape} for {n} tags")
    if n == 0:
        raise ValueError("contrastive_loss over an empty batch")
    return T.kernel_sum(stacked, _pair_weights(n), resolve_bandwidths(stacked.data, config.kernel))


def span_cross_entropy(logits: SpanLogits, gold: PackedBatch) -> Tensor:
    """Mean over segments of the mean start and end negative log-softmax at
    the gold positions; the golds are the answer spans of the samples of the
    packed batch the logits were computed from."""
    spans = np.array([ts.answer_span for ts in gold.samples]) + gold.offsets[:-1, None]
    return T.segment_nll(logits.scores, gold.offsets, spans).mean()
