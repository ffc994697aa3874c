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

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .model import PackedBatch, SpanLogits, SOURCE, TARGET_SYNTHETIC

MEDIAN_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
MEDIAN_FALLBACK = 1.0

SIGN_AS_PRINTED = "as-printed"
SIGN_SIMILARITY_FLIPPED = "similarity-flipped"
PAIRING_MIXED = "mixed-batch"
PAIRING_DOMAIN_SEPARATED = "domain-separated"


class MalformedSampleError(ValueError):
    """A sample reached the loss with an unusable token-class layout."""


def finite_real(value) -> bool:
    """Whether a config number is a finite real: not a bool (which Python
    counts as an int), a string, NaN or an infinity."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class KernelConfig:
    """Explicit bandwidths, or median-heuristic resolution when None."""

    bandwidths: tuple[float, ...] | None = None
    median_multipliers: tuple[float, ...] = MEDIAN_MULTIPLIERS

    def __post_init__(self):
        if self.bandwidths is not None:
            if len(self.bandwidths) == 0:
                raise ValueError("bandwidth list must be non-empty")
            if not all(finite_real(g) and g > 0 for g in self.bandwidths):
                raise ValueError(f"bandwidths must be positive and finite, got {self.bandwidths!r}")
        if len(self.median_multipliers) == 0 or not all(
                finite_real(m) and m > 0 for m in self.median_multipliers):
            raise ValueError(f"median_multipliers must be positive, finite and non-empty, "
                             f"got {self.median_multipliers!r}")


@dataclass(frozen=True)
class ContrastiveConfig:
    beta: float = 0.001
    noise_sigma: float = 0.01
    kernel: KernelConfig = field(default_factory=KernelConfig)
    sign_variant: str = SIGN_AS_PRINTED
    pairing_variant: str = PAIRING_MIXED

    def __post_init__(self):
        # NaN fails every comparison, so each number is also checked to be finite
        if not (finite_real(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        if not (finite_real(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if self.sign_variant not in (SIGN_AS_PRINTED, SIGN_SIMILARITY_FLIPPED):
            raise ValueError(f"unknown sign_variant {self.sign_variant!r}")
        if self.pairing_variant not in (PAIRING_MIXED, PAIRING_DOMAIN_SEPARATED):
            raise ValueError(f"unknown pairing_variant {self.pairing_variant!r}")


@dataclass
class ClassMeans:
    """Mean feature of the answer tokens and of the remaining question/context
    tokens (specials excluded from both) of every sample of a packed batch:
    [B x H] means, one row and one domain tag per sample."""

    answer_mean: Tensor
    cq_mean: Tensor
    domain_tag: tuple[str, ...]


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


def _class_weights(batch: PackedBatch) -> tuple[np.ndarray, np.ndarray]:
    """[B x N] averaging weights over the packed rows: row i of the first
    matrix averages sample i's answer tokens, of the second its non-answer
    question/context tokens."""
    answer = np.zeros((len(batch), batch.offsets[-1]))
    cq = np.zeros_like(answer)
    for i, (ts, lo) in enumerate(zip(batch.samples, batch.offsets)):
        answer_mask = ts.answer_mask
        cq_mask = (ts.question_mask | ts.context_mask) & ~answer_mask
        if not cq_mask.any():
            raise MalformedSampleError("sample has no non-answer question/context tokens")
        answer[i, lo:lo + len(ts)] = answer_mask / answer_mask.sum()
        cq[i, lo:lo + len(ts)] = cq_mask / cq_mask.sum()
    return answer, cq


def class_means(features: Tensor, batch: PackedBatch) -> ClassMeans:
    """Mean features of the answer tokens and of the non-answer question/context
    tokens of every segment of a packed batch ([N x H] features), one
    weight-matrix product per class."""
    answer_w, cq_w = _class_weights(batch)
    return ClassMeans(T.matmul(T.constant(answer_w), features),
                      T.matmul(T.constant(cq_w), features),
                      tuple(ts.domain_tag for ts in batch.samples))


def contrastive_loss(means: ClassMeans, config: ContrastiveConfig) -> Tensor:
    """Kernel sum over the stacked [B x H] class means of a batch: two
    intra-class terms and one (negated) cross-class term, each normalized by
    its pair count.

    sign_variant "as-printed" scores intra-class terms positively (minimizing
    spreads same-class means apart); "similarity-flipped" negates the intra
    terms and adds the cross term, so minimizing pulls same-class means
    together and pushes the classes apart. pairing_variant "domain-separated"
    restricts the intra-class sums to symmetrized source/target pairs.
    """
    answer, cq, domain_tags = means.answer_mean, means.cq_mean, means.domain_tag
    n = len(domain_tags)
    if answer.data.ndim != 2 or answer.shape[0] != n or cq.shape != answer.shape:
        raise T.ShapeError(f"class means {answer.shape} / {cq.shape} for {n} tags")
    if n == 0:
        raise ValueError("contrastive_loss over an empty batch")
    bw = resolve_bandwidths(np.vstack([answer.data, cq.data]), config.kernel)
    k_aa = T.gaussian_kernel(answer, answer, bw)
    k_cc = T.gaussian_kernel(cq, cq, bw)
    k_ac = T.gaussian_kernel(answer, cq, bw)

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


def span_cross_entropy(logits: SpanLogits, gold: PackedBatch) -> Tensor:
    """Mean over segments of the mean start and end negative log-softmax at
    the gold positions; the golds are the answer spans of the samples of the
    packed batch the logits were computed from."""
    spans = np.array([ts.answer_span for ts in gold.samples]) + gold.offsets[:-1, None]
    return T.segment_nll(logits.scores, gold.offsets, spans).mean()


def total_loss(ce, con, config: ContrastiveConfig) -> Tensor:
    """Combined objective: cross-entropy plus beta times the contrastive term."""
    ce_t = ce if isinstance(ce, Tensor) else T.constant(ce)
    con_t = con if isinstance(con, Tensor) else T.constant(con)
    return ce_t + config.beta * con_t
