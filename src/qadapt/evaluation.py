"""Answer normalization, EM/F1 scoring, answer decoding, dataset evaluation,
kernel-distance domain diagnostics, and 2-D principal-component projections of
token features.

Samples reach the model through ``model.tokenize_samples`` (``tokenize_sample``
for the one sample ``predict_answer`` scores). ``predict_answers`` is the one
decoder, for ``evaluate`` and the roundtrip filter alike: packed chunks
(``map_chunks``, which reduces each chunk to its [N x 2] span scores, in a
forked child for the second half of two or more chunks), ``predict_span``
on each sample's segment here, then ``TokenizedSample.span_text``.
"""

from __future__ import annotations

import logging
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .losses import KernelConfig, class_means, mmd_squared
from .model import (
    SpanLogits, SpanModel, TokenizationError, map_chunks, predict_span, tokenize_sample,
    tokenize_samples,
)
from .datagen import DomainDataset

log = logging.getLogger(__name__)

_PUNCT = set(string.punctuation)
_ARTICLES = re.compile(r"\b(a|an|the)\b")


def normalize_answer(text: str) -> str:
    """Lowercase, drop punctuation, drop articles as whole words, collapse
    whitespace."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in _PUNCT)
    text = _ARTICLES.sub(" ", text)
    return " ".join(text.split())


def em_f1(prediction: str, gold: str) -> tuple[int, float]:
    """Exact-match flag and token-multiset F1 over normalized answers. Both
    sides empty after normalization scores (1, 1); exactly one empty, (0, 0)."""
    p_norm = normalize_answer(prediction)
    g_norm = normalize_answer(gold)
    em = int(p_norm == g_norm)
    p_tokens = p_norm.split()
    g_tokens = g_norm.split()
    if not p_tokens and not g_tokens:
        return 1, 1.0
    if not p_tokens or not g_tokens:
        return 0, 0.0
    common = Counter(p_tokens) & Counter(g_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return em, 0.0
    precision = num_same / len(p_tokens)
    recall = num_same / len(g_tokens)
    return em, 2 * precision * recall / (precision + recall)


@dataclass
class SampleScore:
    sample_id: str
    prediction: str
    gold: str
    em: int
    f1: float
    note: str = ""


@dataclass
class EvalResult:
    em: float  # percentage
    f1: float  # percentage
    n: int
    records: list[SampleScore] = field(default_factory=list)


def predict_answers(model: SpanModel, pairs: Sequence[tuple], max_answer_len: int) -> list[str]:
    """The model's best span of each ``(sample, TokenizedSample)`` pair (as
    ``tokenize_samples`` returns them), decoded back into the sample's context
    text, in order."""
    contexts = iter([sample.context for sample, _ in pairs])
    answers = []
    chunks = map_chunks(model, [ts for _, ts in pairs],
                        lambda _, features: model.span_logits(features).scores.data)
    for packed, scores in chunks:
        edges = packed.offsets.tolist()
        for ts, lo, hi in zip(packed.samples, edges, edges[1:]):
            span = predict_span(SpanLogits(T.constant(scores[lo:hi])), ts.context_mask,
                                max_answer_len)
            answers.append(ts.span_text(next(contexts), span))
    return answers


def predict_answer(model: SpanModel, sample, max_answer_len: int) -> str:
    """Decode the model's best span of one QA sample back into context text;
    an untokenizable sample raises ``TokenizationError``."""
    ts = tokenize_sample(
        sample.question, sample.context, sample.answer_start, sample.answer_text,
        domain_tag="source", max_len=model.config.max_len, sample_id=sample.sample_id,
    )
    return predict_answers(model, [(sample, ts)], max_answer_len)[0]


def evaluate(model: SpanModel, dataset: DomainDataset, max_answer_len: int = 48) -> EvalResult:
    """Mean EM and F1 (x100) of greedy span predictions against single golds.
    Untokenizable samples count as (0, 0) with the reason recorded."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    records = []
    for sample in dataset.samples:
        try:
            prediction = predict_answer(model, sample, max_answer_len)
        except TokenizationError as err:
            log.warning("evaluate: %s scored (0, 0): %s", sample.sample_id, err)
            records.append(SampleScore(sample.sample_id, "", sample.answer_text, 0, 0.0, note=str(err)))
            continue
        em, f1 = em_f1(prediction, sample.answer_text)
        records.append(SampleScore(sample.sample_id, prediction, sample.answer_text, em, f1))
    n = len(records)
    return EvalResult(
        em=100.0 * sum(r.em for r in records) / n,
        f1=100.0 * sum(r.f1 for r in records) / n,
        n=n,
        records=records,
    )


def answer_mean_features(model: SpanModel, dataset: DomainDataset) -> np.ndarray:
    """Answer-token mean feature per tokenizable sample under the frozen
    model, one row per sample in dataset order. Samples are encoded in packed
    chunks (``map_chunks``), and each chunk's [B x H] answer means come
    from one ``class_means`` call; a row matches the sample encoded alone up
    to round-off."""
    tokenized = [ts for _, ts in tokenize_samples(dataset.samples, dataset.domain_tag,
                                                  model.config.max_len)]
    if not tokenized:
        raise ValueError("no tokenizable samples to extract features from")
    chunks = map_chunks(model, tokenized,
                        lambda packed, features: class_means(features, packed).answer_mean)
    return np.concatenate([means for _, means in chunks])


def domain_gap(
    model: SpanModel,
    source: DomainDataset,
    target: DomainDataset,
    kernel: KernelConfig = KernelConfig(),
) -> float:
    """Squared kernel distance between the two domains' answer-mean features."""
    return mmd_squared(answer_mean_features(model, source), answer_mean_features(model, target), kernel)


@dataclass
class ProjectedPoints:
    coords: np.ndarray  # [N x 2]
    labels: list[str]  # per point: answer | question | other
    explained_variance_ratio: tuple[float, float]
    sample_ids: list[str] = field(default_factory=list)


def pca_project(features: np.ndarray, labels: list[str] | None = None,
                sample_ids: list[str] | None = None) -> ProjectedPoints:
    """Project mean-centered rows onto the top-2 principal directions. Sign
    convention: the first nonzero loading of each component is positive."""
    data = np.asarray(features, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError(f"need at least 2 points, got shape {data.shape}")
    if data.shape[1] < 2:
        raise ValueError("need at least 2 feature dimensions")
    centered = data - data.mean(axis=0, keepdims=True)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    total = float((s**2).sum())
    if total <= 0.0:
        raise ValueError("zero-variance data cannot be projected")
    components = vt[:2].copy()
    if components.shape[0] < 2:  # rank-deficient input with a single row dim
        components = np.vstack([components, np.zeros_like(components[0])])
    for row in components:
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    ratios = (float(s[0] ** 2 / total), float(s[1] ** 2 / total) if s.size > 1 else 0.0)
    coords = centered @ components.T
    n = data.shape[0]
    return ProjectedPoints(
        coords=coords,
        labels=list(labels) if labels is not None else ["other"] * n,
        explained_variance_ratio=ratios,
        sample_ids=list(sample_ids) if sample_ids is not None else [""] * n,
    )


def token_feature_cloud(model: SpanModel, dataset: DomainDataset, max_samples: int = 8):
    """Per-token features and class labels (answer/question/other; specials are
    'other') for a handful of samples, ready for projection dumps."""
    tokenized = [ts for _, ts in tokenize_samples(dataset.samples[:max_samples],
                                                  dataset.domain_tag, model.config.max_len)]
    if not tokenized:
        raise ValueError("no tokenizable samples for the feature cloud")
    feats = np.concatenate([f for _, f in map_chunks(model, tokenized, lambda _, f: f.data)])
    answer = np.concatenate([ts.answer_mask for ts in tokenized])
    question = np.concatenate([ts.question_mask for ts in tokenized])
    labels = ["answer" if a else "question" if q else "other" for a, q in zip(answer, question)]
    ids = [ts.sample_id for ts in tokenized for _ in range(len(ts))]
    return feats, labels, ids
