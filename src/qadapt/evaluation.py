"""Answer normalization, EM/F1 scoring, answer decoding, dataset evaluation,
kernel-distance domain diagnostics, and 2-D principal-component projections of
token features.

Samples reach the model through ``model.tokenize_samples`` (``tokenize_sample``
for the one sample ``predict_answer`` scores). ``predict_answers`` is the one
decoder, for ``evaluate`` and the roundtrip filter alike: packed chunks
(``map_chunks``, which reduces each chunk to its [N x 2] span scores with
``_span_scores``, in the worker for the second half of two or more chunks),
``predict_span`` on each sample's segment here, then
``TokenizedSample.span_text``. Each reducer encodes its chunk at the rows
it reads: every row for span scores and token features, the answer rows
alone for answer means (``_answer_means``), whose last encoder layer is
computed only there. The reducers are module-level functions, because the
worker receives them by reference.

``evaluate`` scores one question at a time (``score_samples``). Inside
``training.train`` it sends the second half of the questions to the
training session's partner (``workers.Partner``) as one ``score`` request
between steps, scores the first half meanwhile, and appends the records
the partner answers with, so that the records do not depend on where
either half ran.
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
# class_means is imported only for perfbench/tracing.py, which times it under
# this module's name as well as under training's
from .losses import KernelConfig, class_means, mmd_squared
from .model import (
    SpanLogits, SpanModel, TokenizationError, map_chunks, predict_span, tokenize_sample,
    tokenize_samples,
)
from .datagen import DomainDataset
from .workers import Partner

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


def _span_scores(model: SpanModel, packed) -> np.ndarray:
    with T.no_grad():
        return model.span_logits(model.encode(packed)).scores.data


def _answer_means(model: SpanModel, packed) -> np.ndarray:
    """A chunk's [B x H] answer means: the last layer is computed at the
    answer rows only, and each sample's rows are averaged."""
    starts = packed.offsets[:-1] + [ts.answer_span[0] for ts in packed.samples]
    lengths = np.array([ts.answer_span[1] - ts.answer_span[0] + 1 for ts in packed.samples])
    rows = np.concatenate([np.arange(lo, lo + n) for lo, n in zip(starts, lengths)])
    with T.no_grad():
        answers = model.encode(packed, rows=rows).data
    return np.add.reduceat(answers, np.cumsum(lengths) - lengths) / lengths[:, None]


def _token_features(model: SpanModel, packed) -> np.ndarray:
    with T.no_grad():
        return model.encode(packed).data


def predict_answers(model: SpanModel, pairs: Sequence[tuple], max_answer_len: int) -> list[str]:
    """The model's best span of each ``(sample, TokenizedSample)`` pair (as
    ``tokenize_samples`` returns them), decoded back into the sample's context
    text, in order."""
    contexts = iter([sample.context for sample, _ in pairs])
    answers = []
    for packed, scores in map_chunks(model, [ts for _, ts in pairs], _span_scores):
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


def score_samples(model: SpanModel, samples: Sequence, max_answer_len: int) -> list[SampleScore]:
    """Each sample's greedy span prediction scored against its single gold,
    one question at a time, in order. An untokenizable sample scores (0, 0)
    with the reason as its note; nothing is logged here."""
    records = []
    for sample in samples:
        try:
            prediction = predict_answer(model, sample, max_answer_len)
        except TokenizationError as err:
            records.append(SampleScore(sample.sample_id, "", sample.answer_text, 0, 0.0, note=str(err)))
            continue
        em, f1 = em_f1(prediction, sample.answer_text)
        records.append(SampleScore(sample.sample_id, prediction, sample.answer_text, em, f1))
    return records


def evaluate(model: SpanModel, dataset: DomainDataset, max_answer_len: int = 48,
             partner: Partner | None = None) -> EvalResult:
    """Mean EM and F1 (x100) of greedy span predictions against single golds.
    Untokenizable samples count as (0, 0), with the reason recorded and
    logged here, in sample order. A ``workers.Partner`` whose ``serve``
    answers ``("score", samples, max_answer_len)`` with ``score_samples``
    over the same parameters scores the second half of the samples while
    this process scores the first; the records are those of scoring all of
    them here. Only ``training.train`` passes one."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    samples = dataset.samples
    cut = len(samples)
    if partner is not None:
        cut = (cut + 1) // 2
        partner.send(("score", samples[cut:], max_answer_len))
    records = score_samples(model, samples[:cut], max_answer_len)
    if partner is not None:
        records += partner.recv()
    for r in records:
        if r.note:
            log.warning("evaluate: %s scored (0, 0): %s", r.sample_id, r.note)
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
    chunks (``map_chunks``), with the last layer computed at the answer rows
    alone (``_answer_means``); a row matches the sample encoded alone up to
    round-off."""
    tokenized = [ts for _, ts in tokenize_samples(dataset.samples, dataset.domain_tag,
                                                  model.config.max_len)]
    if not tokenized:
        raise ValueError("no tokenizable samples to extract features from")
    return np.concatenate([means for _, means in map_chunks(model, tokenized, _answer_means)])


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
    explained_variance_ratio: tuple[float, float]


def pca_project(features: np.ndarray) -> ProjectedPoints:
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
    components = vt[:2].copy()  # at least 2 x 2 input: vt has at least 2 rows
    for row in components:
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    ratios = (float(s[0] ** 2 / total), float(s[1] ** 2 / total))
    return ProjectedPoints(coords=centered @ components.T, explained_variance_ratio=ratios)


def token_feature_cloud(model: SpanModel, dataset: DomainDataset, max_samples: int = 8):
    """Per-token features and class labels (answer/question/other; specials are
    'other') for a handful of samples, ready for projection dumps."""
    tokenized = [ts for _, ts in tokenize_samples(dataset.samples[:max_samples],
                                                  dataset.domain_tag, model.config.max_len)]
    if not tokenized:
        raise ValueError("no tokenizable samples for the feature cloud")
    feats = np.concatenate([f for _, f in map_chunks(model, tokenized, _token_features)])
    answer = np.concatenate([ts.answer_mask for ts in tokenized])
    question = np.concatenate([ts.question_mask for ts in tokenized])
    labels = ["answer" if a else "question" if q else "other" for a, q in zip(answer, question)]
    ids = [ts.sample_id for ts in tokenized for _ in range(len(ts))]
    return feats, labels, ids
