"""Synthetic QA data: toy n-gram generator, cloze candidate proposals,
likelihood and roundtrip filtering, shifted two-domain corpus construction,
and SQuAD-format file IO.

The bundled generator is intentionally simple: it samples answer spans from a
context, turns them into cloze questions (span replaced by a placeholder), and
scores the answer tokens with an add-one-smoothed n-gram table fitted on the
raw contexts. Any external generator can be substituted by writing candidate
records or a SQuAD-format dataset file.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .model import (
    COUNT, SOURCE, TARGET_SYNTHETIC, ConfigError, SpanModel, check_fields, integer, items, real,
    tokenize_samples,
)
# unused; perfbench/tracing.py patches both names here
from .model import predict_span, tokenize_sample  # noqa: F401

log = logging.getLogger(__name__)

PLACEHOLDER = "___"
START_SYMBOL = "<s>"
UNK_SYMBOL = "<unk>"

CANDIDATE_POOL_FACTOR = 4  # proposals per context ahead of top-k filtering


class DatasetError(ValueError):
    """Dataset file is structurally malformed."""


@dataclass(frozen=True)
class RawQASample:
    question: str
    context: str
    answer_text: str
    answer_start: int
    sample_id: str = ""

    def __post_init__(self):
        got = self.context[self.answer_start:self.answer_start + len(self.answer_text)]
        if got != self.answer_text or not self.answer_text or self.answer_start < 0:
            raise ValueError(
                f"answer {self.answer_text!r} not at offset {self.answer_start} of context"
            )


@dataclass(frozen=True)
class ContextOnly:
    context: str
    domain_id: str = ""

    def __post_init__(self):
        if not self.context.strip():
            raise ValueError("empty context")


@dataclass(frozen=True)
class GenCandidate:
    context_id: str
    context: str
    question: str
    answer_text: str
    answer_start: int
    token_probs: tuple[float, ...]
    lm_score: float

    def __post_init__(self):
        prod = math.prod(self.token_probs)
        if abs(prod - self.lm_score) > 1e-12:
            raise ValueError("lm_score does not equal the product of token probabilities")
        if not 0.0 < self.lm_score <= 1.0:
            raise ValueError(f"lm_score {self.lm_score} outside (0, 1]")
        if self.context[self.answer_start:self.answer_start + len(self.answer_text)] != self.answer_text:
            raise ValueError("candidate answer is not a substring at the recorded offset")


@dataclass
class DomainDataset:
    samples: list[RawQASample]
    domain_tag: str  # "source" | "target_synthetic"
    rejected: int = 0

    def __len__(self) -> int:
        return len(self.samples)


# -- toy likelihood model -----------------------------------------------------

_WORD = re.compile(r"\S+")


def _words_with_offsets(text: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start()) for m in _WORD.finditer(text)]


@dataclass
class ToyGenerator:
    """Add-one-smoothed n-gram tables over whitespace tokens."""

    order: str  # "unigram" | "bigram"
    vocab: set[str]
    unigram_counts: Counter
    total_tokens: int
    bigram_counts: dict[str, Counter]
    context_totals: Counter
    seed: int

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def _key(self, word: str) -> str:
        return word if word in self.vocab else UNK_SYMBOL

    def unigram_prob(self, word: str) -> float:
        return (self.unigram_counts[self._key(word)] + 1) / (self.total_tokens + self.vocab_size)

    def bigram_prob(self, word: str, prev: str | None) -> float:
        prev_key = START_SYMBOL if prev is None else self._key(prev)
        counts = self.bigram_counts.get(prev_key, Counter())
        return (counts[self._key(word)] + 1) / (self.context_totals[prev_key] + self.vocab_size)

    def token_probs(self, words: Sequence[str], prev: str | None) -> tuple[float, ...]:
        if self.order == "unigram":
            return tuple(self.unigram_prob(w) for w in words)
        probs = []
        for w in words:
            probs.append(self.bigram_prob(w, prev))
            prev = w
        return tuple(probs)


def fit_toy_generator(corpus: Sequence[ContextOnly], order: str = "bigram", seed: int = 0) -> ToyGenerator:
    """Count-based maximum-likelihood fit with add-one smoothing; the <unk>
    symbol is part of the vocabulary so unseen words keep positive mass."""
    if order not in ("unigram", "bigram"):
        raise ValueError(f"unknown model order {order!r}")
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    unigrams: Counter = Counter()
    bigrams: dict[str, Counter] = {}
    context_totals: Counter = Counter()
    total = 0
    for ctx in corpus:
        words = [w for w, _ in _words_with_offsets(ctx.context)]
        prev = START_SYMBOL
        for w in words:
            unigrams[w] += 1
            total += 1
            bigrams.setdefault(prev, Counter())[w] += 1
            context_totals[prev] += 1
            prev = w
    vocab = set(unigrams) | {UNK_SYMBOL}
    return ToyGenerator(
        order=order,
        vocab=vocab,
        unigram_counts=unigrams,
        total_tokens=total,
        bigram_counts=bigrams,
        context_totals=context_totals,
        seed=seed,
    )


# -- candidate generation and filtering ----------------------------------------

def _cloze_question(words: list[str], start: int, length: int, window: int) -> str:
    before = words[max(0, start - window):start]
    after = words[start + length:start + length + window]
    return " ".join(before + [PLACEHOLDER] + after)


def generate_candidates(
    gen: ToyGenerator,
    ctx: ContextOnly,
    n: int,
    seed: int,
    max_answer_words: int = 6,
    question_window: int = 3,
) -> list[GenCandidate]:
    """Propose up to n distinct answer spans with cloze questions, scored by
    the product of the toy model's per-token probabilities."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pairs = _words_with_offsets(ctx.context)
    if not pairs:
        raise ValueError("context shorter than the minimum one-word span")
    words = [w for w, _ in pairs]
    n_words = len(words)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    seen: set[tuple[int, int]] = set()
    spans: list[tuple[int, int]] = []
    for _ in range(20 * n):
        if len(spans) == n:
            break
        start = int(rng.integers(0, n_words))
        length = 1 + int(rng.integers(0, min(max_answer_words, n_words - start)))
        if (start, length) not in seen:
            seen.add((start, length))
            spans.append((start, length))

    candidates = []
    for start, length in spans:
        char_start = pairs[start][1]
        last_word, last_off = pairs[start + length - 1]
        answer_text = ctx.context[char_start:last_off + len(last_word)]
        probs = gen.token_probs(words[start:start + length], words[start - 1] if start > 0 else None)
        candidates.append(
            GenCandidate(
                context_id=ctx.domain_id,
                context=ctx.context,
                question=_cloze_question(words, start, length, question_window),
                answer_text=answer_text,
                answer_start=char_start,
                token_probs=probs,
                lm_score=math.prod(probs),
            )
        )
    return candidates


def lm_filter(candidates: Sequence[GenCandidate], k: int) -> list[GenCandidate]:
    """Top-k candidates by likelihood score; stable, so ties keep input order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sorted(candidates, key=lambda c: -c.lm_score)[:k]


def roundtrip_filter(
    candidates: Sequence[GenCandidate],
    qa_model: SpanModel,
    max_answer_len: int = 48,
) -> list[GenCandidate]:
    """Keep candidates whose predicted answer, normalized, equals the generated
    answer; the answers come from ``evaluation.predict_answers``, as in
    ``eval``. Candidates the model cannot tokenize are dropped, not fatal."""
    from .evaluation import normalize_answer, predict_answers  # local import to avoid a cycle

    pairs = tokenize_samples(candidates, TARGET_SYNTHETIC, qa_model.config.max_len)
    predicted = predict_answers(qa_model, pairs, max_answer_len)
    return [cand for (cand, _), answer in zip(pairs, predicted)
            if normalize_answer(answer) == normalize_answer(cand.answer_text)]


def candidates_to_dataset(candidates: Sequence[GenCandidate], domain_tag: str = TARGET_SYNTHETIC) -> DomainDataset:
    samples = [
        RawQASample(
            question=c.question,
            context=c.context,
            answer_text=c.answer_text,
            answer_start=c.answer_start,
            sample_id=f"{c.context_id}-q{i}",
        )
        for i, c in enumerate(candidates)
    ]
    return DomainDataset(samples=samples, domain_tag=domain_tag)


# -- shifted two-domain corpus --------------------------------------------------

@dataclass(frozen=True)
class DomainShiftSpec:
    """Controls for the artificial source/target split: a shared word list with
    per-domain mixture weights and per-domain answer-length distributions."""

    vocab_words: int = 30
    n_source: int = 150
    n_target_contexts: int = 60
    qa_per_target_context: int = 2
    context_words: tuple[int, int] = (8, 12)
    source_answer_mean: float = 1.89
    target_answer_mean: float = 4.43
    vocab_shift: float = 1.0  # 0 = identical token frequency profiles
    question_window: int = 3

    def __post_init__(self):
        check_fields(self, vocab_words=integer(2), n_source=COUNT, n_target_contexts=COUNT,
                     qa_per_target_context=COUNT, context_words=items(COUNT, length=2),
                     source_answer_mean=real(1), target_answer_mean=real(1),
                     vocab_shift=real(0, 1, high_open=False), question_window=integer(0))
        if self.context_words[0] > self.context_words[1]:
            raise ConfigError(f"context_words: the low end exceeds the high end, "
                              f"got {self.context_words!r}")


_SYLLABLES = ("ba", "re", "mi", "to", "lu", "ka", "si", "no", "ve", "du",
              "po", "za", "fe", "gu", "hi", "wo", "ny", "che", "dra", "pli")


def _word_list(count: int) -> list[str]:
    words = []
    i = 0
    while len(words) < count:
        a = _SYLLABLES[i % len(_SYLLABLES)]
        b = _SYLLABLES[(i // len(_SYLLABLES) + 3 * i) % len(_SYLLABLES)]
        w = a + b
        if w not in words:
            words.append(w)
        i += 1
    return words


def _domain_weights(count: int, shift: float) -> tuple[np.ndarray, np.ndarray]:
    base = 1.0 / (1.0 + np.arange(count))
    source = base / base.sum()
    reversed_ = source[::-1]
    target = (1.0 - shift) * source + shift * reversed_
    target = target / target.sum()
    if np.any(source <= 0) or np.any(target <= 0):
        raise ValueError("degenerate vocabulary weights")
    return source, target


def _context(rng, words_list, weights, spec) -> list[str]:
    """The words of one context: a length drawn from the spec's range, then
    that many words under the domain's weights."""
    lo, hi = spec.context_words
    return list(rng.choice(words_list, size=int(rng.integers(lo, hi + 1)), p=weights))


def _draw_qa(rng, words, spec, answer_mean, sample_id) -> RawQASample:
    """One QA pair on the context ``words``: an answer length (one plus a
    Poisson draw, at most the context) and start, and the cloze question
    around the answer."""
    length = min(1 + int(rng.poisson(answer_mean - 1.0)), len(words))
    start = int(rng.integers(0, len(words) - length + 1))
    return RawQASample(
        question=_cloze_question(words, start, length, spec.question_window),
        context=" ".join(words),
        answer_text=" ".join(words[start:start + length]),
        answer_start=sum(len(w) + 1 for w in words[:start]),
        sample_id=sample_id,
    )


def make_synthetic_domains(
    spec: DomainShiftSpec, seed: int = 0
) -> tuple[DomainDataset, list[ContextOnly], DomainDataset]:
    """Build a labeled source corpus, an unlabeled target context corpus, and
    the hidden target gold labels (for evaluation only, never for training)."""
    words_list = np.array(_word_list(spec.vocab_words))
    w_source, w_target = _domain_weights(spec.vocab_words, spec.vocab_shift)

    rng_s = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    source_samples = [
        _draw_qa(rng_s, _context(rng_s, words_list, w_source, spec), spec,
                 spec.source_answer_mean, f"src-{i:04d}")
        for i in range(spec.n_source)
    ]
    source = DomainDataset(samples=source_samples, domain_tag=SOURCE)

    rng_t = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    contexts: list[ContextOnly] = []
    gold: list[RawQASample] = []
    for i in range(spec.n_target_contexts):
        words = _context(rng_t, words_list, w_target, spec)
        contexts.append(ContextOnly(context=" ".join(words), domain_id=f"tgt-{i:04d}"))
        gold.extend(_draw_qa(rng_t, words, spec, spec.target_answer_mean, f"tgt-{i:04d}-{j}")
                    for j in range(spec.qa_per_target_context))
    target_gold = DomainDataset(samples=gold, domain_tag=TARGET_SYNTHETIC)
    return source, contexts, target_gold


# -- SQuAD-format IO -------------------------------------------------------------

def load_squad_json(path, domain_tag: str = SOURCE) -> DomainDataset:
    """Read a SQuAD v1.1 layout file. Bytes that are not UTF-8 JSON, and
    missing or wrong-typed fields, raise DatasetError with a path into the
    document; answer/offset mismatches reject the sample and are counted on
    the returned dataset."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as err:
        raise DatasetError(f"{path}: invalid UTF-8 JSON: {err}") from err

    def need(obj, key, where, kind=list):
        if not isinstance(obj, dict) or key not in obj:
            raise DatasetError(f"{path}: missing {key!r} at {where}")
        value = obj[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise DatasetError(f"{path}: {key!r} at {where} must be {kind.__name__}, "
                               f"not {type(value).__name__}")
        return value

    samples: list[RawQASample] = []
    rejected = 0
    for di, article in enumerate(need(doc, "data", "$")):
        for pi, para in enumerate(need(article, "paragraphs", f"data[{di}]")):
            where = f"data[{di}].paragraphs[{pi}]"
            context = need(para, "context", where, str)
            for qi, qa in enumerate(need(para, "qas", where)):
                qwhere = f"{where}.qas[{qi}]"
                question = need(qa, "question", qwhere, str)
                answers = need(qa, "answers", qwhere)
                if not answers:
                    raise DatasetError(f"{path}: empty answers at {qwhere}")
                text = need(answers[0], "text", f"{qwhere}.answers[0]", str)
                start = need(answers[0], "answer_start", f"{qwhere}.answers[0]", int)
                try:
                    samples.append(
                        RawQASample(
                            question=question,
                            context=context,
                            answer_text=text,
                            answer_start=start,
                            sample_id=str(qa.get("id", f"{di}-{pi}-{qi}")),
                        )
                    )
                except ValueError:
                    rejected += 1
    if rejected:
        log.warning("%s: rejected %d sample(s) with answer/offset mismatches", path, rejected)
    return DomainDataset(samples=samples, domain_tag=domain_tag, rejected=rejected)


def write_dataset(path, dataset: DomainDataset, title: str = "synthetic") -> None:
    """Write SQuAD v1.1 layout; samples sharing a context are grouped into one
    paragraph in first-occurrence order."""
    paragraphs: dict[str, list[RawQASample]] = {}
    for s in dataset.samples:
        paragraphs.setdefault(s.context, []).append(s)
    doc = {
        "version": "1.1",
        "data": [
            {
                "title": title,
                "paragraphs": [
                    {
                        "context": context,
                        "qas": [
                            {
                                "question": s.question,
                                "id": s.sample_id,
                                "answers": [
                                    {"text": s.answer_text, "answer_start": s.answer_start}
                                ],
                            }
                            for s in group
                        ],
                    }
                    for context, group in paragraphs.items()
                ],
            }
        ],
    }
    Path(path).write_text(json.dumps(doc, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")


def write_contexts(path, contexts: Iterable[ContextOnly]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ctx in contexts:
            fh.write(json.dumps({"id": ctx.domain_id, "context": ctx.context}, ensure_ascii=False) + "\n")


def load_contexts(path) -> list[ContextOnly]:
    """Read one ``{"context": ..., "id": ...}`` record per line. Bytes that are
    not UTF-8 and malformed records raise DatasetError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise DatasetError(f"{path}: not UTF-8: {err}") from err
    contexts = []
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict) or not isinstance(rec.get("context"), str):
                raise TypeError("expected an object with a string 'context'")
            contexts.append(ContextOnly(context=rec["context"], domain_id=str(rec.get("id", lineno))))
        except (TypeError, ValueError, RecursionError) as err:
            raise DatasetError(f"{path}:{lineno + 1}: bad context record: {err}") from err
    return contexts


def write_candidates(path, candidates: Iterable[GenCandidate]) -> None:
    """One JSON record per line: context id, question, answer, offset,
    per-token probabilities, likelihood score."""
    with open(path, "w", encoding="utf-8") as fh:
        for c in candidates:
            fh.write(json.dumps({
                "context_id": c.context_id,
                "question": c.question,
                "answer": c.answer_text,
                "answer_start": c.answer_start,
                "token_probs": list(c.token_probs),
                "lm_score": c.lm_score,
            }, ensure_ascii=False) + "\n")


def derive_seed(*entropy: int) -> int:
    """Stable child seed from a tuple of integers."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])
