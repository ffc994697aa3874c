"""Packed forward-only inference (``model.map_chunks``, and the decoder
``evaluation.predict_answers`` built on it) against a per-sample reference
that encodes each sample alone.

Set sizes are drawn across the chunk boundary (1, chunk - 1, chunk, chunk + 1
and 2 * chunk + 3 samples), with untokenizable samples mixed in. The
per-sample reference of every pool sample is computed once; each drawn set
is a selection from the pool, so its expected output is a selection too.
"""

import logging
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadapt import tensor as T
from qadapt.datagen import (
    DomainDataset, DomainShiftSpec, GenCandidate, RawQASample, make_synthetic_domains,
    roundtrip_filter,
)
from qadapt.evaluation import (
    answer_mean_features, normalize_answer, predict_answer, predict_answers,
)
from qadapt.losses import class_means
from qadapt.model import (
    INFER_CHUNK, EncoderConfig, PackedBatch, SpanModel, TARGET_SYNTHETIC, TokenizationError,
    predict_span, tokenize_sample, tokenize_samples,
)

SIZES = (1, INFER_CHUNK - 1, INFER_CHUNK, INFER_CHUNK + 1, 2 * INFER_CHUNK + 3)
POOL = max(SIZES) + 5
MAX_ANSWER_LEN = 16
CONFIG = EncoderConfig(hidden_dim=16, num_layers=1, num_heads=2, ff_dim=32, max_len=96, seed=5)
LONG_CONTEXT = " ".join(["word"] * 40)  # 199 bytes: over max_len, so untokenizable


@pytest.fixture(scope="module")
def model():
    return SpanModel(CONFIG)


@pytest.fixture(scope="module")
def source():
    spec = DomainShiftSpec(n_source=POOL, n_target_contexts=1, context_words=(6, 9))
    samples, _, _ = make_synthetic_domains(spec, seed=4)
    return samples.samples


def alone(model, question, context, answer_start, answer_text):
    """Tokenize and encode one sample by itself."""
    ts = tokenize_sample(question, context, answer_start, answer_text, TARGET_SYNTHETIC,
                         max_len=CONFIG.max_len)
    packed = PackedBatch.pack([ts])
    with T.no_grad():
        features = model.encode(packed)
        logits = model.span_logits(features)
    return ts, packed, features, logits


@contextmanager
def model_warnings():
    """Messages of the warnings ``qadapt.model`` logs inside the block."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("qadapt.model")
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


def draw_selection(data) -> tuple[list[int], list[int]]:
    """Pool indices of a set of a drawn size, and the positions (in the final
    list, ascending) at which untokenizable samples are inserted."""
    n = data.draw(st.sampled_from(SIZES), label="tokenizable")
    order = data.draw(st.permutations(range(POOL)), label="order")[:n]
    bad = data.draw(st.lists(st.integers(0, n), max_size=3), label="untokenizable at")
    return order, sorted(p + i for i, p in enumerate(sorted(bad)))


def mix(good: list, bad_positions: list[int], make_bad) -> list:
    out = list(good)
    for p in bad_positions:
        out.insert(p, make_bad(p))
    return out


class TestAnswerMeanFeatures:
    @pytest.fixture(scope="class")
    def reference(self, model, source):
        rows = []
        for s in source:
            _, packed, features, _ = alone(model, s.question, s.context, s.answer_start,
                                           s.answer_text)
            rows.append(class_means(features, packed).answer_mean[0])
        return np.stack(rows)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_rows_match_samples_encoded_alone(self, model, source, reference, data):
        order, bad_positions = draw_selection(data)
        samples = mix([source[i] for i in order], bad_positions,
                      lambda p: RawQASample("q?", LONG_CONTEXT, "word", 0, f"bad{p}"))
        with model_warnings() as warnings:
            got = answer_mean_features(model, DomainDataset(samples, "source", "human"))
        want = reference[order]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        messages = [r.getMessage() for r in warnings]
        if bad_positions:
            assert messages == [f"source: skipped {len(bad_positions)} untokenizable sample(s)"]
        else:
            assert messages == []


class TestRoundtripFilter:
    @pytest.fixture(scope="class")
    def pool(self, model, source):
        """One candidate per source sample, each with a distinct context id.
        Every other candidate takes the model's own prediction as its answer,
        so it is kept; the rest keep their gold answer, which the untrained
        model mostly misses. ``keep`` is the reference decision of each
        candidate encoded alone."""
        candidates, keep = [], []
        for i, s in enumerate(source):
            ts, _, _, logits = alone(model, s.question, s.context, s.answer_start, s.answer_text)
            span = predict_span(logits, ts.context_mask, MAX_ANSWER_LEN)
            answer, start = s.answer_text, s.answer_start
            if i % 2 == 0:  # contexts are ASCII: token offsets are character offsets
                answer = ts.span_text(s.context, span)
                start = span[0] - ts.context_token_start
            cand = GenCandidate(f"c{i}", s.context, s.question, answer, start, (0.5,), 0.5)
            ts, _, _, logits = alone(model, cand.question, cand.context, cand.answer_start,
                                     cand.answer_text)
            predicted = ts.span_text(cand.context,
                                     predict_span(logits, ts.context_mask, MAX_ANSWER_LEN))
            candidates.append(cand)
            keep.append(normalize_answer(predicted) == normalize_answer(cand.answer_text))
        assert 0 < sum(keep) < len(keep)
        return candidates, keep

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_kept_list_matches_candidates_encoded_alone(self, model, pool, data):
        candidates, keep = pool
        order, bad_positions = draw_selection(data)
        mixed = mix([candidates[i] for i in order], bad_positions,
                    lambda p: GenCandidate(f"bad{p}", LONG_CONTEXT, "q?", "word", 0, (0.5,), 0.5))
        assert roundtrip_filter(mixed, model, MAX_ANSWER_LEN) == [
            candidates[i] for i in order if keep[i]]


class TestPredictAnswers:
    @pytest.fixture(scope="class")
    def reference(self, model, source):
        """``predict_answer`` of each pool sample, which decodes it alone."""
        return [predict_answer(model, s, MAX_ANSWER_LEN) for s in source]

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_answers_match_predict_answer_alone(self, model, source, reference, data):
        order, bad_positions = draw_selection(data)
        samples = mix([source[i] for i in order], bad_positions,
                      lambda p: RawQASample("q?", LONG_CONTEXT, "word", 0, f"bad{p}"))
        pairs = tokenize_samples(samples, "source", CONFIG.max_len)
        assert [s for s, _ in pairs] == [source[i] for i in order]
        assert predict_answers(model, pairs, MAX_ANSWER_LEN) == [reference[i] for i in order]

    def test_untokenizable_sample_raises_alone(self, model):
        with pytest.raises(TokenizationError):
            predict_answer(model, RawQASample("q?", LONG_CONTEXT, "word", 0, "bad"),
                           MAX_ANSWER_LEN)
