import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadapt import tensor as T
from qadapt.model import (
    EncoderConfig,
    PackedBatch,
    SpanLogits,
    SpanModel,
    TokenizationError,
    CheckpointError,
    embedding_noise,
    predict_span,
    tokenize_sample,
    tokenize_samples,
)
from qadapt.datagen import GenCandidate, RawQASample
from qadapt.losses import span_cross_entropy
from conftest import make_sample


class TestTokenizer:
    def test_layout_and_masks(self):
        ts = tokenize_sample("ab", "xyzw", 1, "yz", "source", max_len=32)
        # [START] a b [SEP] x y z w [SEP]
        assert len(ts) == 9
        assert ts.token_ids[0] == 256 and ts.token_ids[3] == 257 and ts.token_ids[-1] == 257
        assert list(np.flatnonzero(ts.question_mask)) == [1, 2]
        assert list(np.flatnonzero(ts.context_mask)) == [4, 5, 6, 7]
        assert ts.answer_span == (5, 6)
        assert bytes(ts.token_ids[5:7].astype(np.uint8)) == b"yz"

    def test_answer_offset_mismatch_rejected(self):
        with pytest.raises(TokenizationError, match="not found"):
            tokenize_sample("q", "abcdef", 0, "cde", "source")

    def test_negative_answer_start_rejected(self):
        # "ab cd"[-5:-3] == "ab", so only the sign check rejects it
        with pytest.raises(TokenizationError, match="not found"):
            tokenize_sample("q", "ab cd", -5, "ab", "source")

    @pytest.mark.parametrize("question,context", [("q", "ab \ud800"), ("q\udfff", "ab cd")])
    def test_lone_surrogate_is_a_tokenization_error(self, question, context):
        with pytest.raises(TokenizationError, match="UTF-8"):
            tokenize_sample(question, context, 0, "ab", "source")

    def test_too_long_rejected(self):
        with pytest.raises(TokenizationError, match="max length"):
            tokenize_sample("q" * 10, "c" * 10, 0, "c", "source", max_len=16)

    def test_multibyte_context_offsets(self):
        ctx = "café au lait"
        ts = tokenize_sample("q", ctx, 5, "au", "source", max_len=64)
        ctx_start = ts.context_token_start
        s, e = ts.answer_span
        assert bytes(ts.token_ids[s:e + 1].astype(np.uint8)).decode() == "au"
        assert s - ctx_start == len(ctx[:5].encode())

    def test_invariant_masks_disjoint_and_cover(self):
        ts = make_sample(seed=3)
        special = np.zeros(len(ts), dtype=bool)
        special[[0, ts.question_len + 1, len(ts) - 1]] = True  # start marker, separators
        assert not np.any(ts.question_mask & ts.context_mask)
        assert np.array_equal(ts.question_mask | ts.context_mask, ~special)

    def test_unknown_domain_tag_rejected(self):
        with pytest.raises(ValueError, match="domain_tag"):
            tokenize_sample("q", "ab", 0, "ab", "target")


class TestTokenizeSamples:
    SAMPLES = [
        RawQASample("who ___", "ab cd ef", "cd", 3, "s0"),
        RawQASample("q" * 40, "ab cd ef", "ef", 6, "too-long"),
        RawQASample("what ___", "café au lait", "au", 5, "s2"),
        RawQASample("where", "x" * 40, "x", 0, "too-long-2"),
        RawQASample("which", "gh ij", "gh", 0, "s4"),
    ]

    def test_order_tag_and_id_pass_through(self):
        pairs = tokenize_samples(self.SAMPLES, "target_synthetic", max_len=32)
        assert [s.sample_id for s, _ in pairs] == ["s0", "s2", "s4"]
        for s, ts in pairs:
            assert ts.domain_tag == "target_synthetic" and ts.sample_id == s.sample_id
            ref = tokenize_sample(s.question, s.context, s.answer_start, s.answer_text,
                                  "target_synthetic", max_len=32, sample_id=s.sample_id)
            assert np.array_equal(ts.token_ids, ref.token_ids)
            assert ts.answer_span == ref.answer_span

    def test_accepts_generator_candidates(self):
        cand = GenCandidate(context_id="c", context="ab cd", question="___ cd",
                            answer_text="ab", answer_start=0, token_probs=(0.5,), lm_score=0.5)
        [(got, ts)] = tokenize_samples([cand], "target_synthetic", max_len=32)
        assert got is cand and ts.sample_id == ""
        assert ts.span_text(cand.context, ts.answer_span) == "ab"

    def test_skips_with_one_counting_warning(self, caplog):
        with caplog.at_level("WARNING", logger="qadapt.model"):
            pairs = tokenize_samples(self.SAMPLES, "source", max_len=32)
        assert len(pairs) == 3
        warnings = [r for r in caplog.records if r.name == "qadapt.model"]
        assert len(warnings) == 1 and "skipped 2 " in warnings[0].getMessage()
        caplog.clear()
        surrogate = RawQASample("q", "ab \ud800", "ab", 0, "lone-surrogate")
        with caplog.at_level("WARNING", logger="qadapt.model"):
            pairs = tokenize_samples([surrogate, *self.SAMPLES], "source", max_len=32)
        assert [s.sample_id for s, _ in pairs] == ["s0", "s2", "s4"]
        assert "skipped 3 " in caplog.records[0].getMessage()
        caplog.clear()
        with caplog.at_level("WARNING", logger="qadapt.model"):
            tokenize_samples(self.SAMPLES[:1], "source", max_len=32)
        assert not caplog.records

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_span_text_returns_the_gold_answer(self, data):
        """Also the layout invariants: the question and context masks are
        disjoint and cover every position but the three specials, the answer
        lies inside the context, and the context starts where its bytes do."""
        text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=24)
        question = data.draw(st.sampled_from(["", "qü?"]) | text, label="question")
        context = data.draw(text.filter(bool), label="context")
        start = data.draw(st.integers(0, len(context) - 1))
        answer = context[start:data.draw(st.integers(start + 1, len(context)))]
        ts = tokenize_sample(question, context, start, answer, "source", max_len=256)
        assert ts.span_text(context, ts.answer_span) == answer

        special = np.zeros(len(ts), dtype=bool)
        special[[0, ts.question_len + 1, len(ts) - 1]] = True  # start marker, separators
        q, c, a = ts.question_mask, ts.context_mask, ts.answer_mask
        assert not np.any(q & c) and not np.any((q | c) & special)
        assert np.array_equal(q | c, ~special)
        assert a.any() and np.all(c[a])
        c_bytes = context.encode("utf-8")
        assert ts.context_token_start == np.flatnonzero(c)[0]
        assert bytes(ts.token_ids[c].astype(np.uint8)) == c_bytes
        assert bytes(ts.token_ids[q].astype(np.uint8)) == question.encode("utf-8")


class TestEncode:
    def test_zero_noise_matches_noiseless(self, tiny_model):
        ts = make_sample(seed=1)
        a = tiny_model.encode(ts, noise_sigma=0.0).data
        b = tiny_model.encode(ts).data
        assert np.array_equal(a, b)

    def test_noise_deterministic_given_seed(self, tiny_model):
        ts = make_sample(seed=2)
        a = tiny_model.encode(ts, noise_sigma=0.01, noise_seed=5).data
        b = tiny_model.encode(ts, noise_sigma=0.01, noise_seed=5).data
        assert np.array_equal(a, b)
        c = tiny_model.encode(ts, noise_sigma=0.01, noise_seed=6).data
        assert not np.array_equal(a, c)

    def test_noise_empirical_mean(self):
        # Monte-Carlo oracle: |mean| < 3 sigma / sqrt(n) for n iid draws
        sigma, n = 0.05, 100_000
        draws = embedding_noise((n,), sigma, seed=123)
        assert abs(draws.mean()) < 3 * sigma / np.sqrt(n)
        assert abs(draws.std() - sigma) < 3 * sigma / np.sqrt(n)

    def test_sequence_too_long_rejected(self, tiny_model):
        ts = make_sample(seed=5, length=tiny_model.config.max_len + 4)
        with pytest.raises(TokenizationError):
            tiny_model.encode(ts)

    def test_permutation_sensitive(self, tiny_model):
        ts = make_sample(seed=6)
        base = tiny_model.encode(ts).data
        ids = ts.token_ids.copy()
        ctx = np.flatnonzero(ts.context_mask)
        i, j = ctx[0], ctx[-1]
        if ids[i] == ids[j]:
            ids[j] = (ids[j] + 1) % tiny_model.config.vocab_size
        ids[i], ids[j] = ids[j], ids[i]
        swapped = dataclasses.replace(ts, token_ids=ids)
        assert not np.allclose(tiny_model.encode(swapped).data, base)


class TestPackedEncode:
    def test_packed_rows_equal_per_sample_encodings(self, tiny_model):
        samples = [make_sample(seed=s, length=n) for s, n in ((40, 7), (41, 12), (42, 9))]
        packed = PackedBatch.pack(samples)
        seeds = [11, 12, 13]
        feats = tiny_model.encode(packed, noise_sigma=0.01, noise_seed=seeds).data
        assert feats.shape == (28, tiny_model.config.hidden_dim)
        for ts, seed, lo, hi in zip(samples, seeds, packed.offsets[:-1], packed.offsets[1:]):
            alone = tiny_model.encode(ts, noise_sigma=0.01, noise_seed=seed).data
            assert np.max(np.abs(feats[lo:hi] - alone)) < 1e-12

    def test_layout(self):
        samples = [make_sample(seed=43, length=6), make_sample(seed=44, length=8)]
        packed = PackedBatch.pack(samples)
        assert packed.offsets.tolist() == [0, 6, 14]
        assert packed.positions.tolist() == list(range(6)) + list(range(8))
        assert np.array_equal(packed.token_ids[6:], samples[1].token_ids)

    def test_one_noise_seed_per_segment_required(self, tiny_model):
        packed = PackedBatch.pack([make_sample(seed=45), make_sample(seed=46)])
        with pytest.raises(ValueError, match="noise seeds"):
            tiny_model.encode(packed, noise_sigma=0.01, noise_seed=[1])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            PackedBatch.pack([])


def span_scores(start, end) -> SpanLogits:
    """Constant span logits with the given start and end columns."""
    return SpanLogits(T.constant(np.stack([start, end], axis=1)))


def softmax(scores):
    e = np.exp(scores.data - scores.data.max())
    return e / e.sum()


class TestSpanHead:
    def test_zero_head_gives_uniform_distributions(self, tiny_config):
        model = SpanModel(tiny_config)
        model.params["span.w"] = T.Tensor(np.zeros((tiny_config.hidden_dim, 2)), requires_grad=True)
        model.params["span.b"] = T.Tensor(np.zeros(2), requires_grad=True)
        ts = make_sample(seed=7)
        logits = model.span_logits(model.encode(ts))
        probs = softmax(logits.start_scores)
        assert np.allclose(probs, 1.0 / len(ts), atol=1e-15)

    def test_distributions_sum_to_one(self, tiny_model):
        ts = make_sample(seed=8)
        logits = tiny_model.span_logits(tiny_model.encode(ts))
        for scores in (logits.start_scores, logits.end_scores):
            assert abs(softmax(scores).sum() - 1.0) < 1e-12

    def test_length_one_distribution_is_point_mass(self):
        logits = span_scores([2.0], [-1.0])
        assert softmax(logits.start_scores)[0] == 1.0
        assert predict_span(logits, np.array([True]), max_answer_len=4) == (0, 0)


class TestPredictSpan:
    def test_one_hot_argmax(self):
        start = np.full(10, -5.0)
        end = np.full(10, -5.0)
        start[3] = 5.0
        end[5] = 5.0
        logits = span_scores(start, end)
        mask = np.zeros(10, dtype=bool)
        mask[2:9] = True
        assert predict_span(logits, mask, max_answer_len=8) == (3, 5)

    def test_tie_break_first_context_position(self):
        logits = span_scores(np.zeros(8), np.zeros(8))
        mask = np.zeros(8, dtype=bool)
        mask[3:7] = True
        assert predict_span(logits, mask, max_answer_len=4) == (3, 3)

    def test_empty_context_rejected(self):
        logits = span_scores(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match="context"):
            predict_span(logits, np.zeros(4, dtype=bool), max_answer_len=2)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        L, max_len = 10, int(rng.integers(1, 6))
        start, end = rng.standard_normal(L), rng.standard_normal(L)
        mask = np.zeros(L, dtype=bool)
        mask[2:9] = True
        best, best_score = None, -np.inf
        for s in range(L):
            for e in range(L):
                if mask[s] and mask[e] and s <= e <= s + max_len - 1:
                    if start[s] + end[e] > best_score:
                        best_score = start[s] + end[e]
                        best = (s, e)
        got = predict_span(span_scores(start, end), mask, max_len)
        assert got == best

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_always_inside_context_with_bounded_length(self, seed, max_len):
        rng = np.random.default_rng(seed)
        L = 12
        mask = np.zeros(L, dtype=bool)
        mask[4:10] = True
        logits = span_scores(rng.standard_normal(L), rng.standard_normal(L))
        s, e = predict_span(logits, mask, max_len)
        assert mask[s] and mask[e]
        assert s <= e <= s + max_len - 1

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_reference_with_ties(self, seed, max_len):
        # small integer scores force ties; masks need not be contiguous
        rng = np.random.default_rng(seed)
        L = int(rng.integers(1, 14))
        mask = rng.random(L) < 0.6
        mask[int(rng.integers(0, L))] = True
        start, end = rng.integers(-2, 3, size=L).astype(float), rng.integers(-2, 3, size=L).astype(float)
        best, best_score = None, -np.inf
        for s in np.flatnonzero(mask):
            for e in range(s, min(s + max_len, L)):
                if mask[e] and start[s] + end[e] > best_score:
                    best_score, best = start[s] + end[e], (int(s), e)
        got = predict_span(span_scores(start, end), mask, max_len)
        assert got == best

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(42)
        start, end = rng.standard_normal(9), rng.standard_normal(9)
        mask = np.zeros(9, dtype=bool)
        mask[2:8] = True
        a = predict_span(span_scores(start, end), mask, 4)
        b = predict_span(span_scores(start + 13.5, end), mask, 4)
        assert a == b


class TestCheckpoint:
    def test_round_trip_identical_params(self, tiny_model, tmp_path):
        path = tmp_path / "model.ckpt"
        tiny_model.save(path)
        loaded = SpanModel.load(path)
        assert loaded.config == tiny_model.config
        for name, t in tiny_model.params.items():
            assert np.array_equal(loaded.params[name].data, t.data)

    def test_config_mismatch_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "model.ckpt"
        tiny_model.save(path)
        other = EncoderConfig(vocab_size=32, hidden_dim=16, num_layers=2, num_heads=2,
                              ff_dim=32, max_len=16, seed=7)
        with pytest.raises(CheckpointError, match="config"):
            SpanModel.load(path, expected_config=other)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="magic"):
            SpanModel.load(path)


    def test_truncated_file_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "model.ckpt"
        tiny_model.save(path)
        path.write_bytes(path.read_bytes()[:9])
        with pytest.raises(CheckpointError, match="truncated"):
            SpanModel.load(path)

    def test_non_finite_parameter_rejected(self, tiny_model, tmp_path):
        model = SpanModel(tiny_model.config)
        model.params["span.b"].data[0] = np.nan
        path = tmp_path / "nan.ckpt"
        model.save(path)
        with pytest.raises(CheckpointError, match="non-finite"):
            SpanModel.load(path)

    def test_unknown_config_key_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "model.ckpt"
        tiny_model.save(path)
        raw = path.read_bytes().replace(b'"seed"', b'"sEed"')
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="config header"):
            SpanModel.load(path)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    cfg = EncoderConfig(vocab_size=32, hidden_dim=8, num_layers=1, num_heads=2, ff_dim=8,
                        max_len=12, seed=4)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    SpanModel(cfg).save(path)
    return path, path.read_bytes()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_checkpoint_loads_or_raises_checkpoint_error(saved_checkpoint, data):
    """Random truncations and single-byte changes, weighted toward the header."""
    path, raw = saved_checkpoint
    anywhere = st.integers(min_value=0, max_value=len(raw) - 1)
    pos = data.draw(st.one_of(st.integers(min_value=0, max_value=200), anywhere))
    if data.draw(st.booleans()):
        damaged = raw[:pos]
    else:
        damaged = bytearray(raw)
        damaged[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
    target = path.with_name("damaged.ckpt")
    target.write_bytes(bytes(damaged))
    try:
        model = SpanModel.load(target)
    except CheckpointError:
        return
    assert set(model.params) == set(SpanModel.param_shapes(model.config))


def test_full_forward_backward_gradcheck():
    """Finite differences through encode + span head + cross-entropy."""
    cfg = EncoderConfig(vocab_size=16, hidden_dim=8, num_layers=1, num_heads=2,
                        ff_dim=16, max_len=12, seed=3)
    ts = PackedBatch.pack([make_sample(seed=11, length=10, vocab=16)])

    worst = 0.0
    for name in ("span.w", "layer0.attn.wq", "layer0.ff.w1", "tok_emb", "final_ln.gain"):
        model = SpanModel(cfg)
        base = model.params[name]

        def f(t, name=name, model=model):
            model.params[name] = t
            logits = model.span_logits(model.encode(ts))
            return span_cross_entropy(logits, ts)

        err = T.finite_difference_check(f, base, max_coords=24, seed=5)
        model.params[name] = base
        worst = max(worst, err)
    assert worst < 1e-4
