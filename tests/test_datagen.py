import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qadapt.datagen import (
    ContextOnly,
    DatasetError,
    DomainShiftSpec,
    DomainDataset,
    GenCandidate,
    RawQASample,
    candidates_to_dataset,
    fit_toy_generator,
    generate_candidates,
    lm_filter,
    load_contexts,
    load_squad_json,
    make_synthetic_domains,
    roundtrip_filter,
    write_candidates,
    write_contexts,
    write_dataset,
)
from qadapt.model import EncoderConfig, SpanModel


class TestToyGenerator:
    def test_unigram_add_one_counts(self):
        gen = fit_toy_generator([ContextOnly("a a a", "c0")], order="unigram")
        # types {a, <unk>} -> V = 2; P(a) = (3 + 1) / (3 + V)
        assert gen.vocab_size == 2
        assert gen.unigram_prob("a") == pytest.approx((3 + 1) / (3 + 2), abs=0)
        assert gen.unigram_prob("zzz") == pytest.approx(1 / (3 + 2), abs=0)

    def test_bigram_add_one_counts(self):
        gen = fit_toy_generator([ContextOnly("a b a b", "c0")], order="bigram")
        # count(a,b) = 2, count(a,.) = 2, V = |{a, b, <unk>}| = 3
        assert gen.vocab_size == 3
        assert gen.bigram_prob("b", "a") == pytest.approx((2 + 1) / (2 + 3), abs=0)
        assert gen.bigram_prob("a", "b") == pytest.approx((1 + 1) / (1 + 3), abs=0)

    def test_fit_deterministic(self):
        corpus = [ContextOnly("ba re mi to", "c0"), ContextOnly("re mi", "c1")]
        a = fit_toy_generator(corpus, order="bigram", seed=3)
        b = fit_toy_generator(corpus, order="bigram", seed=3)
        assert a.unigram_counts == b.unigram_counts
        assert a.bigram_counts == b.bigram_counts

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_toy_generator([], order="unigram")

    def test_probabilities_sum_to_one_over_vocab(self):
        gen = fit_toy_generator([ContextOnly("x y x z", "c0")], order="unigram")
        total = sum(gen.unigram_prob(w) for w in gen.vocab)
        assert abs(total - 1.0) < 1e-12


class TestGenerateCandidates:
    CORPUS = [ContextOnly("lu ka si no ve du po za", "c0")]

    def test_single_word_context_forced_span(self):
        gen = fit_toy_generator(self.CORPUS, order="unigram")
        cands = generate_candidates(gen, ContextOnly("hello", "c1"), n=1, seed=0)
        assert len(cands) == 1
        assert cands[0].answer_text == "hello"
        assert cands[0].answer_start == 0

    def test_deterministic_given_seed(self):
        gen = fit_toy_generator(self.CORPUS, order="bigram")
        ctx = self.CORPUS[0]
        a = generate_candidates(gen, ctx, n=6, seed=42)
        b = generate_candidates(gen, ctx, n=6, seed=42)
        assert a == b
        c = generate_candidates(gen, ctx, n=6, seed=43)
        assert a != c

    def test_lm_score_is_hand_product(self):
        gen = fit_toy_generator(self.CORPUS, order="bigram")
        for cand in generate_candidates(gen, self.CORPUS[0], n=8, seed=7):
            words = cand.answer_text.split()
            start_word = len(cand.context[:cand.answer_start].split())
            prev = cand.context.split()[start_word - 1] if start_word > 0 else None
            hand = 1.0
            for w in words:
                hand *= gen.bigram_prob(w, prev)
                prev = w
            assert abs(hand - cand.lm_score) < 1e-12

    def test_answer_is_verbatim_substring(self):
        gen = fit_toy_generator(self.CORPUS, order="unigram")
        for cand in generate_candidates(gen, self.CORPUS[0], n=10, seed=9):
            assert cand.context[cand.answer_start:cand.answer_start + len(cand.answer_text)] == cand.answer_text

    def test_cloze_question_has_placeholder(self):
        gen = fit_toy_generator(self.CORPUS, order="unigram")
        for cand in generate_candidates(gen, self.CORPUS[0], n=5, seed=11):
            assert "___" in cand.question
            assert cand.answer_text not in cand.question.replace("___", "")

    def test_empty_context_rejected(self):
        gen = fit_toy_generator(self.CORPUS, order="unigram")
        with pytest.raises(ValueError, match="empty context"):
            generate_candidates(gen, ContextOnly(" ", "c2"), n=1, seed=0)


def make_cands(scores, context="w0 w1 w2 w3 w4 w5 w6 w7 w8 w9"):
    out = []
    words = context.split()
    for i, score in enumerate(scores):
        i_word = i % len(words)
        start = sum(len(w) + 1 for w in words[:i_word])
        out.append(
            GenCandidate(
                context_id="c",
                context=context,
                question=f"q{i} ___",
                answer_text=words[i_word],
                answer_start=start,
                token_probs=(score,),
                lm_score=score,
            )
        )
    return out


class TestLmFilter:
    def test_product_comparison(self):
        cands = make_cands([0.5 * 0.5, 0.9])
        # rebuild the first with two token probs so the product is explicit
        cands[0] = GenCandidate(
            context_id="c", context=cands[0].context, question=cands[0].question,
            answer_text=cands[0].answer_text, answer_start=cands[0].answer_start,
            token_probs=(0.5, 0.5), lm_score=0.25,
        )
        assert lm_filter(cands, k=1) == [cands[1]]

    def test_k_saturation_returns_sorted(self):
        cands = make_cands([0.2, 0.8, 0.5])
        got = lm_filter(cands, k=10)
        assert [c.lm_score for c in got] == [0.8, 0.5, 0.2]

    def test_stable_ties(self):
        cands = make_cands([0.5, 0.5, 0.5])
        assert lm_filter(cands, k=2) == [cands[0], cands[1]]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            lm_filter(make_cands([0.5]), k=0)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_sort(self, seed, k):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(0.01, 1.0, size=rng.integers(1, 20)).round(3)
        cands = make_cands(list(scores))
        got = [c.lm_score for c in lm_filter(cands, k)]
        expected = sorted(scores, reverse=True)[:k]
        assert got == expected
        assert all(a >= b for a, b in zip(got, got[1:]))


@pytest.fixture(scope="module")
def model():
    cfg = EncoderConfig(vocab_size=258, hidden_dim=16, num_layers=1, num_heads=2,
                        ff_dim=32, max_len=96, seed=11)
    return SpanModel(cfg)


class TestRoundtripFilter:
    def test_subset_and_idempotent(self, model):
        gen = fit_toy_generator([ContextOnly("ba re mi to lu ka", "c0")], order="unigram")
        cands = generate_candidates(gen, ContextOnly("ba re mi to lu ka", "c0"), n=8, seed=3)
        kept = roundtrip_filter(cands, model, max_answer_len=24)
        assert all(c in cands for c in kept)
        assert roundtrip_filter(kept, model, max_answer_len=24) == kept

    def test_untokenizable_candidate_dropped_not_fatal(self, model):
        long_ctx = " ".join(["word"] * 60)
        good = make_cands([0.5], context="aa bb cc")[0]
        bad = GenCandidate(
            context_id="c", context=long_ctx, question="___", answer_text="word",
            answer_start=0, token_probs=(0.5,), lm_score=0.5,
        )
        kept = roundtrip_filter([bad, good], model, max_answer_len=8)
        assert bad not in kept

    def test_normalized_match_keeps_article_case_variants(self, model, monkeypatch):
        # force the model's prediction to a known span, then compare normalization;
        # the filter decodes through evaluation.predict_answers
        import qadapt.datagen as dg
        import qadapt.evaluation as ev
        ctx = "The Cat sat"
        cand = GenCandidate(
            context_id="c", context=ctx, question="who ___", answer_text="The Cat",
            answer_start=0, token_probs=(0.5, 0.5), lm_score=0.25,
        )
        monkeypatch.setattr(ev, "predict_span", lambda logits, mask, k: (13, 15))
        # tokens 13..15 decode from the context bytes; layout: [S]+question(7)+[SEP] -> ctx starts at 9
        # bytes 13-9=4..6 of "The Cat sat" = "Cat"; "cat" vs normalize("The Cat") = "cat" -> kept
        kept = dg.roundtrip_filter([cand], model, max_answer_len=8)
        assert kept == [cand]


class TestSyntheticDomains:
    def test_no_shift_identical_generators_tv(self):
        spec = DomainShiftSpec(
            vocab_words=30, n_source=1200, n_target_contexts=1200,
            qa_per_target_context=1, context_words=(8, 12),
            source_answer_mean=2.0, target_answer_mean=2.0, vocab_shift=0.0,
        )
        source, contexts, _ = make_synthetic_domains(spec, seed=5)

        def unigram(texts):
            from collections import Counter
            counts = Counter(w for t in texts for w in t.split())
            total = sum(counts.values())
            return counts, total

        sc, st_total = unigram([s.context for s in source.samples])
        tc, tt_total = unigram([c.context for c in contexts])
        assert st_total >= 10_000 and tt_total >= 10_000
        words = set(sc) | set(tc)
        tv = 0.5 * sum(abs(sc[w] / st_total - tc[w] / tt_total) for w in words)
        assert tv < 0.05

    def test_answer_length_means_match_targets(self):
        spec = DomainShiftSpec(
            vocab_words=30, n_source=1000, n_target_contexts=500,
            qa_per_target_context=2, context_words=(10, 14),
        )
        source, _, gold = make_synthetic_domains(spec, seed=6)
        src_mean = np.mean([len(s.answer_text.split()) for s in source.samples])
        tgt_mean = np.mean([len(s.answer_text.split()) for s in gold.samples])
        assert abs(src_mean - 1.89) / 1.89 < 0.10
        assert abs(tgt_mean - 4.43) / 4.43 < 0.10

    def test_deterministic(self):
        spec = DomainShiftSpec(n_source=20, n_target_contexts=10)
        a = make_synthetic_domains(spec, seed=7)
        b = make_synthetic_domains(spec, seed=7)
        assert a[0].samples == b[0].samples
        assert a[1] == b[1]
        assert a[2].samples == b[2].samples

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            DomainShiftSpec(vocab_words=1)
        with pytest.raises(ValueError):
            DomainShiftSpec(source_answer_mean=0.5)
        with pytest.raises(ValueError):
            DomainShiftSpec(context_words=(5, 3))

    def test_context_words_from_a_json_list_compare_and_hash_as_a_tuple(self):
        spec = DomainShiftSpec(context_words=json.loads("[8, 12]"))
        assert spec == DomainShiftSpec()
        assert hash(spec) == hash(DomainShiftSpec())
        assert spec.context_words == (8, 12)

    def test_gold_not_inside_context_corpus(self):
        spec = DomainShiftSpec(n_source=5, n_target_contexts=5)
        _, contexts, gold = make_synthetic_domains(spec, seed=8)
        assert len(contexts) == 5
        assert len(gold.samples) == 10
        # every gold sample's context exists in the context corpus
        pool = {c.context for c in contexts}
        assert all(g.context in pool for g in gold.samples)


class TestSquadIO:
    MINIMAL = {
        "version": "1.1",
        "data": [
            {
                "title": "t",
                "paragraphs": [
                    {
                        "context": "Kilmarnock won the cup",
                        "qas": [
                            {
                                "question": "who won ___",
                                "id": "q1",
                                "answers": [{"text": "Kilmarnock", "answer_start": 0}],
                            }
                        ],
                    }
                ],
            }
        ],
    }

    def test_minimal_document(self, tmp_path):
        p = tmp_path / "mini.json"
        p.write_text(json.dumps(self.MINIMAL))
        ds = load_squad_json(p)
        assert len(ds) == 1
        assert ds.samples[0].answer_text == "Kilmarnock"
        assert ds.rejected == 0

    def test_wrong_offset_rejected_with_count(self, tmp_path):
        doc = json.loads(json.dumps(self.MINIMAL))
        doc["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = 3
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        ds = load_squad_json(p)
        assert len(ds) == 0
        assert ds.rejected == 1

    def test_negative_offset_rejected_with_count(self, tmp_path):
        # "ab cd"[-5:-3] == "ab": only the sign of the offset is wrong
        doc = json.loads(json.dumps(self.MINIMAL))
        para = doc["data"][0]["paragraphs"][0]
        para["context"] = "ab cd"
        para["qas"][0]["answers"][0] = {"text": "ab", "answer_start": -5}
        p = tmp_path / "negative.json"
        p.write_text(json.dumps(doc))
        ds = load_squad_json(p)
        assert len(ds) == 0
        assert ds.rejected == 1
        with pytest.raises(ValueError):
            RawQASample("q", "ab cd", "ab", -5)

    def test_malformed_record_names_path(self, tmp_path):
        doc = json.loads(json.dumps(self.MINIMAL))
        del doc["data"][0]["paragraphs"][0]["qas"][0]["question"]
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=r"data\[0\].paragraphs\[0\].qas\[0\]"):
            load_squad_json(p)

    def test_round_trip_100_samples(self, tmp_path):
        spec = DomainShiftSpec(n_source=100, n_target_contexts=2)
        source, _, _ = make_synthetic_domains(spec, seed=9)
        p = tmp_path / "rt.json"
        write_dataset(p, source)
        loaded = load_squad_json(p, domain_tag=source.domain_tag)
        assert loaded.samples == source.samples

    def test_context_file_round_trip(self, tmp_path):
        contexts = [ContextOnly("ba re mi", "a"), ContextOnly("to lu", "b")]
        p = tmp_path / "ctx.jsonl"
        write_contexts(p, contexts)
        assert load_contexts(p) == contexts

    def test_candidate_dump_format(self, tmp_path):
        cands = make_cands([0.5, 0.25])
        p = tmp_path / "cands.jsonl"
        write_candidates(p, cands)
        rows = [json.loads(line) for line in p.read_text().splitlines()]
        assert rows[0]["context_id"] == "c"
        assert rows[0]["lm_score"] == 0.5
        assert set(rows[0]) == {"context_id", "question", "answer", "answer_start", "token_probs", "lm_score"}


# -- reader fuzzing: every mutation of a written file loads or raises DatasetError --

FUZZ_CONTEXT = "Zoë met José — naïve café 東京 at dawn"
FUZZ_DATASET = DomainDataset(
    samples=[
        RawQASample("who met ___", FUZZ_CONTEXT, "José", FUZZ_CONTEXT.index("José"), "q0"),
        RawQASample("___ at dawn", FUZZ_CONTEXT, "東京", FUZZ_CONTEXT.index("東京"), "q1"),
        RawQASample("where", "ba re mi to", "mi to", 6, "q2"),
    ],
    domain_tag="source",
)
FUZZ_CONTEXTS = [ContextOnly(FUZZ_CONTEXT, "a"), ContextOnly("ba re mi", "b")]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _json_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _substitute(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def mutated(draw, raw: bytes, jsonl: bool):
    """A written file cut short, with bytes flipped, or with one JSON value
    (of the whole file, or of one line for JSON Lines) replaced by another
    of any type."""
    kind = draw(st.sampled_from(["truncate", "flip", "substitute"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        out = bytearray(raw)
        for pos in draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4)):
            out[pos] ^= draw(st.integers(1, 255))
        return bytes(out)
    text = raw.decode("utf-8")
    docs = text.rstrip("\n").split("\n") if jsonl else [text]
    i = draw(st.integers(0, len(docs) - 1))
    doc = json.loads(docs[i])
    path = draw(st.sampled_from(list(_json_paths(doc))))
    docs[i] = json.dumps(_substitute(doc, path, draw(JSON_VALUES)), ensure_ascii=False)
    return "\n".join(docs).encode("utf-8")


def _load_or_dataset_error(load, tmp_path_factory, data: bytes):
    path = tmp_path_factory.mktemp("fuzz") / "file"
    path.write_bytes(data)
    try:
        load(path)
    except DatasetError:
        pass


@pytest.fixture(scope="module")
def written_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("written")
    write_dataset(root / "squad.json", FUZZ_DATASET)
    write_contexts(root / "contexts.jsonl", FUZZ_CONTEXTS)
    return (root / "squad.json").read_bytes(), (root / "contexts.jsonl").read_bytes()


class TestReaderFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_squad_reader_loads_or_raises_dataset_error(self, written_files, tmp_path_factory,
                                                         data):
        raw = written_files[0]
        _load_or_dataset_error(load_squad_json, tmp_path_factory, data.draw(mutated(raw, jsonl=False)))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_contexts_reader_loads_or_raises_dataset_error(self, written_files, tmp_path_factory,
                                                            data):
        raw = written_files[1]
        _load_or_dataset_error(load_contexts, tmp_path_factory, data.draw(mutated(raw, jsonl=True)))

    @pytest.mark.parametrize("path,value", [
        (("data",), 5),
        (("data", 0, "paragraphs", 0, "qas", 0, "answers", 0, "answer_start"), None),
        (("data", 0, "paragraphs", 0, "qas", 0, "answers"), 5),
        (("data", 0, "paragraphs", 0, "context"), 5),
    ])
    def test_wrong_typed_squad_field_names_its_path(self, tmp_path, path, value):
        doc = _substitute(json.loads(json.dumps(TestSquadIO.MINIMAL)), path, value)
        p = tmp_path / "typed.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=repr(path[-1])):
            load_squad_json(p)

    @pytest.mark.parametrize("loader", [load_squad_json, load_contexts])
    def test_bad_utf8_is_dataset_error(self, tmp_path, loader):
        p = tmp_path / "bad"
        p.write_bytes(b'{"context": "caf\xe9"}\n')
        with pytest.raises(DatasetError, match="UTF-8"):
            loader(p)

    @pytest.mark.parametrize("line", ['{"context": 5}', "[1]", '"text"', '{"id": "a"}'])
    def test_context_record_without_string_context(self, tmp_path, line):
        p = tmp_path / "ctx.jsonl"
        p.write_text(line + "\n")
        with pytest.raises(DatasetError, match=":1: bad context record"):
            load_contexts(p)


def test_candidates_to_dataset_preserves_fields():
    cands = make_cands([0.7, 0.3])
    ds = candidates_to_dataset(cands)
    assert [s.answer_text for s in ds.samples] == [c.answer_text for c in cands]
