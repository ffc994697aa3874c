import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadapt.datagen import DomainDataset, DomainShiftSpec, RawQASample, make_synthetic_domains
from qadapt.evaluation import (
    answer_mean_features,
    domain_gap,
    em_f1,
    evaluate,
    normalize_answer,
    pca_project,
    token_feature_cloud,
)
from qadapt.experiment import measurement_kernel
from qadapt.losses import KernelConfig
from qadapt.model import EncoderConfig, SpanModel, tokenize_sample


class TestNormalize:
    def test_article_and_punctuation(self):
        assert normalize_answer("The Cat!") == "cat"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_stepwise_rules(self):
        assert normalize_answer("a  White   Elephant.") == "white elephant"

    def test_article_inside_word_untouched(self):
        assert normalize_answer("theatre") == "theatre"


# (prediction, gold, em, f1) - hand-computed fixture
EM_F1_CASES = [
    ("Kenny Shiels", "Kenny Shiels", 1, 1.0),
    ("the Kenny Shiels", "Kenny Shiels", 1, 1.0),            # article stripped
    ("Kenny", "Kenny Shiels", 0, 2 / 3),                      # p=1, r=1/2
    ("Rugby Park", "Portugal", 0, 0.0),
    ("", "", 1, 1.0),
    ("", "Portugal", 0, 0.0),
    ("Portugal", "", 0, 0.0),
    ("the", "", 1, 1.0),                                      # normalizes to empty
    ("White Elephant.", "white elephant", 1, 1.0),            # punctuation removed
    ("x y z w", "z w u v", 0, 0.5),                           # 2 common of 4 each
    ("cat cat", "cat", 0, 2 / 3),                             # multiset clip: p=1/2, r=1
    ("1981 ,", "1981", 1, 1.0),                               # trailing punctuation
]


@pytest.mark.parametrize("pred,gold,em,f1", EM_F1_CASES)
def test_em_f1_fixture(pred, gold, em, f1):
    got_em, got_f1 = em_f1(pred, gold)
    assert got_em == em
    assert got_f1 == pytest.approx(f1, abs=1e-12)


class TestEmF1Properties:
    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_f1_symmetric(self, a, b):
        assert em_f1(a, b)[1] == pytest.approx(em_f1(b, a)[1], abs=1e-12)

    @given(st.text(max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_em_implies_f1(self, a):
        em, f1 = em_f1(a, a)
        assert em == 1 and f1 == 1.0

    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_em_one_forces_f1_one(self, a, b):
        em, f1 = em_f1(a, b)
        if em == 1:
            assert f1 == 1.0


def oracle_dataset(n=10, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        words = [f"w{rng.integers(0, 9)}" for _ in range(6)]
        ctx = " ".join(words)
        start = int(rng.integers(0, 5))
        text = words[start]
        char = sum(len(w) + 1 for w in words[:start])
        samples.append(RawQASample(f"which ___ {i}", ctx, text, char, sample_id=f"s{i}"))
    return DomainDataset(samples=samples, domain_tag="source")


class TestEvaluate:
    def test_oracle_predictions_score_100(self, monkeypatch):
        import qadapt.evaluation as ev
        ds = oracle_dataset()
        monkeypatch.setattr(ev, "predict_answer", lambda model, s, k: s.answer_text)
        result = ev.evaluate(object(), ds)
        assert result.em == 100.0 and result.f1 == 100.0

    def test_empty_dataset_is_an_error(self):
        ds = DomainDataset(samples=[], domain_tag="source")
        with pytest.raises(ValueError, match="empty"):
            evaluate(SpanModel(EncoderConfig()), ds)

    def test_hand_aggregated_means(self, monkeypatch):
        import qadapt.evaluation as ev
        ds = oracle_dataset(n=4, seed=1)
        answers = {s.sample_id: s.answer_text for s in ds.samples}
        fakes = {  # two exact, one partial (f1 2/3), one miss
            "s0": answers["s0"],
            "s1": answers["s1"],
            "s2": answers["s2"] + " extrawordhere",
            "s3": "totallywrong",
        }
        monkeypatch.setattr(ev, "predict_answer", lambda model, s, k: fakes[s.sample_id])
        result = ev.evaluate(object(), ds)
        assert result.em == pytest.approx(100.0 * 2 / 4, abs=1e-9)
        assert result.f1 == pytest.approx(100.0 * (2 + 2 / 3) / 4, abs=1e-9)

    def test_order_invariance(self, monkeypatch):
        import qadapt.evaluation as ev
        ds = oracle_dataset(n=6, seed=2)
        monkeypatch.setattr(ev, "predict_answer", lambda model, s, k: s.answer_text[:2])
        a = ev.evaluate(object(), ds)
        shuffled = DomainDataset(samples=list(reversed(ds.samples)), domain_tag="source")
        b = ev.evaluate(object(), shuffled)
        assert a.em == b.em and a.f1 == b.f1

    def test_untokenizable_counts_zero_with_reason(self):
        model = SpanModel(EncoderConfig(max_len=16, hidden_dim=16, num_heads=2, num_layers=1, ff_dim=16))
        long_ctx = " ".join(["word"] * 30)
        ds = DomainDataset(
            samples=[RawQASample("q ___", long_ctx, "word", 0, sample_id="long")],
            domain_tag="source",
        )
        result = evaluate(model, ds)
        assert result.em == 0.0 and result.records[0].note != ""


@pytest.fixture(scope="module")
def toy_pair():
    spec = DomainShiftSpec(n_source=6, n_target_contexts=6, qa_per_target_context=1,
                           context_words=(6, 8))
    source, _, gold = make_synthetic_domains(spec, seed=3)
    model = SpanModel(EncoderConfig(hidden_dim=16, num_layers=1, num_heads=2, ff_dim=32,
                                    max_len=96, seed=5))
    return model, source, gold


class TestDomainGap:
    def test_same_set_is_zero(self, toy_pair):
        model, source, _ = toy_pair
        assert abs(domain_gap(model, source, source)) <= 1e-12

    def test_matches_pairwise_sum_oracle(self, toy_pair):
        model, source, gold = toy_pair
        from qadapt.evaluation import answer_mean_features
        import math
        cfg = KernelConfig(bandwidths=(0.5, 2.0))
        small_s = DomainDataset(samples=source.samples[:5], domain_tag="source")
        small_t = DomainDataset(samples=gold.samples[:5], domain_tag="target_synthetic")
        X = answer_mean_features(model, small_s)
        Y = answer_mean_features(model, small_t)

        def k(a, b):
            d2 = float(((a - b) ** 2).sum())
            return sum(math.exp(-d2 / g) for g in cfg.bandwidths) / 2

        brute = (
            sum(k(a, b) for a in X for b in X) / 25
            + sum(k(a, b) for a in Y for b in Y) / 25
            - 2 * sum(k(a, b) for a in X for b in Y) / 25
        )
        assert abs(domain_gap(model, small_s, small_t, cfg) - brute) < 1e-12


class TestPcaProject:
    def test_rank_one_data_single_component(self):
        rng = np.random.default_rng(4)
        direction = rng.standard_normal(6)
        points = np.outer(rng.standard_normal(15), direction)
        proj = pca_project(points)
        assert abs(proj.explained_variance_ratio[0] - 1.0) < 1e-9
        assert proj.explained_variance_ratio[1] < 1e-9

    def test_two_dimensional_data_exact_reconstruction(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((20, 2))
        proj = pca_project(points)
        centered = points - points.mean(axis=0)
        # recover via the projection: coords are in an orthonormal basis of R^2
        assert abs(np.linalg.norm(proj.coords) - np.linalg.norm(centered)) < 1e-9
        assert abs(sum(proj.explained_variance_ratio) - 1.0) < 1e-9

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((20, 8))
        proj = pca_project(data)
        centered = data - data.mean(axis=0)
        evals, evecs = np.linalg.eigh(np.cov(centered.T))
        oracle = evecs[:, np.argsort(evals)[::-1][:2]].T
        # principal angles between the two 2-D subspaces
        # implementation basis from coords: solve for components via lstsq
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        mine = vt[:2]
        sv = np.linalg.svd(oracle @ mine.T, compute_uv=False)
        angles = np.arccos(np.clip(sv, -1.0, 1.0))
        assert np.max(angles) < 1e-6

    def test_translation_invariance_up_to_sign(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((12, 5))
        a = pca_project(data)
        b = pca_project(data + 100.0)
        assert np.max(np.abs(np.abs(a.coords) - np.abs(b.coords))) < 1e-8

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            pca_project(np.zeros((1, 4)))
        with pytest.raises(ValueError, match="zero-variance"):
            pca_project(np.ones((5, 4)))

    def test_ratios_bounded_and_sorted(self):
        rng = np.random.default_rng(8)
        proj = pca_project(rng.standard_normal((10, 4)))
        r1, r2 = proj.explained_variance_ratio
        assert 0.0 <= r2 <= r1 <= 1.0


def test_token_feature_cloud_has_three_classes(toy_pair):
    model, source, _ = toy_pair
    feats, labels, ids = token_feature_cloud(model, source, max_samples=4)
    assert feats.shape[1] == model.config.hidden_dim
    assert {"answer", "question", "other"} <= set(labels)
    assert len(ids) == len(labels) == feats.shape[0]


def test_token_feature_cloud_labels_match_masks(toy_pair):
    model, source, _ = toy_pair
    feats, labels, ids = token_feature_cloud(model, source, max_samples=4)
    row = 0
    for sample in source.samples[:4]:
        ts = tokenize_sample(sample.question, sample.context, sample.answer_start,
                             sample.answer_text, "source", max_len=model.config.max_len)
        for pos in range(len(ts)):
            want = ("answer" if ts.answer_mask[pos] else
                    "question" if ts.question_mask[pos] else "other")
            assert (labels[row], ids[row]) == (want, sample.sample_id)
            np.testing.assert_allclose(feats[row], model.encode(ts).data[pos], rtol=0, atol=1e-12)
            row += 1
    assert row == len(labels)


def test_measurement_kernel_is_half_one_and_two_medians(toy_pair):
    model, source, gold = toy_pair
    pooled = np.vstack([answer_mean_features(model, source), answer_mean_features(model, gold)])
    d2 = ((pooled[:, None, :] - pooled[None, :, :]) ** 2).sum(-1)
    median = np.median(d2[np.triu_indices(len(pooled), k=1)])
    assert median > 0
    # the kernel's Gram-form distances may differ from this direct form by round-off
    got = measurement_kernel(model, source, gold).bandwidths
    assert got == pytest.approx((0.5 * median, median, 2 * median), rel=1e-12, abs=0)
