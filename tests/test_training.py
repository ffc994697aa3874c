import json
from collections import Counter

import numpy as np
import pytest

from qadapt import tensor as T
from qadapt.datagen import DomainDataset, DomainShiftSpec, derive_seed, make_synthetic_domains
from qadapt.evaluation import evaluate
from qadapt.experiment import build_experiment_data
from qadapt.losses import ClassMeans, ContrastiveConfig, KernelConfig, contrastive_loss, total_loss
from qadapt.model import EncoderConfig, SpanModel, embedding_noise
from qadapt.training import (
    AdamW,
    ConfigError,
    DivergenceError,
    OptimizerConfig,
    TrainConfig,
    clip_gradients,
    config_from_dict,
    config_to_dict,
    grid_search,
    mixed_batch_sampler,
    train,
    _batch_losses,
)
from conftest import make_sample

TINY_ENC = EncoderConfig(vocab_size=258, hidden_dim=16, num_layers=1, num_heads=2,
                         ff_dim=32, max_len=96, seed=1)


def tiny_config(**overrides):
    defaults = dict(
        learning_rate=1e-3, epochs=2, batch_size=8, mixing_policy="mixed",
        seed=3, max_answer_len=32, eval_cadence=0, grad_clip=1.0,
        contrastive=ContrastiveConfig(beta=0.001, noise_sigma=0.0,
                                      kernel=KernelConfig(bandwidths=(1.0, 4.0))),
        encoder=TINY_ENC,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def toy_data():
    spec = DomainShiftSpec(n_source=24, n_target_contexts=12, qa_per_target_context=1,
                           context_words=(5, 7))
    source, _, gold = make_synthetic_domains(spec, seed=5)
    synthetic = DomainDataset(samples=gold.samples, domain_tag="target_synthetic",
                              provenance="synthetic")
    return source, synthetic


class TestSampler:
    def test_forced_composition(self):
        src = [("s", i) for i in range(8)]
        syn = [("t", i) for i in range(8)]
        for _, batch in mixed_batch_sampler(src, syn, 4, "mixed", seed=0):
            kinds = Counter(kind for kind, _ in batch)
            assert kinds == {"s": 2, "t": 2}

    def test_rounding_toward_source(self):
        src = [("s", i) for i in range(9)]
        syn = [("t", i) for i in range(6)]
        _, first = next(iter(mixed_batch_sampler(src, syn, 5, "mixed", seed=0)))
        kinds = Counter(kind for kind, _ in first)
        assert kinds == {"s": 3, "t": 2}

    def test_source_only_reduces_to_plain_batching(self):
        src = list(range(10))
        batches = [b for _, b in mixed_batch_sampler(src, [], 4, "source-only", seed=1)]
        assert sorted(x for b in batches for x in b) == src
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_epoch_visits_every_sample_once(self):
        src = [f"s{i}" for i in range(11)]
        syn = [f"t{i}" for i in range(7)]
        for epochs in (1, 3):
            seen = Counter()
            for epoch, batch in mixed_batch_sampler(src, syn, 4, "mixed", seed=2, epochs=epochs):
                seen.update(batch)
            assert seen == Counter({x: epochs for x in src + syn})

    def test_deterministic_given_seed(self):
        src, syn = list(range(10)), list(range(100, 108))
        a = [b for _, b in mixed_batch_sampler(src, syn, 4, "mixed", seed=7, epochs=2)]
        b = [b for _, b in mixed_batch_sampler(src, syn, 4, "mixed", seed=7, epochs=2)]
        assert a == b
        c = [b for _, b in mixed_batch_sampler(src, syn, 4, "mixed", seed=8, epochs=2)]
        assert a != c

    def test_reshuffles_between_epochs(self):
        src, syn = list(range(16)), list(range(100, 116))
        batches = {}
        for epoch, batch in mixed_batch_sampler(src, syn, 4, "mixed", seed=9, epochs=2):
            batches.setdefault(epoch, []).append(batch)
        assert batches[0] != batches[1]

    def test_small_batch_under_mixed_rejected(self):
        with pytest.raises(ConfigError, match="batch_size"):
            list(mixed_batch_sampler([1], [2], 1, "mixed", seed=0))

    def test_mixed_requires_both_sets(self):
        with pytest.raises(ConfigError, match="non-empty"):
            list(mixed_batch_sampler([1, 2], [], 2, "mixed", seed=0))


class TestOptimizer:
    def test_single_step_matches_hand_formula(self):
        p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([0.5, -1.0])
        opt = AdamW({"p": p}, lr=0.1, config=OptimizerConfig())
        opt.step({"p": p})
        g = np.array([0.5, -1.0])
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p.data, expected, atol=1e-12)

    def test_weight_decay_decoupled(self):
        p = T.Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1)
        opt = AdamW({"p": p}, lr=0.1, config=OptimizerConfig(weight_decay=0.5))
        opt.step({"p": p})
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_clip_gradients_bounds_global_norm(self):
        params = {
            "a": T.Tensor(np.zeros(3), requires_grad=True),
            "b": T.Tensor(np.zeros(2), requires_grad=True),
        }
        params["a"].grad = np.array([3.0, 0.0, 0.0])
        params["b"].grad = np.array([0.0, 4.0])
        pre = clip_gradients(params, cap=1.0)
        assert pre == pytest.approx(5.0)
        post = np.sqrt(sum(float((p.grad**2).sum()) for p in params.values()))
        assert post <= 1.0 + 1e-9

    def test_clip_noop_below_cap(self):
        params = {"a": T.Tensor(np.zeros(2), requires_grad=True)}
        params["a"].grad = np.array([0.3, 0.4])
        clip_gradients(params, cap=1.0)
        assert np.allclose(params["a"].grad, [0.3, 0.4], atol=0)


class TestTrain:
    def test_beta_zero_total_equals_ce(self, toy_data):
        source, synthetic = toy_data
        cfg = tiny_config(contrastive=ContrastiveConfig(beta=0.0, noise_sigma=0.0),
                          epochs=1)
        _, report = train(cfg, source, synthetic)
        for r in report.steps:
            assert r.loss_total == r.loss_ce

    def test_decomposition_identity_every_step(self, toy_data):
        source, synthetic = toy_data
        cfg = tiny_config(epochs=1)
        _, report = train(cfg, source, synthetic)
        beta = cfg.contrastive.beta
        for r in report.steps:
            assert abs(r.loss_total - (r.loss_ce + beta * r.loss_con)) <= 1e-12

    def test_identical_seed_identical_loss_curves(self, toy_data):
        source, synthetic = toy_data
        cfg = tiny_config(epochs=1, contrastive=ContrastiveConfig(beta=0.001, noise_sigma=0.01))
        _, r1 = train(cfg, source, synthetic)
        _, r2 = train(cfg, source, synthetic)
        assert len(r1.steps) == len(r2.steps)
        for a, b in zip(r1.steps, r2.steps):
            assert abs(a.loss_total - b.loss_total) <= 1e-12

    def test_single_sample_memorization(self, toy_data):
        source, _ = toy_data
        one = DomainDataset(samples=source.samples[:1], domain_tag="source", provenance="human")
        cfg = tiny_config(mixing_policy="source-only", batch_size=1, epochs=500,
                          contrastive=ContrastiveConfig(beta=0.0, noise_sigma=0.0))
        model, report = train(cfg, one)
        assert len(report.steps) == 500
        assert evaluate(model, one, cfg.max_answer_len).em == 100.0

    def test_run_dir_contents(self, toy_data, tmp_path):
        source, synthetic = toy_data
        cfg = tiny_config(epochs=1)
        run_dir = tmp_path / "run"
        model, report = train(cfg, source, synthetic, run_dir=run_dir)
        for name in ("config.json", "steps.jsonl", "metrics.json", "checkpoint.bin", "report.json"):
            assert (run_dir / name).exists()
        rows = [json.loads(l) for l in (run_dir / "steps.jsonl").read_text().splitlines()]
        assert [r["step"] for r in rows] == list(range(len(report.steps)))

    def test_checkpoint_round_trip_same_metrics(self, toy_data, tmp_path):
        source, synthetic = toy_data
        cfg = tiny_config(epochs=1)
        model, _ = train(cfg, source, synthetic)
        path = tmp_path / "m.ckpt"
        model.save(path)
        reloaded = SpanModel.load(path, expected_config=cfg.encoder)
        a = evaluate(model, source, cfg.max_answer_len)
        b = evaluate(reloaded, source, cfg.max_answer_len)
        assert a.em == b.em and a.f1 == b.f1

    def test_divergence_aborts_with_last_finite_step(self, toy_data, monkeypatch):
        import qadapt.training as tr
        source, synthetic = toy_data
        cfg = tiny_config(epochs=4, contrastive=ContrastiveConfig(beta=0.0, noise_sigma=0.0))
        real = tr._batch_losses

        def poisoned(model, batch, config, step):
            if step == 3:
                raise T.NonFiniteError("operation produced non-finite values")
            return real(model, batch, config, step)

        monkeypatch.setattr(tr, "_batch_losses", poisoned)
        with pytest.raises(DivergenceError) as err:
            train(cfg, source, synthetic)
        assert err.value.last_finite_step == 2
        assert err.value.report is not None
        assert len(err.value.report.steps) == 3

    def test_dev_metrics_logged_per_epoch(self, toy_data):
        source, synthetic = toy_data
        dev = {"source-dev": source}
        cfg = tiny_config(epochs=2, eval_cadence=1)
        _, report = train(cfg, source, synthetic, dev_sets=dev)
        epochs_logged = [m["epoch"] for m in report.epoch_metrics]
        assert epochs_logged == [0, 1]
        assert all(m["dataset"] == "source-dev" for m in report.epoch_metrics)


class TestConfig:
    def test_validation_lists_problems_field_by_field(self):
        with pytest.raises(ConfigError) as err:
            TrainConfig(learning_rate=-1.0, epochs=0, grad_clip=0.0)
        text = str(err.value)
        assert "learning_rate" in text and "epochs" in text and "grad_clip" in text

    def test_round_trip_dict(self):
        cfg = tiny_config()
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert again == cfg

    def test_unknown_field_rejected(self):
        d = config_to_dict(tiny_config())
        d["learning_rat"] = 1.0
        del d["learning_rate"]
        with pytest.raises(ConfigError, match="learning_rat"):
            config_from_dict(d)

    def test_domain_separated_needs_batch_of_two(self):
        with pytest.raises(ConfigError, match="domain-separated"):
            tiny_config(batch_size=1, mixing_policy="source-only",
                        contrastive=ContrastiveConfig(beta=0.001, noise_sigma=0.0,
                                                      pairing_variant="domain-separated"))


class TestGridSearch:
    def test_singleton_grid_returns_that_cell(self, toy_data):
        source, synthetic = toy_data
        base = tiny_config(epochs=1)
        result = grid_search(base, [0.01], [0.0], "dev_f1", source, synthetic, source)
        assert (result.best_beta, result.best_sigma) == (0.01, 0.0)
        assert len(result.rows) == 1

    def test_full_grid_logged_and_tie_break(self, toy_data, monkeypatch):
        import qadapt.training as tr
        source, synthetic = toy_data
        base = tiny_config(epochs=1)

        calls = []

        def fake_train(config, *a, **kw):
            calls.append((config.contrastive.beta, config.contrastive.noise_sigma))
            return SpanModel(config.encoder), tr.TrainReport(
                steps=[], epoch_metrics=[], wall_clock_s=0.0, seed=config.seed,
                resolved_config={}, final_epoch_mean_loss=1.0)

        class FakeResult:
            em, f1, n = 10.0, 20.0, 1

        monkeypatch.setattr(tr, "train", fake_train)
        monkeypatch.setattr(tr, "evaluate", lambda *a, **kw: FakeResult())
        result = tr.grid_search(base, [0.1, 0.01, 0.001], [0.0, 0.01], "dev_f1",
                                source, synthetic, source)
        assert len(result.rows) == 6
        assert len(calls) == 6
        # every cell ties at f1=20 -> smallest beta then smallest sigma
        assert (result.best_beta, result.best_sigma) == (0.001, 0.0)

    def test_failed_cell_marked_and_search_continues(self, toy_data, monkeypatch):
        import qadapt.training as tr
        source, synthetic = toy_data
        base = tiny_config(epochs=1)

        def flaky_train(config, *a, **kw):
            if config.contrastive.beta == 0.1:
                raise DivergenceError("boom", 0)
            return SpanModel(config.encoder), tr.TrainReport(
                steps=[], epoch_metrics=[], wall_clock_s=0.0, seed=config.seed,
                resolved_config={}, final_epoch_mean_loss=0.5)

        class FakeResult:
            em, f1, n = 10.0, 20.0, 1

        monkeypatch.setattr(tr, "train", flaky_train)
        monkeypatch.setattr(tr, "evaluate", lambda *a, **kw: FakeResult())
        result = tr.grid_search(base, [0.1, 0.01], [0.0], "dev_f1", source, synthetic, source)
        statuses = {r["beta"]: r["status"] for r in result.rows}
        assert statuses == {0.1: "failed", 0.01: "ok"}
        assert result.best_beta == 0.01

    def test_unknown_criterion_rejected(self, toy_data):
        source, synthetic = toy_data
        with pytest.raises(ConfigError, match="criterion"):
            grid_search(tiny_config(), [0.1], [0.0], "accuracy", source, synthetic, source)


def test_overfit_smoke_200_samples_under_200_steps():
    """Desk-scale capacity check: a 200-sample set is fit to loss < 0.1
    within 200 steps."""
    spec = DomainShiftSpec(n_source=200, n_target_contexts=2, context_words=(6, 9))
    source, _, _ = make_synthetic_domains(spec, seed=0)
    cfg = TrainConfig(
        learning_rate=1e-3, epochs=16, batch_size=16, mixing_policy="source-only",
        seed=0, max_answer_len=48, eval_cadence=0, grad_clip=1.0,
        contrastive=ContrastiveConfig(beta=0.0, noise_sigma=0.0),
        encoder=EncoderConfig(hidden_dim=64, num_layers=2, num_heads=4, ff_dim=256,
                              max_len=128, seed=0),
    )
    _, report = train(cfg, source)
    assert min(r.loss_total for r in report.steps[:200]) < 0.1


# -- the packed batch against the per-sample graph it replaces ----------------------

def _reference_features(model, ts, sigma, seed):
    """Per-sample encoder built from the narrow ops, one graph per head."""
    p, cfg = model.params, model.config
    x = T.embedding(p["tok_emb"], ts.token_ids)
    if sigma > 0.0:
        x = x + T.constant(embedding_noise((len(ts), cfg.hidden_dim), sigma, seed))
    x = x + T.embedding(p["pos_emb"], np.arange(len(ts)))

    def ln(t, pre):
        return T.layer_norm(t) * p[pre + ".gain"] + p[pre + ".bias"]

    dh = cfg.hidden_dim // cfg.num_heads
    for i in range(cfg.num_layers):
        pre = f"layer{i}."
        h = ln(x, pre + "ln1")
        q, k, v = (T.matmul(h, p[pre + "attn.w" + c]) + p[pre + "attn.b" + c] for c in "qkv")
        heads = []
        for lo in range(0, cfg.hidden_dim, dh):
            qh, kh, vh = (T.slice_cols(t, lo, lo + dh) for t in (q, k, v))
            scores = T.matmul(qh, T.transpose(kh)) * (1.0 / np.sqrt(dh))
            heads.append(T.matmul(T.softmax(scores), vh))
        merged = None
        for j, head in enumerate(heads):  # concatenate the heads' columns by placement
            part = T.matmul(head, T.constant(np.eye(dh, cfg.hidden_dim, k=j * dh)))
            merged = part if merged is None else merged + part
        x = x + T.matmul(merged, p[pre + "attn.wo"]) + p[pre + "attn.bo"]
        h = ln(x, pre + "ln2")
        ff = T.relu(T.matmul(h, p[pre + "ff.w1"]) + p[pre + "ff.b1"])
        x = x + T.matmul(ff, p[pre + "ff.w2"]) + p[pre + "ff.b2"]
    return ln(x, "final_ln")


def _reference_loss(model, batch, config, step):
    cc = config.contrastive
    ce_terms, means = [], []
    for i, ts in enumerate(batch):
        feats = _reference_features(model, ts, cc.noise_sigma,
                                    derive_seed(config.seed, 0x401535, step, i))
        scores = T.matmul(feats, model.params["span.w"]) + model.params["span.b"]
        nll = []
        for col, gold in enumerate(ts.answer_span):
            column = T.reshape(T.slice_cols(scores, col, col + 1), (len(ts),))
            nll.append(-T.mul(T.log_softmax(column), T.constant(np.eye(len(ts))[gold])).sum())
        ce_terms.append((nll[0] + nll[1]) * 0.5)
        cq_mask = (ts.question_mask | ts.context_mask) & ~ts.answer_mask
        means.append(ClassMeans(T.masked_mean(feats, ts.answer_mask),
                                T.masked_mean(feats, cq_mask), ts.domain_tag))
    ce = T.stack_rows(ce_terms).mean()
    return total_loss(ce, contrastive_loss(means, cc), cc)


PARITY_ENC = EncoderConfig(vocab_size=32, hidden_dim=16, num_layers=2, num_heads=4, ff_dim=24,
                           max_len=16, seed=11)


@pytest.mark.parametrize("sign", ["as-printed", "similarity-flipped"])
@pytest.mark.parametrize("pairing", ["mixed-batch", "domain-separated"])
@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_packed_batch_matches_per_sample_graphs(sign, pairing, sigma):
    """Loss and every parameter gradient of the packed batch equal those of
    per-sample, per-head graphs within 1e-12 relative to the largest gradient
    entry (some gradients, such as the key biases', are exactly zero in exact
    arithmetic and round-off in both)."""
    config = tiny_config(
        seed=5, batch_size=5, encoder=PARITY_ENC,
        contrastive=ContrastiveConfig(beta=0.1, noise_sigma=sigma, sign_variant=sign,
                                      pairing_variant=pairing,
                                      kernel=KernelConfig(bandwidths=(0.5, 2.0))))
    batch = [make_sample(seed=60 + i, length=n, vocab=32,
                         domain_tag="source" if i % 2 else "target_synthetic")
             for i, n in enumerate((9, 16, 6, 13, 11))]
    grads = []
    for build in (lambda m: total_loss(*_batch_losses(m, batch, config, 3)[:2], config.contrastive),
                  lambda m: _reference_loss(m, batch, config, 3)):
        model = SpanModel(PARITY_ENC)
        loss = build(model)
        T.backward(loss)
        grads.append((loss.item(), {n: t.grad for n, t in model.params.items()}))
    (packed_loss, packed), (ref_loss, ref) = grads
    assert abs(packed_loss - ref_loss) <= 1e-12 * abs(ref_loss)
    scale = max(np.max(np.abs(g)) for g in ref.values())
    for name, want in ref.items():
        assert np.max(np.abs(packed[name] - want)) <= 1e-12 * scale, name


def test_domain_separated_single_domain_batches_skip_the_term(tmp_path):
    """On the experiment data (240 source, 180 synthetic, batch 12) the
    synthetic side runs out after 30 mixed batches; the 5 source-only batches
    that follow train on cross-entropy alone instead of aborting."""
    source, synthetic, _ = build_experiment_data(0)
    cfg = tiny_config(
        epochs=1, batch_size=12, seed=0,
        encoder=EncoderConfig(hidden_dim=16, num_layers=1, num_heads=2, ff_dim=16, max_len=128),
        contrastive=ContrastiveConfig(beta=0.001, noise_sigma=0.01,
                                      pairing_variant="domain-separated"))
    _, report = train(cfg, source, synthetic, run_dir=tmp_path / "run")
    assert len(report.steps) == 35
    assert report.single_domain_batches == 5
    assert [r.loss_con for r in report.steps[-5:]] == [0.0] * 5
    assert all(r.loss_con != 0.0 for r in report.steps[:30])
    saved = json.loads((tmp_path / "run" / "report.json").read_text())
    assert saved["single_domain_batches"] == 5
