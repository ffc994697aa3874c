import errno
import json
import logging
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadapt import tensor as T
from qadapt import training as tr
from qadapt import workers
from qadapt import model as model_module
from qadapt.datagen import (
    DomainDataset, DomainShiftSpec, GenCandidate, derive_seed, make_synthetic_domains,
    roundtrip_filter,
)
from qadapt.evaluation import answer_mean_features, evaluate, score_samples
from qadapt.experiment import EXPERIMENT_ENCODER, _phase_config, build_experiment_data
from qadapt.losses import (
    ContrastiveConfig, KernelConfig, MalformedSampleError, contrastive_loss,
)
from qadapt.model import (
    EncoderConfig, SpanModel, TokenizationError, config_from_json, config_to_json,
    tokenize_samples,
)
from qadapt.training import (
    AdamW,
    ConfigError,
    DivergenceError,
    OptimizerConfig,
    TrainConfig,
    clip_gradients,
    grid_search,
    mixed_batch_sampler,
    train,
    _half_step,
    _split_point,
)
from conftest import assert_flat_layout, assert_no_child_left, make_sample, stack_means

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
    synthetic = DomainDataset(samples=gold.samples, domain_tag="target_synthetic")
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


# the policy, the source and synthetic sizes (the synthetic set unused under
# source-only), the batch size, the seed and the epochs
SAMPLER_CASES = st.tuples(
    st.sampled_from(["mixed", "source-only"]), st.integers(1, 40), st.integers(1, 40),
    st.integers(2, 16), st.integers(0, 2**32 - 1), st.integers(1, 3),
)


@settings(max_examples=200, deadline=None)
@given(SAMPLER_CASES)
def test_sampler_invariants(case):
    """Each epoch visits every item exactly once, in full batches but the
    last; under the mixed policy a batch drawn while each side still has its
    full share left holds ceil(b/2) source and floor(b/2) synthetic items;
    the same seed gives the same batches."""
    policy, n_src, n_syn, batch_size, seed, epochs = case
    src = [("s", i) for i in range(n_src)]
    syn = [("t", i) for i in range(n_syn)]
    run = list(mixed_batch_sampler(src, syn, batch_size, policy, seed, epochs=epochs))
    assert run == list(mixed_batch_sampler(src, syn, batch_size, policy, seed, epochs=epochs))
    assert [e for e, _ in run] == sorted(e for e, _ in run)
    for epoch in range(epochs):
        batches = [b for e, b in run if e == epoch]
        items = [x for b in batches for x in b]
        assert sorted(items) == sorted(src + (syn if policy == "mixed" else []))
        assert all(len(b) == batch_size for b in batches[:-1])
        assert 1 <= len(batches[-1]) <= batch_size
        if policy == "source-only":
            continue
        left = Counter(s=n_src, t=n_syn)
        for b in batches:
            kinds = Counter(kind for kind, _ in b)
            if left["s"] >= (batch_size + 1) // 2 and left["t"] >= batch_size // 2:
                assert kinds == Counter(s=(batch_size + 1) // 2, t=batch_size // 2)
            left.subtract(kinds)


class TestOptimizer:
    def test_single_step_matches_hand_formula(self):
        flat = np.array([1.0, -2.0])
        opt = AdamW(flat, lr=0.1, config=OptimizerConfig())
        opt.step(np.array([0.5, -1.0]))
        g = np.array([0.5, -1.0])
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected = np.array([1.0, -2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(flat, expected, atol=1e-12)

    def test_weight_decay_decoupled(self):
        flat = np.array([2.0])
        opt = AdamW(flat, lr=0.1, config=OptimizerConfig(weight_decay=0.5))
        opt.step(np.zeros(1))
        assert flat[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_clip_gradients_bounds_global_norm(self):
        grad = np.array([3.0, 0.0, 0.0, 0.0, 4.0])
        pre = clip_gradients(grad, cap=1.0)
        assert pre == pytest.approx(5.0)
        post = np.sqrt(float((grad**2).sum()))
        assert post <= 1.0 + 1e-9

    def test_clip_noop_below_cap(self):
        grad = np.array([0.3, 0.4])
        clip_gradients(grad, cap=1.0)
        assert np.allclose(grad, [0.3, 0.4], atol=0)

    def test_model_flat_grad_is_in_flat_order_with_zeros_for_no_gradient(self):
        model = SpanModel(TINY_ENC)
        rng = np.random.default_rng(3)
        grads = {name: rng.standard_normal(p.shape) for name, p in model.params.items()
                 if name != "span.b"}
        for name, g in grads.items():
            model.params[name].grad = g
        want = np.concatenate([grads[name].ravel() if name in grads else np.zeros(2)
                               for name in SpanModel.param_shapes(TINY_ENC)])
        assert np.array_equal(model.flat_grad(), want)
        out = np.full(model.flat.size, np.nan)
        assert model.flat_grad(out=out) is out and np.array_equal(out, want)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    @pytest.mark.parametrize("warmup_steps", [0, 2])
    def test_flat_steps_match_the_per_parameter_formula(self, weight_decay, warmup_steps):
        rng = np.random.default_rng(7)
        shapes = {"w": (3, 4), "b": (4,), "zero": (3,)}
        start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        flat = np.concatenate([a.ravel() for a in start.values()])
        config = OptimizerConfig(weight_decay=weight_decay, warmup_steps=warmup_steps)
        opt = AdamW(flat, lr=0.01, config=config)
        want = {name: a.copy() for name, a in start.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        b1, b2 = config.betas
        for t in range(1, 4):
            grads = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4),
                     "zero": np.zeros(3)}  # exact-zero gradients: a zero update without decay
            opt.step(np.concatenate([g.ravel() for g in grads.values()]))
            lr = 0.01 * (min(1.0, t / warmup_steps) if warmup_steps else 1.0)
            for name, g in grads.items():  # one parameter at a time
                m[name] = b1 * m[name] + (1 - b1) * g
                v[name] = b2 * v[name] + (1 - b2) * g * g
                mhat = m[name] / (1 - b1**t)
                vhat = v[name] / (1 - b2**t)
                want[name] -= lr * (mhat / (np.sqrt(vhat) + config.eps) + weight_decay * want[name])
            assert np.array_equal(flat, np.concatenate([a.ravel() for a in want.values()])), t


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
        one = DomainDataset(samples=source.samples[:1], domain_tag="source")
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
        reloaded = SpanModel.load(path)
        assert reloaded.config == cfg.encoder
        a = evaluate(model, source, cfg.max_answer_len)
        b = evaluate(reloaded, source, cfg.max_answer_len)
        assert a.em == b.em and a.f1 == b.f1

    def test_divergence_aborts_with_last_finite_step(self, toy_data, monkeypatch):
        import qadapt.training as tr
        source, synthetic = toy_data
        cfg = tiny_config(epochs=4, contrastive=ContrastiveConfig(beta=0.0, noise_sigma=0.0))
        real = tr._half_step

        def poisoned(model, batch, lo, hi, config, step):
            if step == 3:
                raise T.NonFiniteError("operation produced non-finite values")
            return real(model, batch, lo, hi, config, step)

        monkeypatch.setattr(tr, "_half_step", poisoned)
        with pytest.raises(DivergenceError) as err:
            train(cfg, source, synthetic)
        assert err.value.last_finite_step == 2
        assert err.value.report is not None
        assert len(err.value.report.steps) == 3

    def test_nonfinite_gradient_norm_diverges_before_the_update(self, toy_data, monkeypatch,
                                                                  tmp_path):
        import qadapt.training as tr
        source, synthetic = toy_data
        cfg = tiny_config(epochs=2)
        real_clip, real_step = tr.clip_gradients, tr.AdamW.step
        calls = Counter()

        def poisoned_clip(grad, cap):
            if calls["clip"] == 2:
                grad[0] = np.inf
            calls["clip"] += 1
            return real_clip(grad, cap)

        def counted_step(self, grad):
            calls["step"] += 1
            real_step(self, grad)

        monkeypatch.setattr(tr, "clip_gradients", poisoned_clip)
        monkeypatch.setattr(tr.AdamW, "step", counted_step)
        with pytest.raises(DivergenceError, match="gradient norm at step 2") as err:
            train(cfg, source, synthetic, run_dir=tmp_path / "run")
        assert err.value.last_finite_step == 1
        assert len(err.value.report.steps) == 2
        assert calls["step"] == 2
        assert len((tmp_path / "run" / "steps.jsonl").read_text().splitlines()) == 2

    def test_step0_grad_norm_recomputed(self, toy_data, tmp_path):
        source, synthetic = toy_data
        cfg = tiny_config(epochs=1, contrastive=ContrastiveConfig(
            beta=0.001, noise_sigma=0.01, kernel=KernelConfig(bandwidths=(1.0, 4.0))))
        _, report = train(cfg, source, synthetic, run_dir=tmp_path / "run")
        src = [ts for _, ts in tokenize_samples(source.samples, "source", cfg.encoder.max_len)]
        syn = [ts for _, ts in tokenize_samples(synthetic.samples, "target_synthetic",
                                                cfg.encoder.max_len)]
        _, batch = next(mixed_batch_sampler(src, syn, cfg.batch_size, "mixed", cfg.seed))
        model = SpanModel(cfg.encoder)
        _, losses = _half_step(model, batch, 0, len(batch), cfg, 0)  # the batch as one graph
        T.backward(losses(None)[2])
        grads = np.concatenate([p.grad.ravel() for p in model.params.values()])
        want = float(np.sqrt(np.sum(grads * grads)))
        assert want > cfg.grad_clip  # the logged norm is the one before clipping
        assert abs(report.steps[0].grad_norm - want) <= 1e-12 * want
        rows = [json.loads(l) for l in (tmp_path / "run" / "steps.jsonl").read_text().splitlines()]
        assert [r["grad_norm"] for r in rows] == [r.grad_norm for r in report.steps]

    def test_initial_model_untouched_and_trained_model_round_trips(self, toy_data, tmp_path):
        source, synthetic = toy_data
        cfg = tiny_config(epochs=1)
        start = SpanModel(cfg.encoder)
        before = {name: p.data.copy() for name, p in start.params.items()}
        model, _ = train(cfg, source, synthetic, initial_model=start)
        assert_flat_layout(model)
        assert not np.shares_memory(start.flat, model.flat)
        for name, p in start.params.items():
            assert np.array_equal(p.data, before[name]), name
            assert not np.shares_memory(p.data, model.params[name].data)
        assert any(not np.array_equal(model.params[n].data, before[n]) for n in before)
        model.save(tmp_path / "m.ckpt")
        reloaded = SpanModel.load(tmp_path / "m.ckpt")
        assert reloaded.config == cfg.encoder
        for name, p in model.params.items():
            assert np.array_equal(reloaded.params[name].data, p.data), name

    def test_dev_metrics_logged_per_epoch(self, toy_data):
        source, synthetic = toy_data
        dev = {"source-dev": source}
        cfg = tiny_config(epochs=2, eval_cadence=1)
        _, report = train(cfg, source, synthetic, dev_sets=dev)
        epochs_logged = [m["epoch"] for m in report.epoch_metrics]
        assert epochs_logged == [0, 1]
        assert all(m["dataset"] == "source-dev" for m in report.epoch_metrics)

    def test_empty_dev_set_rejected_before_the_first_step(self, toy_data, monkeypatch, forks):
        source, synthetic = toy_data
        steps = []
        monkeypatch.setattr(tr, "_half_step", lambda *a: steps.append(a))
        empty = DomainDataset(samples=[], domain_tag="source")
        with pytest.raises(ValueError, match="dev set 'empty' has no samples"):
            train(tiny_config(eval_cadence=1), source, synthetic,
                  dev_sets={"dev": source, "empty": empty})
        assert steps == [] and forks == []


class TestConfig:
    def test_validation_lists_problems_field_by_field(self):
        with pytest.raises(ConfigError) as err:
            TrainConfig(learning_rate=-1.0, epochs=0, grad_clip=0.0)
        text = str(err.value)
        assert "learning_rate" in text and "epochs" in text and "grad_clip" in text

    def test_round_trip_dict(self):
        cfg = tiny_config()
        again = config_from_json(TrainConfig, json.loads(json.dumps(config_to_json(cfg))))
        assert again == cfg

    def test_unknown_field_rejected(self):
        d = config_to_json(tiny_config())
        d["learning_rat"] = 1.0
        del d["learning_rate"]
        with pytest.raises(ConfigError, match="learning_rat"):
            config_from_json(TrainConfig, d)

def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed: must be an integer >= 0"):
        config_from_json(TrainConfig, {"seed": -1})


class TestOptimizerConfig:
    def test_edges_accepted(self):
        opt = config_from_json(TrainConfig, {"optimizer": {"eps": 1e-300, "betas": [0.0, 0.0],
                                              "weight_decay": 0.0, "warmup_steps": 0}}).optimizer
        assert opt == OptimizerConfig(betas=(0.0, 0.0), eps=1e-300)


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
                final_epoch_mean_loss=1.0)

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
                final_epoch_mean_loss=0.5)

        class FakeResult:
            em, f1, n = 10.0, 20.0, 1

        monkeypatch.setattr(tr, "train", flaky_train)
        monkeypatch.setattr(tr, "evaluate", lambda *a, **kw: FakeResult())
        result = tr.grid_search(base, [0.1, 0.01], [0.0], "dev_f1", source, synthetic, source)
        statuses = {r["beta"]: r["status"] for r in result.rows}
        assert statuses == {0.1: "failed", 0.01: "ok"}
        assert result.best_beta == 0.01

    @pytest.mark.parametrize("error", [MalformedSampleError("sample has no non-answer question/context tokens"),
                                       TokenizationError("token id outside the vocabulary")])
    def test_sample_error_cell_recorded_as_failed(self, toy_data, monkeypatch, caplog, error):
        import qadapt.training as tr
        source, synthetic = toy_data
        real_train = tr.train

        def train_or_fail(config, *a, **kw):
            if config.contrastive.beta == 0.1:
                raise error
            return real_train(config, *a, **kw)

        monkeypatch.setattr(tr, "train", train_or_fail)
        with caplog.at_level("WARNING", logger="qadapt.training"):
            result = tr.grid_search(tiny_config(epochs=1), [0.1, 0.01], [0.0], "dev_f1",
                                    source, synthetic, source)
        failed, ok = result.rows
        assert failed == {"beta": 0.1, "sigma": 0.0, "status": "failed"}
        assert ok["status"] == "ok" and {"em", "f1", "train_loss"} <= set(ok)
        assert (result.best_beta, result.best_sigma) == (0.01, 0.0)
        assert any("beta=0.1" in r.getMessage() and str(error) in r.getMessage()
                   for r in caplog.records)

    def test_empty_selection_set_rejected_before_the_first_cell(self, toy_data, monkeypatch):
        source, synthetic = toy_data
        cells = []
        monkeypatch.setattr(tr, "train", lambda *a, **kw: cells.append(a))
        empty = DomainDataset(samples=[], domain_tag="source")
        with pytest.raises(ValueError, match="selection set has no samples"):
            grid_search(tiny_config(epochs=1), [0.01], [0.0], "dev_f1", source, synthetic, empty)
        assert cells == []

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


# -- the packed batch against per-sample graphs ------------------------------------

def _reference_loss(model, batch, config, step):
    """The objective rebuilt one sample at a time: each sample's features from
    its own encode call, its span NLL from segment_nll on one segment, its
    class-mean rows from a constant [1 x N] weight, placed into the [B x H]
    means by a constant [B x 1] one-hot; the loss weights each NLL by 1/B."""
    cc = config.contrastive
    n = len(batch)
    nlls, answers, cqs = [], [], []
    for i, ts in enumerate(batch):
        feats = model.encode(ts, noise_sigma=cc.noise_sigma,
                             noise_seed=derive_seed(config.seed, 0x401535, step, i))
        logits = model.span_logits(feats)
        start, end = ts.answer_span
        nll = T.segment_nll(logits.scores, [0, len(ts)], [[start, end]]).mean()
        place = np.eye(n)[:, i:i + 1]
        cq_mask = (ts.question_mask | ts.context_mask) & ~ts.answer_mask
        a_row, c_row = (T.matmul(place, T.matmul(m[None] / m.sum(), feats))
                        for m in (ts.answer_mask, cq_mask))
        nlls.append(nll)
        answers.append(a_row)
        cqs.append(c_row)
    ones = [1.0] * n
    means = stack_means(T.weighted_sum(answers, ones), T.weighted_sum(cqs, ones))
    return T.weighted_sum(nlls + [contrastive_loss(means, cc)], [1.0 / n] * n + [cc.beta])


def split_step(model, batch, config, step):
    """The loss of a training step over both halves of its batch, run here in
    the trainer's order, and the sum of the halves' parameter gradients."""
    cut = _split_point(batch)
    mine, losses = _half_step(model, batch, 0, cut, config, step)
    theirs, their_losses = _half_step(model, batch, cut, len(batch), config, step)
    loss = losses(theirs)[2]
    T.backward(loss)
    grads = {name: t.grad for name, t in model.params.items()}
    model.zero_grad()
    T.backward(their_losses(mine)[2])
    return loss.item(), {name: grads[name] + t.grad for name, t in model.params.items()}


PARITY_ENC = EncoderConfig(vocab_size=32, hidden_dim=16, num_layers=2, num_heads=4, ff_dim=24,
                           max_len=16, seed=11)


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_packed_batch_matches_per_sample_graphs(sigma):
    """Loss and every parameter gradient of a training step, its packed batch
    split into two halves whose gradients are summed, equal those of
    per-sample graphs within 1e-12 relative to the largest gradient entry
    (some gradients, such as the key biases', are exactly zero in exact
    arithmetic and round-off in both)."""
    config = tiny_config(
        seed=5, batch_size=5, encoder=PARITY_ENC,
        contrastive=ContrastiveConfig(beta=0.1, noise_sigma=sigma,
                                      kernel=KernelConfig(bandwidths=(0.5, 2.0))))
    batch = [make_sample(seed=60 + i, length=n, vocab=32,
                         domain_tag="source" if i % 2 else "target_synthetic")
             for i, n in enumerate((9, 16, 6, 13, 11))]
    assert 0 < _split_point(batch) < len(batch)
    packed_loss, packed = split_step(SpanModel(PARITY_ENC), batch, config, 3)
    model = SpanModel(PARITY_ENC)
    ref_loss = _reference_loss(model, batch, config, 3)
    T.backward(ref_loss)
    ref_loss, ref = ref_loss.item(), {n: t.grad for n, t in model.params.items()}
    assert abs(packed_loss - ref_loss) <= 1e-12 * abs(ref_loss)
    scale = max(np.max(np.abs(g)) for g in ref.values())
    for name, want in ref.items():
        assert np.max(np.abs(packed[name] - want)) <= 1e-12 * scale, name


def graph_nodes(root) -> int:
    """Recorded autodiff nodes (tensors with parents) reachable from root."""
    seen, stack = set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._parents:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def test_split_half_step_records_13_nodes():
    """One half of a split training step of a two-layer encoder, with
    embedding noise and the contrastive term on, is a graph of 13 nodes:
    embed; the attention and FFN sublayers of each of the two layers (4);
    the final layer norm; the span head; the segment NLL and its mean (2);
    the class means; the weighted sum that offsets them by the other half's
    class means; the kernel sum; and the weighted sum of this half's
    cross-entropy share and beta times the kernel sum, offset by the other
    half's share. The count does not depend on where the other half runs."""
    config = tiny_config(
        seed=5, batch_size=5, encoder=PARITY_ENC,
        contrastive=ContrastiveConfig(beta=0.1, noise_sigma=0.05,
                                      kernel=KernelConfig(bandwidths=(0.5, 2.0))))
    batch = [make_sample(seed=60 + i, length=n, vocab=32,
                         domain_tag="source" if i % 2 else "target_synthetic")
             for i, n in enumerate((9, 16, 6, 13, 11))]
    cut = _split_point(batch)
    model = SpanModel(PARITY_ENC)
    mine, losses = _half_step(model, batch, 0, cut, config, 3)
    theirs, their_losses = _half_step(model, batch, cut, len(batch), config, 3)
    assert graph_nodes(losses(theirs)[2]) == 13
    assert graph_nodes(their_losses(mine)[2]) == 13


# -- the second half of every step in the worker --------------------------------------

def _artifacts(run_dir):
    return [(run_dir / name).read_bytes() for name in ("checkpoint.bin", "steps.jsonl")]


def _train_into(cfg, source, synthetic, root, name):
    train(cfg, source, synthetic, run_dir=root / name)
    return name


def test_artifacts_do_not_depend_on_where_the_second_half_ran(toy_data, tmp_path, cpus, forks,
                                                              monkeypatch):
    """The same bytes from the worker, from one usable CPU, from unpinned
    BLAS, from inside the worker busy with a ``split_map`` and from beside
    it."""
    source, synthetic = toy_data
    cfg = tiny_config(epochs=2, contrastive=ContrastiveConfig(beta=0.01, noise_sigma=0.01))

    def run(name):
        return _train_into(cfg, source, synthetic, tmp_path, name)

    cpus(2)
    run("worker")
    assert len(forks) == 1
    cpus(1)
    run("one-cpu")
    cpus(2)
    with monkeypatch.context() as m:
        m.setattr(workers, "BLAS_PINNED", False)
        run("unpinned")
    assert list(workers.split_map(_train_into, ["beside", "inside"], cfg, source, synthetic,
                                  tmp_path)) == ["beside", "inside"]
    assert len(forks) == 1  # the same worker; neither training used it
    want = _artifacts(tmp_path / "worker")
    for name in ("one-cpu", "unpinned", "beside", "inside"):
        assert _artifacts(tmp_path / name) == want, name
    assert_no_child_left()


def test_worker_forked_inside_no_grad_records_the_step_graph(toy_data, tmp_path, cpus, forks):
    """A worker forked inside a ``no_grad`` block still records the graph of
    each step's second half."""
    source, synthetic = toy_data
    cfg = tiny_config(epochs=1)
    cpus(1)
    train(cfg, source, synthetic, run_dir=tmp_path / "one-cpu")
    cpus(2)
    with T.no_grad():
        pids = list(workers.split_map(_pid, range(2)))
    assert pids == [os.getpid()] + forks
    train(cfg, source, synthetic, run_dir=tmp_path / "worker")
    assert len(forks) == 1
    assert _artifacts(tmp_path / "worker") == _artifacts(tmp_path / "one-cpu")
    assert_no_child_left()


def test_one_worker_answers_every_session(toy_data, cpus, forks, monkeypatch):
    """``train`` (steps and dev evaluation), ``answer_mean_features``, the
    roundtrip filter and ``split_map`` all hold their sessions with the
    one worker forked by the first of them."""
    source, synthetic = toy_data
    opened = []
    real_open = workers._Worker.open

    def counted_open(worker, start, args):
        opened.append((start.__name__, worker.pid))
        return real_open(worker, start, args)

    monkeypatch.setattr(workers._Worker, "open", counted_open)
    monkeypatch.setattr(model_module, "INFER_CHUNK", 8)  # several chunks of the small sets
    cpus(2)
    model, _ = train(tiny_config(epochs=2, eval_cadence=1), source, synthetic,
                     dev_sets={"dev": source})
    answer_mean_features(model, source)
    candidates = [GenCandidate(s.sample_id, s.context, s.question, s.answer_text, s.answer_start,
                               (0.5,), 0.5) for s in synthetic.samples]
    roundtrip_filter(candidates, model, 16)
    pids = list(workers.split_map(_pid, range(2)))
    assert len(forks) == 1
    assert pids == [os.getpid(), forks[0]]
    assert opened == [("_train_partner", forks[0])] + [("_map_list", forks[0])] * 3
    assert_no_child_left()


def _pid(item):
    return os.getpid()


def _dev_with_untokenizable(source, n=7, at=5):
    """``n`` source samples; the one at ``at``, in the second half, has a
    context too long for ``TINY_ENC``."""
    samples = list(source.samples[:n])
    long = samples[at]
    samples[at] = replace(long, sample_id="too-long", context=long.context + " word" * 40)
    return DomainDataset(samples=samples, domain_tag="source")


def _untokenizable_warnings(caplog):
    return [r for r in caplog.records
            if r.name == "qadapt.evaluation" and "too-long scored (0, 0)" in r.getMessage()]


def test_dev_evaluation_does_not_depend_on_where_its_second_half_ran(toy_data, tmp_path, cpus,
                                                                   forks, monkeypatch, caplog):
    """Every per-epoch dev evaluation, its second half scored by the
    worker, by the in-process partner on one CPU or with unpinned BLAS,
    writes the same run directory; the untokenizable sample is warned of
    once per evaluation, by this process."""
    source, synthetic = toy_data
    dev = _dev_with_untokenizable(source)
    cfg = tiny_config(epochs=2, eval_cadence=1)
    runs = {}
    for name, n_cpus, pinned in (("worker", 2, True), ("one-cpu", 1, True),
                                 ("unpinned", 2, False)):
        cpus(n_cpus)
        caplog.clear()
        with monkeypatch.context() as m, caplog.at_level(logging.WARNING, "qadapt.evaluation"):
            m.setattr(workers, "BLAS_PINNED", pinned)
            model, _ = train(cfg, source, synthetic, dev_sets={"dev": dev},
                             run_dir=tmp_path / name)
        warned = _untokenizable_warnings(caplog)
        assert len(warned) == 2 and all(r.process == os.getpid() for r in warned), name
        runs[name] = [(tmp_path / name / f).read_bytes()
                      for f in ("metrics.json", "checkpoint.bin", "steps.jsonl")]
    assert len(forks) == 1
    assert runs["one-cpu"] == runs["worker"] and runs["unpinned"] == runs["worker"]
    last = json.loads((tmp_path / "worker" / "metrics.json").read_text())[-1]
    final = evaluate(model, dev, cfg.max_answer_len)
    assert (last["em"], last["f1"], last["n"]) == (final.em, final.f1, 7)
    assert_no_child_left()


def _scoring(model):
    def serve(request):
        _, samples, max_answer_len = request
        return score_samples(model, samples, max_answer_len)
        yield  # a generator: its one answer is the value it returns
    return serve


@pytest.mark.parametrize("n_cpus", [2, 1])
def test_evaluate_with_a_partner_scores_as_alone(toy_data, cpus, forks, caplog, n_cpus):
    source, _ = toy_data
    model = SpanModel(TINY_ENC)
    dev = _dev_with_untokenizable(source)
    alone = evaluate(model, dev, 32)

    cpus(n_cpus)
    caplog.clear()
    with caplog.at_level(logging.WARNING, "qadapt.evaluation"):
        with workers.session(_scoring, model) as partner:
            paired = evaluate(model, dev, 32, partner=partner)
    assert paired.records == alone.records
    assert (paired.em, paired.f1, paired.n) == (alone.em, alone.f1, alone.n)
    assert alone.records[5].note  # the untokenizable sample is in the partner's half
    warned = _untokenizable_warnings(caplog)
    assert len(warned) == 1 and warned[0].process == os.getpid()
    assert len(forks) == (n_cpus == 2)
    assert_no_child_left()


@pytest.mark.parametrize("n_cpus", [2, 1])
def test_nonfinite_in_the_partners_dev_half_reaches_the_caller(toy_data, monkeypatch, cpus,
                                                                forks, n_cpus):
    source, synthetic = toy_data

    def poisoned(*args):
        raise T.NonFiniteError("partner's dev half")

    monkeypatch.setattr(tr, "score_samples", poisoned)  # the partner's half only
    cpus(n_cpus)
    with pytest.raises(T.NonFiniteError, match="partner's dev half"):
        train(tiny_config(epochs=2, eval_cadence=1), source, synthetic,
              dev_sets={"dev": _dev_with_untokenizable(source)})
    assert len(forks) == (n_cpus == 2)
    assert_no_child_left()


def test_warm_start_from_a_file_trains_as_from_memory(tmp_path):
    """A loaded model has the parameter layout of the model it was saved
    from, so a fork warm-started from the file writes the same bytes as one
    warm-started from the model in memory, the gradient norms included."""
    source, synthetic, _ = build_experiment_data(0)
    source = DomainDataset(samples=source.samples[:24], domain_tag="source")
    synthetic = DomainDataset(samples=synthetic.samples[:24], domain_tag="target_synthetic")
    cfg = _phase_config(77, 0.001, 1)  # a fork of the experiment: 4 steps of 12
    warm = SpanModel(EXPERIMENT_ENCODER)
    warm.save(tmp_path / "warm.bin")
    loaded = SpanModel.load(tmp_path / "warm.bin")
    train(cfg, source, synthetic, run_dir=tmp_path / "memory", initial_model=warm)
    train(cfg, source, synthetic, run_dir=tmp_path / "file", initial_model=loaded)
    assert _artifacts(tmp_path / "file") == _artifacts(tmp_path / "memory")


@pytest.mark.parametrize("n_cpus", [2, 1])
@pytest.mark.parametrize("phase", ["forward", "backward"])
def test_nonfinite_second_half_diverges_at_its_step(toy_data, tmp_path, monkeypatch, cpus, forks,
                                                    n_cpus, phase):
    source, synthetic = toy_data
    cpus(n_cpus)
    real = tr._half_step

    def poisoned(model, batch, lo, hi, config, step):
        if step != 3 or lo == 0:
            return real(model, batch, lo, hi, config, step)
        if phase == "forward":
            raise T.NonFiniteError("second half forward")
        mine, losses = real(model, batch, lo, hi, config, step)

        def failing(theirs):
            raise T.NonFiniteError("second half backward")
        return mine, failing

    monkeypatch.setattr(tr, "_half_step", poisoned)
    with pytest.raises(DivergenceError, match=f"step 3: second half {phase}") as err:
        train(tiny_config(epochs=2), source, synthetic, run_dir=tmp_path / "run")
    assert err.value.last_finite_step == 2
    assert len((tmp_path / "run" / "steps.jsonl").read_text().splitlines()) == 3
    assert len(forks) == (n_cpus == 2)
    assert_no_child_left()


def test_abandoned_train_leaves_no_child(toy_data, monkeypatch, cpus, forks):
    source, synthetic = toy_data
    cpus(2)

    def failing_evaluate(*args, **kwargs):
        raise RuntimeError("dev evaluation failed")

    monkeypatch.setattr(tr, "evaluate", failing_evaluate)
    with pytest.raises(RuntimeError, match="dev evaluation failed"):
        train(tiny_config(epochs=2, eval_cadence=1), source, synthetic, dev_sets={"dev": source})
    assert len(forks) == 1
    assert_no_child_left()


def _item_and_pid(item):
    return item, os.getpid()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_fork_runs_the_block_here_and_closes_its_pipes(toy_data, tmp_path, cpus,
                                                             monkeypatch):
    """When ``os.fork`` raises (EAGAIN from a stand-in: no process limit is
    approached), ``session`` closes the pipes it opened and runs the block
    with the in-process ``Partner``: ``split_map`` and ``train`` give the
    in-process results and leave no file descriptor open."""
    source, synthetic = toy_data
    cfg = tiny_config(epochs=1)
    cpus(1)
    train(cfg, source, synthetic, run_dir=tmp_path / "one-cpu")
    attempts = []

    def failing_fork():
        attempts.append(errno.EAGAIN)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    cpus(2)
    monkeypatch.setattr(workers, "BLAS_PINNED", True)
    monkeypatch.setattr(os, "fork", failing_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    here = os.getpid()
    assert list(workers.split_map(_item_and_pid, range(5))) == [(item, here) for item in range(5)]
    train(cfg, source, synthetic, run_dir=tmp_path / "no-fork")
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert len(attempts) == 2
    assert _artifacts(tmp_path / "no-fork") == _artifacts(tmp_path / "one-cpu")
    assert_no_child_left()


def test_without_memfd_train_runs_here(toy_data, tmp_path, cpus, forks, monkeypatch):
    """Where ``os.memfd_create`` is missing (not Linux), ``shared_zeros``
    maps anonymous memory and no session uses the worker: ``train`` on one
    CPU and on two gives the bytes it gives with a memfd, and nothing is
    forked."""
    source, synthetic = toy_data
    cfg = tiny_config(epochs=1)
    cpus(1)
    train(cfg, source, synthetic, run_dir=tmp_path / "memfd")
    monkeypatch.delattr(os, "memfd_create")
    for n_cpus in (1, 2):
        cpus(n_cpus)
        assert not workers.can_fork()
        train(cfg, source, synthetic, run_dir=tmp_path / f"no-memfd-{n_cpus}")
        assert _artifacts(tmp_path / f"no-memfd-{n_cpus}") == _artifacts(tmp_path / "memfd")
    here = os.getpid()
    assert list(workers.split_map(_item_and_pid, range(3))) == [(item, here) for item in range(3)]
    assert forks == []


def test_single_sample_batch_runs_with_an_empty_second_half(toy_data, tmp_path, cpus):
    source, _ = toy_data
    assert _split_point([make_sample(seed=1)]) == 1
    cfg = tiny_config(epochs=1, batch_size=len(source) - 1, mixing_policy="source-only")
    for n_cpus in (2, 1):
        cpus(n_cpus)
        _, report = train(cfg, source, run_dir=tmp_path / str(n_cpus))
        assert len(report.steps) == 2  # the second batch holds one sample
    assert _artifacts(tmp_path / "2") == _artifacts(tmp_path / "1")


def test_split_point_balances_tokens():
    batch = [make_sample(seed=i, length=n) for i, n in enumerate((9, 16, 6, 13, 11))]
    assert _split_point(batch) == 2  # 25 tokens against 30
    assert _split_point(batch[:2]) == 1
