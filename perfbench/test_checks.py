"""The benchmark's output checks pass on real program output and fail when
one value of that output is corrupted.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np
import pytest

from qadapt import cli, datagen, evaluation, losses, training
from qadapt.losses import ContrastiveConfig
from qadapt.model import EncoderConfig, SpanModel, tokenize_sample, predict_span

import checks
import reference as ref
from tracing import Recorder

SPEC = datagen.DomainShiftSpec(n_source=24, n_target_contexts=6, qa_per_target_context=2,
                               context_words=(6, 9))
ENCODER = EncoderConfig(hidden_dim=16, num_layers=1, num_heads=2, ff_dim=32, max_len=128, seed=3)
BETA, SIGMA = 0.5, 0.01


def _params(model):
    return {k: t.data for k, t in model.parameters().items()}


@pytest.fixture(scope="module")
def trained():
    source, contexts, gold = datagen.make_synthetic_domains(SPEC, seed=5)
    gen = datagen.fit_toy_generator(contexts, seed=5)
    kept = [c for i, ctx in enumerate(contexts)
            for c in datagen.lm_filter(datagen.generate_candidates(gen, ctx, n=8, seed=i), 2)]
    synthetic = datagen.candidates_to_dataset(kept)
    config = training.TrainConfig(
        learning_rate=1e-2, epochs=2, batch_size=4, seed=9, eval_cadence=0,
        contrastive=ContrastiveConfig(beta=BETA, noise_sigma=SIGMA,
                                      sign_variant="similarity-flipped"),
        encoder=ENCODER)
    model, report = training.train(config, source, synthetic)
    return source, synthetic, gold, model, report


def _triples(report):
    return [(r.loss_ce, r.loss_con, r.loss_total) for r in report.steps]


def test_step_identity_fails_on_a_perturbed_loss(trained):
    steps = _triples(trained[4])
    assert checks.step_identity(steps, BETA, "t") == []
    ce, con, total = steps[3]
    steps[3] = (ce, con, total + 1e-6)
    assert checks.step_identity(steps, BETA, "t")


def test_loss_falls_fails_when_the_last_epoch_is_worse(trained):
    totals = [t[2] for t in _triples(trained[4])]
    assert checks.loss_falls(totals, 2, "t") == []
    assert checks.loss_falls(totals[::-1], 2, "t")


def test_first_batch_loss_fails_on_a_perturbed_loss(trained):
    source, synthetic, _, _, report = trained
    initial = _params(SpanModel(ENCODER))
    logged = list(_triples(report)[0])

    def check(values):
        return checks.first_batch_loss(initial, ENCODER.num_layers, ENCODER.num_heads,
                                       source.samples, synthetic.samples, 9, 4, SIGMA, BETA,
                                       values, "t")

    assert check(logged) == []
    logged[0] += 1e-6
    assert check(logged)


def test_span_and_prediction_checks_fail_on_a_shifted_span(trained):
    _, _, gold, model, _ = trained
    rec = Recorder(traced=False)
    rec.install()
    try:
        result = evaluation.evaluate(model, gold, 16)
    finally:
        rec.uninstall()
    records = [(r.prediction, r.gold, r.em, r.f1) for r in result.records]
    log = list(rec.span_log)
    assert len(log) == len(gold)
    assert checks.spans_are_argmax(log) == []
    assert checks.predictions(gold.samples, records, log, "t") == []
    assert checks.aggregate_scores(records, result.em, result.f1, "t") == []

    label, start, end, mask, max_len, (s, e) = log[0]
    shifted = (s + 1, e + 1) if mask[e + 1] else (s - 1, e - 1)
    bad_log = [(label, start, end, mask, max_len, shifted)] + log[1:]
    assert checks.spans_are_argmax(bad_log)
    assert checks.predictions(gold.samples, records, bad_log, "t")
    pred, g, em, f1 = records[0]
    assert checks.predictions(gold.samples, [(pred, g, 1 - em, f1)] + records[1:], log, "t")
    assert checks.aggregate_scores(records, result.em + 1e-6, result.f1, "t")


def test_domain_gap_fails_on_a_perturbed_gap(trained):
    source, _, gold, model, _ = trained
    fs = evaluation.answer_mean_features(model, source)
    fg = evaluation.answer_mean_features(model, gold)
    kernel = losses.KernelConfig(bandwidths=(0.5, 1.0, 2.0))
    gap = losses.mmd_squared(fs, fg, kernel)
    self_gap = losses.mmd_squared(fs, fs, kernel)
    assert checks.domain_gap(fs, fg, kernel.bandwidths, gap, self_gap, "t") == []
    assert checks.domain_gap(fs, fg, kernel.bandwidths, gap + 1e-6, self_gap, "t")
    assert checks.domain_gap(fs, fg, kernel.bandwidths, gap, 1e-6, "t")
    assert checks.answer_feature(_params(model), 1, 2, gold.samples[0], fg[0], "t") == []
    assert checks.answer_feature(_params(model), 1, 2, gold.samples[0], fg[0] + 1e-6, "t")


def test_roundtrip_check_fails_on_an_answer_the_model_does_not_give(trained, tmp_path):
    _, synthetic, _, model, _ = trained
    ckpt = tmp_path / "model.ckpt"
    model.save(ckpt)
    s = synthetic.samples[0]
    ts = tokenize_sample(s.question, s.context, s.answer_start, s.answer_text,
                         domain_tag="target_synthetic")
    b, e = predict_span(model.span_logits(model.encode(ts)), ts.context_mask, 16)
    start = b - ts.context_token_start
    end = e - ts.context_token_start + 1
    agreed = datagen.RawQASample(s.question, s.context, s.context[start:end], start)
    assert checks.roundtrip_kept([agreed], ckpt, 16, 3) == []
    other = next(w for w in s.context.split()
                 if ref.squad_normalize(w) != ref.squad_normalize(agreed.answer_text))
    disagreed = datagen.RawQASample(s.question, s.context, other, s.context.index(other))
    assert checks.roundtrip_kept([disagreed], ckpt, 16, 3)
    assert checks.roundtrip_kept([agreed] * 4, ckpt, 16, 3)


def test_manifest_check_fails_on_a_changed_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_source": 4, "n_target_contexts": 2}))
    assert cli.main(["synth", "--out", str(tmp_path / "synth"), "--spec", str(spec)]) == 0
    manifest = tmp_path / "synth" / "manifest.json"
    assert checks.manifest(manifest) == []
    source = tmp_path / "synth" / "source.json"
    source.write_bytes(source.read_bytes().replace(b"src-0000", b"src-000X"))
    assert checks.manifest(manifest)


def test_reference_encoder_matches_the_program_span_scores(trained):
    _, _, gold, model, _ = trained
    s = gold.samples[1]
    ts = tokenize_sample(s.question, s.context, s.answer_start, s.answer_text, domain_tag="source")
    logits = model.span_logits(model.encode(ts))
    tok = ref.tokenize(s.question, s.context, s.answer_start, s.answer_text)
    assert np.array_equal(tok.ids, ts.token_ids)
    assert tok.answer_span == ts.answer_span
    start, end = ref.span_scores(_params(model), ref.encode(_params(model), 1, 2, tok.ids))
    np.testing.assert_allclose(start, logits.start_scores.data, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(end, logits.end_scores.data, rtol=1e-10, atol=1e-12)


def test_benchmark_json_names_the_metrics_run_prints():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
