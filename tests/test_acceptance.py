"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The directional adaptation experiment (criterion 5)
trains ten small models and takes a few minutes.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qadapt import tensor as T
from qadapt.cli import main
from qadapt.datagen import (
    GenCandidate,
    fit_toy_generator,
    generate_candidates,
    lm_filter,
    load_contexts,
    load_squad_json,
    roundtrip_filter,
)
from qadapt.evaluation import em_f1, pca_project
from qadapt.experiment import run_adaptation_experiment, run_seed
from qadapt.losses import (
    ContrastiveConfig,
    KernelConfig,
    contrastive_loss,
    mmd_squared,
)
from qadapt.model import EncoderConfig, SpanModel
from qadapt.training import TrainConfig, _half_step
from conftest import make_sample, stack_means
from test_evaluation import EM_F1_CASES


def criterion(n: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\n[criterion {n}] {status}: {description}{extra}", flush=True)
    assert passed, f"criterion {n} failed: {description}{extra}"


# -- criterion 1: gradient fidelity of the combined objective -------------------

BANDWIDTH_SETS = ((1.0,), (0.5, 2.0), (0.25, 1.0, 4.0))


def _combined_loss(model, batch, config):
    """The trained objective: one packed batch at step 0, run as one half."""
    _, losses = _half_step(model, batch, 0, len(batch), config, 0)
    return losses(None)[2]


def test_criterion_1_gradient_fidelity():
    started = time.perf_counter()
    worst = 0.0
    for idx in range(50):
        rng = np.random.default_rng(9000 + idx)
        hidden = int(rng.choice([8, 16]))
        enc = EncoderConfig(vocab_size=16, hidden_dim=hidden, num_layers=1, num_heads=2,
                            ff_dim=2 * hidden, max_len=16, seed=9000 + idx)
        contrastive = ContrastiveConfig(
            beta=float(rng.choice([0.1, 0.01, 0.001])),
            noise_sigma=float(rng.choice([0.0, 0.01])),
            kernel=KernelConfig(bandwidths=BANDWIDTH_SETS[idx % len(BANDWIDTH_SETS)]),
        )
        config = TrainConfig(seed=100 * idx, contrastive=contrastive, encoder=enc)
        n = int(rng.integers(2, 5))
        batch = [
            make_sample(seed=7000 + 10 * idx + i, length=int(rng.integers(8, 17)), vocab=16,
                        domain_tag="source" if i % 2 == 0 else "target_synthetic")
            for i in range(n)
        ]
        model = SpanModel(enc)
        for name in ("span.w", "layer0.attn.wq", "layer0.ff.w1", "tok_emb",
                     "final_ln.gain", "layer0.ln2.bias"):
            base = model.params[name]

            def f(t, name=name):
                model.params[name] = t
                return _combined_loss(model, batch, config)

            err = T.finite_difference_check(f, base, max_coords=12, seed=idx)
            model.params[name] = base
            worst = max(worst, err)
    elapsed = time.perf_counter() - started
    criterion(1, "analytic gradients of the combined objective match central "
                 "finite differences at 1e-4 over 50 seeded configs",
              worst < 1e-4 and elapsed < 120.0,
              f"max rel err {worst:.2e}, {elapsed:.0f}s")


# -- criterion 2: kernel two-sample estimator suite ------------------------------

def test_criterion_2_mmd_estimator_suite():
    started = time.perf_counter()
    cfg = KernelConfig(bandwidths=(0.5, 2.0))
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(1000):
        x = rng.standard_normal((int(rng.integers(1, 9)), 4))
        y = rng.standard_normal((int(rng.integers(1, 9)), 4))
        ab = mmd_squared(x, y, cfg)
        ok &= ab >= -1e-12
        ok &= abs(ab - mmd_squared(y, x, cfg)) < 1e-12
        ok &= abs(mmd_squared(x, x, cfg)) <= 1e-12

    def brute(x, y):
        def k(a, b):
            d2 = float(((a - b) ** 2).sum())
            return sum(math.exp(-d2 / g) for g in cfg.bandwidths) / len(cfg.bandwidths)

        n, m = len(x), len(y)
        return (sum(k(a, b) for a in x for b in x) / n**2
                + sum(k(a, b) for a in y for b in y) / m**2
                - 2 * sum(k(a, b) for a in x for b in y) / (n * m))

    for _ in range(100):
        x = rng.standard_normal((int(rng.integers(1, 9)), 3))
        y = rng.standard_normal((int(rng.integers(1, 9)), 3))
        ok &= abs(mmd_squared(x, y, cfg) - brute(x, y)) < 1e-12
    elapsed = time.perf_counter() - started
    criterion(2, "squared-distance estimator: self-distance, symmetry, "
                 "non-negativity, and brute-force equivalence", ok and elapsed < 30.0,
              f"{elapsed:.1f}s")


# -- criterion 3: contrastive closed forms ---------------------------------------

def test_criterion_3_contrastive_closed_forms():
    cfg = ContrastiveConfig(beta=0.01, noise_sigma=0.0,
                            kernel=KernelConfig(bandwidths=(0.5, 1.5)))
    rng = np.random.default_rng(7)
    ok = True

    def k(a, b):
        d2 = float(((a - b) ** 2).sum())
        return sum(math.exp(-d2 / g) for g in cfg.kernel.bandwidths) / 2

    for _ in range(100):
        a = rng.standard_normal(5)
        c = rng.standard_normal(5)
        means = stack_means(T.constant(a[None]), T.constant(c[None]))
        expected = k(a, c) - 2.0
        ok &= abs(contrastive_loss(means, cfg).item() - expected) <= 1e-12

    for _ in range(100):
        a = [rng.standard_normal(4) for _ in range(2)]
        c = [rng.standard_normal(4) for _ in range(2)]
        means = stack_means(T.constant(np.stack(a)), T.constant(np.stack(c)))
        brute = sum(
            (k(a[i], c[j]) - k(a[i], a[j]) - k(c[i], c[j])) / 4
            for i in range(2) for j in range(2)
        )
        ok &= abs(contrastive_loss(means, cfg).item() - brute) <= 1e-12
    criterion(3, "single-sample batches equal k(answer, rest) - 2 and two-sample "
                 "batches match the expanded double sums", ok)


# -- criterion 4: metric oracle ---------------------------------------------------

def test_criterion_4_metric_oracle():
    ok = len(EM_F1_CASES) == 12
    for pred, gold, em, f1 in EM_F1_CASES:
        got_em, got_f1 = em_f1(pred, gold)
        ok &= got_em == em and abs(got_f1 - f1) <= 1e-12
    criterion(4, "EM/F1 reproduce the 12-case hand-computed fixture exactly", ok)


# -- criterion 5: directional adaptation reproduction -----------------------------

@pytest.fixture(scope="session")
def adaptation_result():
    started = time.perf_counter()
    result = run_adaptation_experiment(seeds=range(5), verbose=True)
    result.elapsed = time.perf_counter() - started
    return result


def test_criterion_5_directional_adaptation(adaptation_result):
    r = adaptation_result
    detail = (f"gap wins {r.gap_wins}/5, mean EM delta {r.mean_em_delta:+.2f}, "
              f"untrained wins {r.untrained_wins}/5, {r.elapsed:.0f}s")
    passed = (r.gap_wins >= 4
              and r.mean_em_delta >= -1.0
              and r.untrained_wins >= 3
              and r.elapsed < 600.0)
    criterion(5, "contrastive arm lowers the source/target answer-feature gap "
                 "in >= 4/5 paired seeds without losing target EM", passed, detail)


def test_experiment_seeds_equal_sequential_runs(adaptation_result):
    # with two usable CPUs, seeds 2 and 3 ran in the worker,
    # each step in one process, and seed 4 ran here after it, its steps split
    outcomes = adaptation_result.outcomes
    assert [o.seed for o in outcomes] == list(range(5))
    assert run_seed(outcomes[3].seed) == outcomes[3]


# -- shared CLI pipeline artifacts (criteria 6-8) ----------------------------------

E2E_SPEC = {
    "vocab_words": 20,
    "n_source": 20,
    "n_target_contexts": 10,
    "qa_per_target_context": 1,
    "context_words": [5, 7],
}


def run_pipeline(root: Path, tag: str) -> dict[str, Path]:
    """synth -> generate -> train -> eval with fixed seeds; returns paths."""
    base = root / tag
    spec = base / "spec.json"
    base.mkdir(parents=True)
    spec.write_text(json.dumps(E2E_SPEC))
    domains = base / "domains"
    assert main(["synth", "--spec", str(spec), "--seed", "21", "--out", str(domains)]) == 0
    gen = base / "generated"
    assert main(["generate", "--contexts", str(domains / "target_contexts.jsonl"),
                 "--k", "5", "--seed", "22", "--out", str(gen)]) == 0
    cfg = {
        "learning_rate": 1e-3, "epochs": 1, "batch_size": 4, "mixing_policy": "mixed",
        "seed": 23, "max_answer_len": 32, "eval_cadence": 1, "grad_clip": 1.0,
        "optimizer": {"betas": [0.9, 0.999], "eps": 1e-8, "weight_decay": 0.0, "warmup_steps": 0},
        "contrastive": {"beta": 0.001, "noise_sigma": 0.01,
                        "kernel": {"bandwidths": None,
                                   "median_multipliers": [0.25, 0.5, 1.0, 2.0, 4.0]},
                        "sign_variant": "similarity-flipped"},
        "encoder": {"vocab_size": 258, "hidden_dim": 16, "num_layers": 1, "num_heads": 2,
                    "ff_dim": 32, "max_len": 96, "seed": 3},
        "data": {"source": str(domains / "source.json"),
                 "synthetic": str(gen / "synthetic.json"),
                 "dev": {"target": str(domains / "target_gold.json")}},
    }
    cfg_path = base / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    run = base / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    metrics = base / "metrics"
    assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                 "--dataset", str(domains / "target_gold.json"), "--out", str(metrics)]) == 0
    return {"domains": domains, "generated": gen, "run": run, "metrics": metrics}


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    return run_pipeline(root, "first"), run_pipeline(root, "second")


# -- criterion 6: filtering pipeline ----------------------------------------------

def test_criterion_6_filtering_pipeline(pipeline_runs):
    first, _ = pipeline_runs
    rng = np.random.default_rng(11)
    ok = True
    # top-k selection equals a full-sort oracle on 1000 random candidate sets
    for _ in range(1000):
        scores = rng.uniform(0.001, 1.0, size=int(rng.integers(1, 24)))
        cands = [
            GenCandidate(context_id="c", context="w0 w1", question="___",
                         answer_text="w0", answer_start=0,
                         token_probs=(float(s),), lm_score=float(s))
            for s in scores
        ]
        k = int(rng.integers(1, 8))
        got = [c.lm_score for c in lm_filter(cands, k)]
        ok &= got == sorted(scores.tolist(), reverse=True)[:k]

    # end-to-end per-context cap of five
    ds = load_squad_json(first["generated"] / "synthetic.json")
    per_context = {}
    for s in ds.samples:
        per_context[s.context] = per_context.get(s.context, 0) + 1
    ok &= len(per_context) > 0 and max(per_context.values()) <= 5

    # roundtrip filtering is idempotent under a frozen checkpoint
    model = SpanModel.load(first["run"] / "checkpoint.bin")
    contexts = load_contexts(first["domains"] / "target_contexts.jsonl")
    gen = fit_toy_generator(contexts, order="bigram", seed=1)
    cands = []
    for idx, ctx in enumerate(contexts[:6]):
        cands.extend(generate_candidates(gen, ctx, n=6, seed=idx))
    once = roundtrip_filter(cands, model, max_answer_len=32)
    twice = roundtrip_filter(once, model, max_answer_len=32)
    ok &= twice == once and all(c in cands for c in once)
    criterion(6, "top-k filter matches the sort oracle, the per-context cap of 5 "
                 "holds end-to-end, and roundtrip filtering is idempotent", ok)


# -- criterion 7: end-to-end determinism -------------------------------------------

def test_criterion_7_end_to_end_determinism(pipeline_runs):
    first, second = pipeline_runs
    ok = True
    for name in ("source.json", "target_contexts.jsonl", "target_gold.json"):
        ok &= (first["domains"] / name).read_bytes() == (second["domains"] / name).read_bytes()
    ok &= ((first["generated"] / "synthetic.json").read_bytes()
           == (second["generated"] / "synthetic.json").read_bytes())
    rows1 = [json.loads(l) for l in (first["run"] / "steps.jsonl").read_text().splitlines()]
    rows2 = [json.loads(l) for l in (second["run"] / "steps.jsonl").read_text().splitlines()]
    ok &= len(rows1) == len(rows2) > 0
    for a, b in zip(rows1, rows2):
        for key in ("loss_ce", "loss_con", "loss_total"):
            ok &= abs(a[key] - b[key]) <= 1e-12
    ok &= ((first["run"] / "checkpoint.bin").read_bytes()
           == (second["run"] / "checkpoint.bin").read_bytes())
    criterion(7, "two identically seeded end-to-end runs produce byte-identical "
                 "datasets and step logs equal within 1e-12", ok)


# -- criterion 8: projection diagnostics -------------------------------------------

def test_criterion_8_pca_diagnostics(pipeline_runs, tmp_path):
    first, _ = pipeline_runs
    rng = np.random.default_rng(13)
    ok = True

    direction = rng.standard_normal(6)
    rank1 = np.outer(rng.standard_normal(20), direction)
    proj = pca_project(rank1)
    ok &= abs(proj.explained_variance_ratio[0] - 1.0) < 1e-9

    data = rng.standard_normal((20, 8))
    centered = data - data.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    evals, evecs = np.linalg.eigh(np.cov(centered.T))
    oracle = evecs[:, np.argsort(evals)[::-1][:2]].T
    angles = np.arccos(np.clip(np.linalg.svd(oracle @ vt[:2].T, compute_uv=False), -1, 1))
    ok &= float(np.max(angles)) < 1e-6

    out = tmp_path / "proj"
    ok &= main(["pca", "--checkpoint", str(first["run"] / "checkpoint.bin"),
                "--dataset", str(first["domains"] / "source.json"),
                "--max-samples", "6", "--out", str(out)]) == 0
    labels = {line.split("\t")[2] for line in (out / "pca.tsv").read_text().splitlines()[3:]}
    ok &= labels == {"answer", "question", "other"}
    criterion(8, "rank-1 variance ratio is 1, the projection subspace matches the "
                 "eigendecomposition oracle, and the dump carries all three "
                 "token classes", ok)
