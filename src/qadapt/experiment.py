"""The packaged adaptation experiment: synthesize shifted domains, generate
and filter synthetic QA pairs, train paired models that differ only in the
contrastive weight, and compare domain gaps and target accuracy.

Design: both arms share a warm-start phase trained without the contrastive
term, then fork for a short adaptation phase with identical seeds. Near the
warm-start plateau the task gradient is small, so the arms' difference is
dominated by the contrastive term rather than by chaotic trajectory
divergence, which makes the paired comparison meaningful at tiny weights.
The contrastive term pulls same-class means together and pushes the classes
apart (``losses.contrastive_loss``); the domain gap is measured with a
kernel whose bandwidths are fixed per seed from the baseline arm, so both
arms are compared in the same units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datagen import (
    DomainShiftSpec,
    candidates_to_dataset,
    derive_seed,
    fit_toy_generator,
    generate_candidates,
    lm_filter,
    make_synthetic_domains,
)
from .evaluation import answer_mean_features, evaluate
from .losses import ContrastiveConfig, KernelConfig, mmd_squared
from .model import EncoderConfig, SpanModel
from .tensor import median_scale, sq_dists
from .training import TrainConfig, train
from .workers import split_map

EXPERIMENT_SHIFT = DomainShiftSpec(
    vocab_words=30,
    n_source=240,
    n_target_contexts=60,
    qa_per_target_context=2,
    context_words=(6, 9),
    source_answer_mean=1.89,
    target_answer_mean=4.43,
    vocab_shift=1.0,
)

EXPERIMENT_ENCODER = EncoderConfig(
    hidden_dim=48, num_layers=2, num_heads=4, ff_dim=96, max_len=128, seed=0
)

CANDIDATES_PER_CONTEXT = 12
KEPT_PER_CONTEXT = 3
WARM_EPOCHS = 8
FORK_EPOCHS = 2
FORK_SEED_OFFSET = 77
CONTRASTIVE_BETA = 0.001
NOISE_SIGMA = 0.01
MAX_ANSWER_LEN = 64


@dataclass
class SeedOutcome:
    seed: int
    gap_baseline: float
    gap_contrastive: float
    gap_untrained: float
    em_baseline: float
    em_contrastive: float


@dataclass
class ExperimentResult:
    outcomes: list[SeedOutcome] = field(default_factory=list)

    @property
    def gap_wins(self) -> int:
        return sum(o.gap_contrastive < o.gap_baseline for o in self.outcomes)

    @property
    def untrained_wins(self) -> int:
        return sum(o.gap_contrastive < o.gap_untrained for o in self.outcomes)

    @property
    def mean_em_delta(self) -> float:
        return float(np.mean([o.em_contrastive - o.em_baseline for o in self.outcomes]))


def build_experiment_data(seed: int):
    """Shifted corpora plus likelihood-filtered synthetic target QA pairs."""
    source, contexts, gold = make_synthetic_domains(EXPERIMENT_SHIFT, seed=seed)
    gen = fit_toy_generator(contexts, order="bigram", seed=seed)
    kept = []
    for idx, ctx in enumerate(contexts):
        pool = generate_candidates(gen, ctx, n=CANDIDATES_PER_CONTEXT,
                                   seed=derive_seed(seed, idx))
        kept.extend(lm_filter(pool, KEPT_PER_CONTEXT))
    return source, candidates_to_dataset(kept), gold


def _phase_config(seed: int, beta: float, epochs: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=1e-3,
        epochs=epochs,
        batch_size=12,
        mixing_policy="mixed",
        seed=seed,
        max_answer_len=MAX_ANSWER_LEN,
        eval_cadence=0,
        grad_clip=1.0,
        contrastive=ContrastiveConfig(beta=beta, noise_sigma=NOISE_SIGMA),
        encoder=EXPERIMENT_ENCODER,
    )


def _kernel_from_features(source_features: np.ndarray, gold_features: np.ndarray) -> KernelConfig:
    """``measurement_kernel`` from answer-mean features already encoded."""
    multipliers = (0.5, 1.0, 2.0)
    med = median_scale(sq_dists(np.vstack([source_features, gold_features])), multipliers)
    return KernelConfig(bandwidths=tuple(m * med for m in multipliers))


def measurement_kernel(model: SpanModel, source, gold) -> KernelConfig:
    """Fixed bandwidths from the median pairwise squared distance of the
    model's pooled answer-mean features."""
    return _kernel_from_features(answer_mean_features(model, source),
                                 answer_mean_features(model, gold))


def run_seed(seed: int) -> SeedOutcome:
    """One paired comparison: shared warm start, then a two-arm fork that
    differs only in the contrastive weight."""
    source, synthetic, gold = build_experiment_data(seed)
    warm, _ = train(_phase_config(seed, 0.0, WARM_EPOCHS), source, synthetic)
    fork_seed = seed + FORK_SEED_OFFSET
    baseline, _ = train(_phase_config(fork_seed, 0.0, FORK_EPOCHS),
                        source, synthetic, initial_model=warm)
    contrastive, _ = train(_phase_config(fork_seed, CONTRASTIVE_BETA, FORK_EPOCHS),
                           source, synthetic, initial_model=warm)

    def features(model):
        return answer_mean_features(model, source), answer_mean_features(model, gold)

    # the baseline's features, encoded once, set the kernel and give its gap
    baseline_features = features(baseline)
    kernel = _kernel_from_features(*baseline_features)

    return SeedOutcome(
        seed=seed,
        gap_baseline=mmd_squared(*baseline_features, kernel),
        gap_contrastive=mmd_squared(*features(contrastive), kernel),
        gap_untrained=mmd_squared(*features(SpanModel(EXPERIMENT_ENCODER)), kernel),
        em_baseline=evaluate(baseline, gold, MAX_ANSWER_LEN).em,
        em_contrastive=evaluate(contrastive, gold, MAX_ANSWER_LEN).em,
    )


def run_adaptation_experiment(seeds=range(5), verbose: bool = False) -> ExperimentResult:
    """``run_seed`` of every seed, in seed order. The seeds are independent:
    the worker runs the second half of them (``workers.split_map``), and an
    odd last seed runs here once it has answered, with its training steps
    split across the two cores. Each outcome equals the one a sequential
    run gives, bit for bit."""
    result = ExperimentResult()
    for outcome in split_map(run_seed, seeds):
        result.outcomes.append(outcome)
        if verbose:
            print(
                f"seed {outcome.seed}: gap {outcome.gap_baseline:.5f} -> "
                f"{outcome.gap_contrastive:.5f} (untrained {outcome.gap_untrained:.5f}), "
                f"target EM {outcome.em_baseline:.2f} -> {outcome.em_contrastive:.2f}",
                flush=True,
            )
    return result
