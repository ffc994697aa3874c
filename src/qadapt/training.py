"""End-to-end training: mixed-domain batch sampling, adaptive gradient descent
on the combined objective (the span cross-entropy plus beta times the
contrastive term), hyperparameter grid search, and run reporting.

Every step splits its batch into two contiguous halves of about equal token
count (``_split_point``). Each half encodes and scores its own samples as one
packed graph (``_half_step``); the halves exchange only their class-mean rows
and cross-entropy shares, so that each builds the loss of the whole batch
with the other's terms as the constant offsets of ``tensor.weighted_sum``
(a float and an array, not graph nodes), and each backpropagates its own
graph. The two gradients are summed in a fixed order, first half plus
second, then clipped and applied. Each ``train`` call holds one session
on the worker (``workers.session``), which runs the second halves while this
process runs the first; the config and the tokenized samples go to it once,
when the session opens, and each step sends only the batch's sample indices.
The parameters and the second half's gradient live in memory both processes
map (``workers.shared_zeros``). Between steps, the same session scores the
second half of each per-epoch dev evaluation, as the answer to one
``score`` request (``evaluation.evaluate``), against the parameters just
stepped. Where the worker cannot be used, the same work runs here in the
same order, so the artifacts do not depend on where the second halves ran.

A run directory holds a resolved config snapshot, a one-record-per-step log
of the losses and the pre-clip gradient norm, per-epoch evaluation metrics,
and the final checkpoint. All artifacts are deterministic for a given seed;
wall-clock timing is kept out of them and reported separately.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import tensor as T
from . import workers
from .datagen import DomainDataset, derive_seed
from .evaluation import evaluate, score_samples
from .losses import (
    ContrastiveConfig,
    MalformedSampleError,
    class_means,
    contrastive_loss,
    span_cross_entropy,
)
from .model import (
    COUNT, NON_NEGATIVE, POSITIVE, SEED, SOURCE, TARGET_SYNTHETIC, ConfigError, EncoderConfig,
    PackedBatch, SpanModel, TokenizationError, check_fields, config_to_json,
    integer, items, one_of, real, tokenize_samples,
)
from .model import tokenize_sample  # noqa: F401  unused; perfbench/tracing.py patches it here

log = logging.getLogger(__name__)

MIX_MIXED = "mixed"
MIX_SOURCE_ONLY = "source-only"


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss; carries the last finite step index."""

    def __init__(self, message: str, last_finite_step: int, report: "TrainReport | None" = None):
        super().__init__(message)
        self.last_finite_step = last_finite_step
        self.report = report

    def __reduce__(self):  # rebuilt whole when raised in the worker (workers.split_map)
        return type(self), (str(self), self.last_finite_step, self.report)


@dataclass(frozen=True)
class OptimizerConfig:
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0  # decoupled; off by default
    warmup_steps: int = 0  # none by default

    def __post_init__(self):
        check_fields(self, betas=items(real(0, 1), length=2), eps=POSITIVE,
                     weight_decay=NON_NEGATIVE, warmup_steps=integer(0))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    epochs: int = 2
    batch_size: int = 16
    mixing_policy: str = MIX_MIXED
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    max_answer_len: int = 48
    eval_cadence: int = 1  # epochs between dev evaluations; 0 disables
    grad_clip: float = 1.0
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self):
        check_fields(self, learning_rate=POSITIVE, epochs=COUNT, batch_size=COUNT,
                     mixing_policy=one_of(MIX_MIXED, MIX_SOURCE_ONLY), seed=SEED,
                     max_answer_len=COUNT, eval_cadence=integer(0), grad_clip=POSITIVE)
        if self.batch_size < 2 and self.mixing_policy == MIX_MIXED:
            raise ConfigError("batch_size: must be >= 2 under the mixed 1:1 policy")


@dataclass
class StepRecord:
    step: int
    loss_ce: float
    loss_con: float
    loss_total: float
    grad_norm: float  # before clipping


@dataclass
class TrainReport:
    steps: list[StepRecord]
    epoch_metrics: list[dict]
    wall_clock_s: float
    seed: int
    final_epoch_mean_loss: float


class AdamW:
    """Decoupled-weight-decay adaptive optimizer with bias correction, over
    one parameter vector (``SpanModel.flat``) updated in place: a step is a
    handful of whole-vector numpy calls on a gradient in the same order
    (``SpanModel.flat_grad``)."""

    def __init__(self, flat: np.ndarray, lr: float, config: OptimizerConfig):
        self.lr = lr
        self.config = config
        self.t = 0
        self.flat = flat
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)

    def step(self, grad: np.ndarray) -> None:
        b1, b2 = self.config.betas
        self.t += 1
        lr = self.lr
        if self.config.warmup_steps > 0:
            lr = lr * min(1.0, self.t / self.config.warmup_steps)
        self.m *= b1
        self.m += (1 - b1) * grad
        self.v *= b2
        self.v += (1 - b2) * grad * grad
        update = self.m / (1 - b1**self.t)
        denom = self.v / (1 - b2**self.t)
        np.sqrt(denom, out=denom)
        denom += self.config.eps
        update /= denom
        if self.config.weight_decay:  # off by default: skip two passes over the buffer
            update += self.config.weight_decay * self.flat
        update *= lr
        self.flat -= update


def clip_gradients(grad: np.ndarray, cap: float) -> float:
    """Scale a flat gradient in place so its norm is at most cap; returns
    the pre-clip norm."""
    norm = math.sqrt(float(np.einsum("i,i->", grad, grad)))
    if cap < norm < math.inf:
        grad *= cap / norm
    return norm


def mixed_batch_sampler(
    source: Sequence,
    synthetic: Sequence,
    batch_size: int,
    policy: str,
    seed: int,
    epochs: int = 1,
) -> Iterator[tuple[int, list]]:
    """Yield (epoch, batch) pairs. Under the mixed policy every batch holds
    both domains at a 1:1 ratio (rounded toward source) while both last; each
    epoch is one reshuffled pass visiting every item exactly once."""
    if policy not in (MIX_MIXED, MIX_SOURCE_ONLY):
        raise ConfigError(f"mixing_policy: unknown policy {policy!r}")
    if policy == MIX_MIXED:
        if batch_size < 2:
            raise ConfigError("batch_size: must be >= 2 under the mixed 1:1 policy")
        if len(source) == 0 or len(synthetic) == 0:
            raise ConfigError("mixed policy requires non-empty source and synthetic sets")
    elif len(source) == 0:
        raise ConfigError("source dataset is empty")

    n_src = (batch_size + 1) // 2
    n_syn = batch_size // 2
    for epoch in range(epochs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C4, epoch]))
        src = [source[i] for i in rng.permutation(len(source))]
        if policy == MIX_SOURCE_ONLY:
            for i in range(0, len(src), batch_size):
                yield epoch, src[i:i + batch_size]
            continue
        syn = [synthetic[i] for i in rng.permutation(len(synthetic))]
        si = ti = 0
        while si < len(src) or ti < len(syn):
            batch = src[si:si + n_src] + syn[ti:ti + n_syn]
            si = min(si + n_src, len(src))
            ti = min(ti + n_syn, len(syn))
            # one side exhausted: fill the batch from the other
            while len(batch) < batch_size and si < len(src):
                batch.append(src[si])
                si += 1
            while len(batch) < batch_size and ti < len(syn):
                batch.append(syn[ti])
                ti += 1
            yield epoch, batch


def _split_point(batch: Sequence) -> int:
    """Where a training batch is cut into two contiguous halves of about
    equal token count, ``batch[:cut]`` and ``batch[cut:]``: the first cut
    that minimizes the difference. A one-sample batch has an empty second
    half."""
    if len(batch) < 2:
        return len(batch)
    tokens = np.cumsum([len(ts) for ts in batch])
    return 1 + int(np.argmin(np.abs(2 * tokens[:-1] - tokens[-1])))


def _half_step(model: SpanModel, batch: Sequence, lo: int, hi: int, config: TrainConfig,
               step: int):
    """The forward pass of the half ``batch[lo:hi]`` of a training step, as
    one packed graph. Returns what the other half needs from it, and
    ``losses(theirs)``, which takes the other half's.

    A half hands over its share of the batch's mean cross-entropy and its
    rows of the batch's class-mean stack. ``losses`` takes the other half's
    as constant offsets of ``weighted_sum``, so that both halves build the
    same loss over the whole batch, and returns the batch's cross-entropy
    and contrastive term as floats, and the loss node; ``theirs`` is None
    when the other half is empty. The gradients of the two halves' losses
    sum to the gradient of the loss of the whole batch."""
    cc = config.contrastive
    half = PackedBatch.pack(batch[lo:hi])
    noise_seeds = [derive_seed(config.seed, 0x401535, step, i) for i in range(lo, hi)]
    features = model.encode(half, noise_sigma=cc.noise_sigma, noise_seed=noise_seeds)
    ce = span_cross_entropy(model.span_logits(features), half)
    share = (hi - lo) / len(batch)
    my_ce = ce.item() * share
    means = class_means(features, half, len(batch), lo)

    def losses(theirs) -> tuple[float, float, T.Tensor]:
        their_ce, their_means = (0.0, 0.0) if theirs is None else theirs
        con = contrastive_loss(T.weighted_sum([means], [1.0], their_means), cc)
        return my_ce + their_ce, con.item(), T.weighted_sum([ce, con], [share, cc.beta], their_ce)

    return (my_ce, means.data), losses


def _train_partner(config: TrainConfig, pool: Sequence, shared: np.ndarray):
    """The partner's side of ``train``, wherever it runs: a ``serve`` over
    one model on the parameters ``shared[0]``. It answers ``("score", samples,
    max_answer_len)`` with the records, and ``("step", at, ids, cut)``, the
    second half over ``pool[k]`` of ``ids``, with what the first half needs;
    ``("finish", theirs)`` then puts the second half's gradient in ``shared[1]``."""
    model = SpanModel(config.encoder, flat=shared[0])
    pending = []  # the losses of the step whose second half ran last

    def serve(request):
        if request[0] == "score":
            return score_samples(model, *request[1:])
        if request[0] == "step":
            _, at, ids, cut = request
            batch = [pool[k] for k in ids]
            mine, losses = _half_step(model, batch, cut, len(batch), config, at)
            pending.append(losses)
            return mine
        *_, loss = pending.pop()(request[1])
        model.zero_grad()
        T.backward(loss)
        model.flat_grad(out=shared[1])
    return serve


def train(
    config: TrainConfig,
    source: DomainDataset,
    synthetic: DomainDataset | None = None,
    dev_sets: dict[str, DomainDataset] | None = None,
    run_dir: Path | str | None = None,
    initial_model: SpanModel | None = None,
) -> tuple[SpanModel, TrainReport]:
    """Gradient descent on the combined objective over mixed batches. Emits the
    final checkpoint and a full report; aborts with the last finite step on a
    non-finite loss or gradient norm, before that step's update.
    ``initial_model`` warm-starts from an existing checkpoint instead of a
    fresh initialization (optimizer state starts fresh)."""
    started = time.perf_counter()
    dev_sets = dev_sets or {}
    for name, ds in dev_sets.items():
        if len(ds) == 0:
            raise ValueError(f"dev set {name!r} has no samples")
    max_len = config.encoder.max_len
    src_tok = [ts for _, ts in tokenize_samples(source.samples, SOURCE, max_len)]
    syn_tok = ([ts for _, ts in tokenize_samples(synthetic.samples, TARGET_SYNTHETIC, max_len)]
               if synthetic is not None else [])
    if not src_tok:
        raise ConfigError("source dataset has no tokenizable samples")
    policy = config.mixing_policy if syn_tok else MIX_SOURCE_ONLY

    if initial_model is not None and initial_model.config != config.encoder:
        raise ConfigError("initial model config does not match encoder config")
    pool = src_tok + syn_tok
    # the parameters, then the second half's gradient, in memory the worker shares
    start = (initial_model or SpanModel(config.encoder)).flat
    shared = workers.shared_zeros((2, start.size))
    shared[0] = start
    model = SpanModel(config.encoder, flat=shared[0])
    optimizer = AdamW(model.flat, config.learning_rate, config.optimizer)
    steps: list[StepRecord] = []
    epoch_metrics: list[dict] = []
    beta = config.contrastive.beta

    last_epoch_first_step = 0

    def build_report() -> TrainReport:
        tail = [r.loss_total for r in steps[last_epoch_first_step:]]
        return TrainReport(
            steps=steps,
            epoch_metrics=epoch_metrics,
            wall_clock_s=time.perf_counter() - started,
            seed=config.seed,
            final_epoch_mean_loss=float(np.mean(tail)) if tail else float("nan"),
        )

    def diverged(message: str) -> DivergenceError:
        """The error for a non-finite step; the run directory keeps the
        config and the finite steps before it."""
        report = build_report()
        if run_dir is not None:
            _write_config_and_steps(Path(run_dir), config, report.steps)
        return DivergenceError(message, step - 1, report)

    step = 0
    current_epoch = -1
    with workers.session(_train_partner, config, pool, shared) as partner:
        for epoch, ids in mixed_batch_sampler(range(len(src_tok)), range(len(src_tok), len(pool)),
                                              config.batch_size, policy, config.seed,
                                              epochs=config.epochs):
            batch = [pool[k] for k in ids]
            if epoch != current_epoch:
                if current_epoch >= 0:
                    _maybe_evaluate(model, dev_sets, config, current_epoch, epoch_metrics, partner)
                current_epoch = epoch
                last_epoch_first_step = step
            cut = _split_point(batch)
            split = cut < len(batch)
            try:
                if split:
                    partner.send(("step", step, ids, cut))
                mine, losses = _half_step(model, batch, 0, cut, config, step)
                theirs = None
                if split:
                    theirs = partner.recv()
                    partner.send(("finish", mine))
                l_ce, l_con, loss = losses(theirs)
                l_qa = loss.item()
                model.zero_grad()
                T.backward(loss)
                grad = model.flat_grad()
                if split:
                    partner.recv()
                    grad += shared[1]  # the halves' gradients summed in a fixed order
            except T.NonFiniteError as err:
                raise diverged(f"non-finite loss at step {step}: {err}") from err
            # the graph's total against the float sum of its logged terms
            if abs(l_qa - (l_ce + beta * l_con)) > 1e-12:
                raise RuntimeError(f"step {step}: loss_total {l_qa!r} != loss_ce {l_ce!r} "
                                   f"+ beta * loss_con {l_con!r}")
            grad_norm = clip_gradients(grad, config.grad_clip)
            if not math.isfinite(grad_norm):
                raise diverged(f"non-finite gradient norm at step {step}")
            optimizer.step(grad)
            steps.append(StepRecord(step=step, loss_ce=l_ce, loss_con=l_con, loss_total=l_qa,
                                    grad_norm=grad_norm))
            step += 1
        _maybe_evaluate(model, dev_sets, config, current_epoch, epoch_metrics, partner)

    report = build_report()
    if run_dir is not None:
        write_run_dir(Path(run_dir), model, config, report)
    return model, report


def _maybe_evaluate(model, dev_sets, config, epoch, epoch_metrics, partner):
    if config.eval_cadence == 0 or (epoch + 1) % config.eval_cadence != 0:
        return
    for name, ds in dev_sets.items():
        result = evaluate(model, ds, config.max_answer_len, partner)
        epoch_metrics.append(
            {"epoch": epoch, "dataset": name, "em": result.em, "f1": result.f1, "n": result.n}
        )


def _write_config_and_steps(run_dir: Path, config: TrainConfig, steps: list[StepRecord]) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(
        json.dumps(config_to_json(config), indent=1, sort_keys=True) + "\n")
    with open(run_dir / "steps.jsonl", "w") as fh:
        for r in steps:
            fh.write(json.dumps({"step": r.step, "loss_ce": r.loss_ce, "loss_con": r.loss_con,
                                 "loss_total": r.loss_total, "grad_norm": r.grad_norm}) + "\n")


def write_run_dir(run_dir: Path, model: SpanModel, config: TrainConfig, report: TrainReport) -> None:
    """Persist the run: config snapshot, step log, epoch metrics, checkpoint,
    and a timing report (the only non-deterministic file). A diverged run
    keeps only the config snapshot and the step log up to its last finite
    step."""
    _write_config_and_steps(run_dir, config, report.steps)
    (run_dir / "metrics.json").write_text(json.dumps(report.epoch_metrics, indent=1) + "\n")
    model.save(run_dir / "checkpoint.bin")
    (run_dir / "report.json").write_text(json.dumps({
        "seed": report.seed,
        "wall_clock_s": report.wall_clock_s,
        "final_epoch_mean_loss": report.final_epoch_mean_loss,
        "n_steps": len(report.steps),
    }, indent=1) + "\n")


# -- grid search -------------------------------------------------------------------

CRITERIA = ("dev_f1", "dev_em", "train_loss")


@dataclass
class GridResult:
    best_beta: float
    best_sigma: float
    rows: list[dict]


def grid_search(
    base: TrainConfig,
    beta_grid: Sequence[float],
    sigma_grid: Sequence[float],
    criterion: str,
    source: DomainDataset,
    synthetic: DomainDataset | None,
    selection: DomainDataset,
) -> GridResult:
    """Train one model per (beta, sigma) cell with a shared seed, score each on
    the selection set, and pick the best; ties prefer smaller beta, then sigma.
    A cell that diverges or meets a malformed or untokenizable sample is
    logged, recorded as failed and skipped. If all fail, the first error that
    is not a divergence is raised again, else a ``DivergenceError``."""
    if criterion not in CRITERIA:
        raise ConfigError(f"criterion: unknown criterion {criterion!r}")
    if not beta_grid or not sigma_grid:
        raise ConfigError("grids must be non-empty")
    if len(selection) == 0:
        raise ValueError("selection set has no samples")
    rows, errors = [], []
    for beta in beta_grid:
        for sigma in sigma_grid:
            config = replace(
                base, contrastive=replace(base.contrastive, beta=beta, noise_sigma=sigma)
            )
            row = {"beta": beta, "sigma": sigma, "status": "ok"}
            try:
                model, report = train(config, source, synthetic)
                result = evaluate(model, selection, config.max_answer_len)
                row.update(em=result.em, f1=result.f1,
                           train_loss=report.final_epoch_mean_loss)
            except (DivergenceError, T.NonFiniteError, MalformedSampleError,
                    TokenizationError) as err:
                log.warning("grid cell beta=%g sigma=%g failed: %s", beta, sigma, err)
                row["status"] = "failed"
                errors.append(err)
            rows.append(row)

    def score(row):
        if criterion == "dev_f1":
            return -row["f1"]
        if criterion == "dev_em":
            return -row["em"]
        return row["train_loss"]

    ok = [r for r in rows if r["status"] == "ok"]
    if not ok:
        raise next((e for e in errors if not isinstance(e, DivergenceError)),
                   DivergenceError("every grid cell diverged", -1))
    best = min(ok, key=lambda r: (score(r), r["beta"], r["sigma"]))
    return GridResult(best_beta=best["beta"], best_sigma=best["sigma"], rows=rows)
