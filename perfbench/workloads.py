"""The benchmark's workloads.

Every workload builds its inputs from the seed in set-up, then runs whole
rounds of the same operations through qadapt's public functions. Each round
is checked against the numpy reference after it ends, outside the timed
region.

- ``adapt_short``: the paired adaptation seed of the packaged experiment
  (shared warm start, two forks that differ only in beta, then gap and EM
  measurement) on 240 source and 180 synthetic samples of ~64 tokens. Many
  small graphs per step, so per-node Python overhead dominates.
- ``adapt_long``: the same phases on ~220-token sequences and fewer
  samples, where the L^2 attention products and BLAS time dominate. It runs
  by name only (``BY_HAND``) and is not in BENCHMARK.json: with three
  workloads the runs could not be 60 s long and still fit the benchmark's
  time limit.
- ``roundtrip_cli``: ``qadapt synth``, ``generate`` with the roundtrip filter
  on every candidate, a short ``train`` and ``eval``, all through
  ``qadapt.cli.main``. Forward-only inference, checkpoint and JSON I/O and
  manifests dominate.

The warm start is 2 epochs and each fork 1 epoch (the packaged experiment
uses 8 and 2) so that one round fits the run length; the per-step shape the
workload stresses is the experiment's.
"""

from __future__ import annotations

import contextlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qadapt import cli, datagen, evaluation, experiment, losses, model as qmodel, training
from qadapt.losses import ContrastiveConfig
from qadapt.model import EncoderConfig, SpanModel
from qadapt.training import TrainConfig

import checks

LEARNING_RATE = 1e-3
BATCH_SIZE = 12
BETA = 0.001
SIGMA = 0.01
FORK_SEED_OFFSET = 77
KEPT_PER_CONTEXT = 3  # the lm and roundtrip filters keep at most this many of 4x proposals

_SHIFT = dict(vocab_words=30, source_answer_mean=1.89, target_answer_mean=4.43, vocab_shift=1.0)
_ENCODER = dict(hidden_dim=48, num_layers=2, num_heads=4, ff_dim=96, seed=0)


class OpFailed(RuntimeError):
    """An operation of a round did not complete."""


@dataclass
class RoundtripInputs:
    checkpoint: Path
    spec: Path
    report: training.TrainReport
    untokenizable: int


@dataclass
class AdaptInputs:
    source: datagen.DomainDataset
    synthetic: datagen.DomainDataset
    gold: datagen.DomainDataset
    untokenizable: int


def _untokenizable(datasets, max_len: int) -> int:
    bad = 0
    for ds in datasets:
        for s in ds.samples:
            try:
                qmodel.tokenize_sample(s.question, s.context, s.answer_start, s.answer_text,
                                       domain_tag=ds.domain_tag, max_len=max_len)
            except qmodel.TokenizationError:
                bad += 1
    return bad


def _params(model: SpanModel) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in model.parameters().items()}


def _records(result) -> list[tuple]:
    return [(r.prediction, r.gold, r.em, r.f1) for r in result.records]


class AdaptWorkload:
    ops_per_round = 9  # three trainings, the kernel, three gaps, two evaluations
    warm_epochs = 2
    fork_epochs = 1
    max_answer_len = 64

    def __init__(self, name: str, spec: dict, max_len: int):
        self.name = name
        self.spec = datagen.DomainShiftSpec(**_SHIFT, **spec)
        self.encoder = EncoderConfig(**_ENCODER, max_len=max_len)

    def config(self, seed: int, beta: float, epochs: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=LEARNING_RATE, epochs=epochs, batch_size=BATCH_SIZE,
            mixing_policy="mixed", seed=seed, max_answer_len=self.max_answer_len,
            eval_cadence=1, grad_clip=1.0,
            contrastive=ContrastiveConfig(beta=beta, noise_sigma=SIGMA,
                                          sign_variant="similarity-flipped"),
            encoder=self.encoder,
        )

    def setup(self, rec, seed: int, workdir: Path) -> AdaptInputs:
        source, contexts, gold = datagen.make_synthetic_domains(self.spec, seed=seed)
        gen = datagen.fit_toy_generator(contexts, order="bigram", seed=seed)
        kept = []
        for idx, ctx in enumerate(contexts):
            pool = datagen.generate_candidates(gen, ctx, n=4 * KEPT_PER_CONTEXT,
                                               seed=datagen.derive_seed(seed, idx))
            kept.extend(datagen.lm_filter(pool, KEPT_PER_CONTEXT))
        synthetic = datagen.candidates_to_dataset(kept)
        return AdaptInputs(source, synthetic, gold,
                           _untokenizable((source, synthetic, gold), self.encoder.max_len))

    def run_round(self, rec, seed: int, inputs: AdaptInputs, workdir: Path, tick) -> dict:
        src, syn, gold = inputs.source, inputs.synthetic, inputs.gold
        out = {"seed": seed}
        with rec.span("experiment.warm"):
            out["warm"] = training.train(self.config(seed, 0.0, self.warm_epochs), src, syn,
                                         dev_sets={"target": gold})
            tick()
        fork_seed = seed + FORK_SEED_OFFSET
        with rec.span("experiment.fork"):
            for arm, beta in (("baseline", 0.0), ("contrastive", BETA)):
                out[arm] = training.train(self.config(fork_seed, beta, self.fork_epochs),
                                          src, syn, dev_sets={"target": gold},
                                          initial_model=out["warm"][0])
                tick()
        with rec.span("experiment.measure"):
            out["kernel"] = experiment.measurement_kernel(out["baseline"][0], src, gold)
            tick()
            arms = (("baseline", out["baseline"][0]), ("contrastive", out["contrastive"][0]),
                    ("untrained", SpanModel(self.encoder)))
            for arm, m in arms:
                feats = (evaluation.answer_mean_features(m, src),
                         evaluation.answer_mean_features(m, gold))
                out["gap", arm] = (feats, losses.mmd_squared(*feats, out["kernel"]))
                tick()
            for arm, m in arms[:2]:
                rec.label = "eval:" + arm
                out["eval", arm] = evaluation.evaluate(m, gold, self.max_answer_len)
                rec.label = ""
                tick()
        return out

    def check(self, inputs: AdaptInputs, out: dict, span_log) -> list[str]:
        problems = []
        enc = self.encoder
        warm_model, warm_report = out["warm"]
        for phase, beta in (("warm", 0.0), ("baseline", 0.0), ("contrastive", BETA)):
            steps = out[phase][1].steps
            problems += checks.step_identity(
                [(r.loss_ce, r.loss_con, r.loss_total) for r in steps], beta, phase)
        problems += checks.loss_falls([r.loss_total for r in warm_report.steps],
                                      self.warm_epochs, "warm")
        fork_seed = out["seed"] + FORK_SEED_OFFSET
        for arm, beta in (("baseline", 0.0), ("contrastive", BETA)):
            s0 = out[arm][1].steps[0]
            problems += checks.first_batch_loss(
                _params(warm_model), enc.num_layers, enc.num_heads, inputs.source.samples,
                inputs.synthetic.samples, fork_seed, BATCH_SIZE, SIGMA, beta,
                (s0.loss_ce, s0.loss_con, s0.loss_total), f"{arm} fork")
        problems += checks.spans_are_argmax(span_log)
        bandwidths = out["kernel"].bandwidths
        base_feats = out["gap", "baseline"][0]
        problems += checks.measurement_bandwidths(*base_feats, bandwidths, "kernel")
        problems += checks.answer_feature(_params(out["baseline"][0]), enc.num_layers,
                                          enc.num_heads, inputs.gold.samples[0],
                                          base_feats[1][0], "baseline features")
        for arm in ("baseline", "contrastive", "untrained"):
            (fs, fg), gap = out["gap", arm]
            self_gap = losses.mmd_squared(fs, fs, out["kernel"])
            problems += checks.domain_gap(fs, fg, bandwidths, gap, self_gap, f"{arm} gap")
        for arm in ("baseline", "contrastive"):
            result = out["eval", arm]
            records = _records(result)
            logged = [e for e in span_log if e[0] == "eval:" + arm]
            problems += checks.predictions(inputs.gold.samples, records, logged, f"{arm} eval")
            problems += checks.aggregate_scores(records, result.em, result.f1, f"{arm} eval")
            last = out[arm][1].epoch_metrics[-1]
            if (last["em"], last["f1"]) != (result.em, result.f1):
                problems.append(f"{arm}: last-epoch target EM/F1 {last['em']}/{last['f1']} != "
                                f"evaluation {result.em}/{result.f1}")
        return problems


class RoundtripCliWorkload:
    """synth -> eval of the filter model -> generate (roundtrip filter) -> train
    -> eval of the adapted model, through cli.main."""

    name = "roundtrip_cli"
    ops_per_round = 5
    filter_epochs = 2
    train_epochs = 2
    max_answer_len = 48

    def __init__(self):
        self.spec = datagen.DomainShiftSpec(**_SHIFT, n_source=120, n_target_contexts=60,
                                            qa_per_target_context=2, context_words=(6, 9))
        self.encoder = EncoderConfig(**_ENCODER, max_len=128)

    def setup(self, rec, seed: int, workdir: Path) -> RoundtripInputs:
        """Train and save the roundtrip filter model on the seed's source set."""
        source, contexts, gold = datagen.make_synthetic_domains(self.spec, seed=seed)
        gen = datagen.fit_toy_generator(contexts, order="bigram", seed=seed)
        candidates = [c for idx, ctx in enumerate(contexts)
                      for c in datagen.generate_candidates(gen, ctx, n=4 * KEPT_PER_CONTEXT,
                                                           seed=datagen.derive_seed(seed, idx))]
        untokenizable = _untokenizable(
            (source, gold, datagen.candidates_to_dataset(candidates)), self.encoder.max_len)
        config = TrainConfig(
            learning_rate=LEARNING_RATE, epochs=self.filter_epochs, batch_size=BATCH_SIZE,
            mixing_policy="source-only", seed=seed, max_answer_len=self.max_answer_len,
            eval_cadence=0, contrastive=ContrastiveConfig(beta=0.0, noise_sigma=0.0),
            encoder=self.encoder)
        model, report = training.train(config, source)
        workdir.mkdir(parents=True, exist_ok=True)
        checkpoint = workdir / "filter.ckpt"
        model.save(checkpoint)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(vars(self.spec)))
        return RoundtripInputs(checkpoint, spec_path, report, untokenizable)

    def train_config(self, seed: int, d: Path) -> dict:
        return {
            "learning_rate": LEARNING_RATE, "epochs": self.train_epochs, "batch_size": BATCH_SIZE,
            "mixing_policy": "mixed", "seed": seed, "max_answer_len": self.max_answer_len,
            "eval_cadence": 0,
            "contrastive": {"beta": BETA, "noise_sigma": SIGMA,
                            "sign_variant": "similarity-flipped"},
            "encoder": vars(self.encoder),
            "data": {"source": str(d / "synth" / "source.json"),
                     "synthetic": str(d / "generate" / "synthetic.json")},
        }

    def run_round(self, rec, seed: int, inputs: RoundtripInputs, d: Path, tick) -> dict:
        def qadapt(step, *args):
            """One CLI command; its outputs go to d/step."""
            rec.label = "cli." + step
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main([str(a) for a in args] + ["--out", str(d / step)])
            rec.label = ""
            if code != 0:
                raise OpFailed(f"qadapt {args[0]} ({step}) exited with {code}")
            tick()

        gold = d / "synth" / "target_gold.json"
        qadapt("synth", "synth", "--seed", seed, "--spec", inputs.spec)
        qadapt("eval_filter", "eval", "--checkpoint", inputs.checkpoint, "--dataset", gold,
               "--max-answer-len", self.max_answer_len)
        qadapt("generate", "generate", "--contexts", d / "synth" / "target_contexts.jsonl",
               "--k", KEPT_PER_CONTEXT, "--filters", "roundtrip",
               "--checkpoint", inputs.checkpoint, "--seed", seed,
               "--max-answer-len", self.max_answer_len)
        (d / "train.json").write_text(json.dumps(self.train_config(seed, d)))
        qadapt("train", "train", "--config", d / "train.json")
        qadapt("eval", "eval", "--checkpoint", d / "train" / "checkpoint.bin", "--dataset", gold,
               "--max-answer-len", self.max_answer_len)
        return {"dir": d}

    def check(self, inputs: RoundtripInputs, out: dict, span_log) -> list[str]:
        d = out["dir"]
        problems = []
        setup_steps = [(r.loss_ce, r.loss_con, r.loss_total) for r in inputs.report.steps]
        problems += checks.step_identity(setup_steps, 0.0, "filter model")
        problems += checks.loss_falls([s[2] for s in setup_steps], self.filter_epochs,
                                      "filter model")
        lines = (d / "train" / "steps.jsonl").read_text().splitlines()
        steps = [json.loads(line) for line in lines]
        triples = [(s["loss_ce"], s["loss_con"], s["loss_total"]) for s in steps]
        problems += checks.step_identity(triples, BETA, "qadapt train")
        problems += checks.loss_falls([t[2] for t in triples], self.train_epochs, "qadapt train")
        problems += checks.spans_are_argmax(span_log)
        kept = _read_squad(d / "generate" / "synthetic.json")
        problems += checks.roundtrip_kept(kept, inputs.checkpoint, self.max_answer_len,
                                          KEPT_PER_CONTEXT)
        gold = _read_squad(d / "synth" / "target_gold.json")
        for step in ("eval_filter", "eval"):
            metrics = json.loads((d / step / "metrics.json").read_text())
            records = [(r["prediction"], r["gold"], r["em"], r["f1"]) for r in metrics["samples"]]
            logged = [e for e in span_log if e[0] == "cli." + step]
            problems += checks.predictions(gold, records, logged, f"qadapt {step}")
            problems += checks.aggregate_scores(records, metrics["em"], metrics["f1"],
                                                f"qadapt {step}")
        for step in ("synth", "eval_filter", "generate", "train", "eval"):
            problems += checks.manifest(d / step / "manifest.json")
        return problems


@dataclass(frozen=True)
class _Sample:
    question: str
    context: str
    answer_text: str
    answer_start: int


def _read_squad(path: Path) -> list[_Sample]:
    """SQuAD v1.1 file -> samples, read apart from the program's loader."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [_Sample(qa["question"], para["context"], qa["answers"][0]["text"],
                    qa["answers"][0]["answer_start"])
            for article in doc["data"] for para in article["paragraphs"] for qa in para["qas"]]


# Words are 4-6 bytes, so each max_len covers the longest possible question + context.
WORKLOADS = {
    "adapt_short": AdaptWorkload(
        "adapt_short", dict(n_source=240, n_target_contexts=60, qa_per_target_context=2,
                            context_words=(6, 9)), max_len=128),
    "roundtrip_cli": RoundtripCliWorkload(),
}
# Runs by name only: BENCHMARK.json lists WORKLOADS alone, so that its runs can be 60 s long.
BY_HAND = {
    "adapt_long": AdaptWorkload(
        "adapt_long", dict(n_source=40, n_target_contexts=18, qa_per_target_context=2,
                           context_words=(30, 40)), max_len=336),
}
