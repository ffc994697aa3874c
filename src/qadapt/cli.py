"""Command-line entry point: synthesize shifted domains, generate and filter
QA pairs, train with or without the contrastive term, evaluate, and dump
projection diagnostics.

Every subcommand validates its inputs before creating any output, writes all
artifacts under the chosen output directory, and finishes with a manifest
listing the artifacts and their checksums. Exit codes: 0 success, 1 usage or
config problem, 2 runtime failure (a non-finite forward pass outside a
training step included), 3 numerical divergence of a training step.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

from . import datagen, evaluation, training, workers
from .datagen import DatasetError, DomainShiftSpec
from .model import (
    COUNT, NON_NEGATIVE, PATH, SEED, CheckpointError, ConfigError, Rule, SpanModel,
    TokenizationError, check_fields, config_from_json, config_to_json, mapping, optional,
)
from .tensor import NonFiniteError
from .training import DivergenceError

log = logging.getLogger("qadapt")

RUN_ROOT_ENV = "QADAPT_RUN_ROOT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_DIVERGENCE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(out_dir: Path, subcommand: str, config: dict, inputs: dict,
                   outputs: list[Path], unchecksummed: tuple[str, ...] = ("report.json",)) -> Path:
    """Record the run: resolved config, inputs, outputs with content checksums,
    and whether BLAS was pinned to one thread (``workers.BLAS_PINNED``).
    Inputs not given (None, or no dev sets) are left out.
    Files carrying wall-clock timing are listed without a checksum so reruns
    with the same seed stay byte-comparable."""
    artifacts = {}
    for p in outputs:
        rel = p.name
        artifacts[rel] = None if rel in unchecksummed else _sha256(p)
    manifest = {
        "blas_pinned": workers.BLAS_PINNED,
        "subcommand": subcommand,
        "config": config,
        "inputs": {k: str(v) for k, v in inputs.items() if v not in (None, {})},
        "artifacts": artifacts,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path


def _run_root() -> Path:
    return Path(os.environ.get(RUN_ROOT_ENV, "runs"))


def _fresh_out_dir(out: str | None, prefix: str, seed: int) -> Path:
    if out:
        return Path(out)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return _run_root() / f"{prefix}-{stamp}-seed{seed}"


# -- synth ----------------------------------------------------------------------

def cmd_synth(args) -> int:
    overrides = {}
    if args.spec:
        try:
            overrides = json.loads(Path(args.spec).read_text())
        except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read domain spec {args.spec}: {err}") from err
    try:
        spec = config_from_json(DomainShiftSpec, overrides)
    except ConfigError as err:
        raise UsageError(f"invalid domain spec:\n{err}") from err

    source, contexts, gold = datagen.make_synthetic_domains(spec, seed=args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = [out / "source.json", out / "target_contexts.jsonl", out / "target_gold.json"]
    datagen.write_dataset(files[0], source, title="source")
    datagen.write_contexts(files[1], contexts)
    datagen.write_dataset(files[2], gold, title="target-gold")
    files.append(write_manifest(out, "synth", {"seed": args.seed, "spec": config_to_json(spec)},
                                {"spec": args.spec or "<defaults>"}, files))
    print(f"synth: {len(source)} source pairs, {len(contexts)} target contexts, "
          f"{len(gold)} gold pairs -> {out}")
    return EXIT_OK


# -- generate ---------------------------------------------------------------------

def cmd_generate(args) -> int:
    filters = [f for f in args.filters.split(",") if f and f != "none"]
    for f in filters:
        if f not in ("lm", "roundtrip"):
            raise UsageError(f"unknown filter {f!r} (expected none, lm, roundtrip)")
    if "roundtrip" in filters and not args.checkpoint:
        raise UsageError("--checkpoint is required when the roundtrip filter is enabled")

    contexts = datagen.load_contexts(args.contexts)
    if not contexts:
        raise UsageError(f"no contexts in {args.contexts}")
    model = SpanModel.load(args.checkpoint) if "roundtrip" in filters else None

    gen = datagen.fit_toy_generator(contexts, order=args.order, seed=args.seed)
    pools = [datagen.generate_candidates(gen, ctx, n=datagen.CANDIDATE_POOL_FACTOR * args.k,
                                         seed=datagen.derive_seed(args.seed, idx))
             for idx, ctx in enumerate(contexts)]
    raw = [c for pool in pools for c in pool]
    if "lm" in filters:
        pools = [datagen.lm_filter(pool, args.k) for pool in pools]
    if model is not None:
        # one roundtrip call over every context's pool packs them into full chunks
        passed = {id(c) for c in datagen.roundtrip_filter(
            [c for pool in pools for c in pool], model, args.max_answer_len)}
        pools = [[c for c in pool if id(c) in passed] for pool in pools]
    kept = [c for pool in pools for c in pool[:args.k]]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    if not filters:
        files.append(out / "candidates.jsonl")
        datagen.write_candidates(files[0], raw)
    else:
        files.append(out / "synthetic.json")
        datagen.write_dataset(files[0], datagen.candidates_to_dataset(kept), title="synthetic")
    files.append(write_manifest(
        out, "generate",
        {"seed": args.seed, "k": args.k, "filters": args.filters, "order": args.order},
        {"contexts": args.contexts, "checkpoint": args.checkpoint or ""}, files))
    print(f"generate: {len(kept) if filters else len(raw)} records -> {files[0]}")
    return EXIT_OK


# -- train -----------------------------------------------------------------------

@dataclass(frozen=True)
class DataConfig:
    """The ``data`` section of a train config: the dataset files."""

    source: str
    synthetic: str | None = None
    dev: dict = field(default_factory=dict)  # name -> dev dataset file

    def __post_init__(self):
        check_fields(self, source=PATH, synthetic=optional(PATH), dev=mapping(PATH))


def _load_train_spec(path: str) -> tuple[training.TrainConfig, DataConfig]:
    """The train config in ``path`` and its ``data`` section, with the
    problems of both named in one ``ConfigError``."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config: must be a JSON object, got {type(raw).__name__}")
    data = raw.pop("data", {})
    problems, read = [], []
    for cls, section, prefix in ((training.TrainConfig, raw, ""), (DataConfig, data, "data")):
        try:
            read.append(config_from_json(cls, section, prefix))
        except ConfigError as err:
            problems.append(str(err))
    if problems:
        raise ConfigError("\n".join(problems))
    return tuple(read)


def _apply_overrides(config, args):
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    contrastive = config.contrastive
    if args.beta is not None:
        contrastive = replace(contrastive, beta=args.beta)
    if args.sigma is not None:
        contrastive = replace(contrastive, noise_sigma=args.sigma)
    return replace(config, contrastive=contrastive)


def _load_datasets(data: DataConfig):
    source = datagen.load_squad_json(data.source, domain_tag="source")
    synthetic = None
    if data.synthetic:
        synthetic = datagen.load_squad_json(data.synthetic, domain_tag="target_synthetic")
    dev = {name: datagen.load_squad_json(p, domain_tag="source") for name, p in data.dev.items()}
    return source, synthetic, dev


def cmd_train(args) -> int:
    config, data = _load_train_spec(args.config)
    config = _apply_overrides(config, args)
    source, synthetic, dev = _load_datasets(data)

    out = _fresh_out_dir(args.out, "train", config.seed)
    model, report = training.train(config, source, synthetic, dev, run_dir=out)
    files = [out / n for n in ("config.json", "steps.jsonl", "metrics.json",
                               "checkpoint.bin", "report.json")]
    write_manifest(out, "train", config_to_json(config), vars(data), files)
    last = report.steps[-1]
    print(f"train: {len(report.steps)} steps, final loss {last.loss_total:.4f} -> {out}")
    return EXIT_OK


# -- grid -----------------------------------------------------------------------

def _flag(rule: Rule, parse: Callable[[str], object]):
    """Parser of a number flag: ``parse`` reads the text, and the value must
    pass ``rule``, one of the rules that config fields are checked by."""
    def parse_flag(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = text  # not a number at all: the rule rejects it with the same message
        if not rule.accepts(value):
            raise argparse.ArgumentTypeError(f"must be {rule.text}, got {text!r}")
        return value
    return parse_flag


_finite_nonnegative = _flag(NON_NEGATIVE, float)  # a contrastive weight or noise scale
_positive_int = _flag(COUNT, int)  # a count or a length
_seed = _flag(SEED, int)


def _parse_grid(text: str, flag: str) -> list[float]:
    try:
        values = [_finite_nonnegative(v) for v in text.split(",") if v != ""]
    except argparse.ArgumentTypeError as err:
        raise UsageError(f"{flag}: {err} in the comma-separated grid {text!r}") from err
    if not values:
        raise UsageError(f"{flag}: empty grid")
    return values


def cmd_grid(args) -> int:
    config, data = _load_train_spec(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    beta_grid = _parse_grid(args.beta, "--beta")
    sigma_grid = _parse_grid(args.sigma, "--sigma")
    source, synthetic, dev = _load_datasets(data)
    if args.dataset:
        selection = datagen.load_squad_json(args.dataset, domain_tag="source")
    elif dev:
        selection = next(iter(dev.values()))
    else:
        raise UsageError("grid needs --dataset or a dev set in the config")

    result = training.grid_search(config, beta_grid, sigma_grid, args.criterion,
                                  source, synthetic, selection)
    out = _fresh_out_dir(args.out, "grid", config.seed)
    out.mkdir(parents=True, exist_ok=True)
    table = out / "grid.json"
    table.write_text(json.dumps({
        "criterion": args.criterion,
        "best": {"beta": result.best_beta, "sigma": result.best_sigma},
        "cells": result.rows,
    }, indent=1) + "\n")
    write_manifest(out, "grid", config_to_json(config),
                   {**vars(data), "selection": args.dataset or "<dev>"}, [table])
    print(f"grid: best beta={result.best_beta} sigma={result.best_sigma} -> {table}")
    return EXIT_OK


# -- eval -----------------------------------------------------------------------

def cmd_eval(args) -> int:
    model = SpanModel.load(args.checkpoint)
    dataset = datagen.load_squad_json(args.dataset, domain_tag="source")
    result = evaluation.evaluate(model, dataset, args.max_answer_len)

    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
        report = out / "metrics.json"
        report.write_text(json.dumps({
            "checkpoint": str(args.checkpoint),
            "dataset": str(args.dataset),
            "max_answer_len": args.max_answer_len,
            "em": result.em,
            "f1": result.f1,
            "n": result.n,
            "samples": [asdict(r) for r in result.records],
        }, indent=1) + "\n")
        write_manifest(out, "eval", {"max_answer_len": args.max_answer_len},
                       {"checkpoint": args.checkpoint, "dataset": args.dataset}, [report])
    print(f"eval: EM={result.em:.2f} F1={result.f1:.2f} n={result.n}")
    return EXIT_OK


# -- pca ------------------------------------------------------------------------

def cmd_pca(args) -> int:
    model = SpanModel.load(args.checkpoint)
    dataset = datagen.load_squad_json(args.dataset, domain_tag="source")
    feats, labels, ids = evaluation.token_feature_cloud(model, dataset, max_samples=args.max_samples)
    proj = evaluation.pca_project(feats)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump = out / "pca.tsv"
    with open(dump, "w") as fh:
        fh.write("# token feature projection; special tokens labeled: other\n")
        fh.write(f"# explained_variance_ratio\t{proj.explained_variance_ratio[0]:.6f}"
                 f"\t{proj.explained_variance_ratio[1]:.6f}\n")
        fh.write("x\ty\tlabel\tsample_id\n")
        for (x, y), label, sid in zip(proj.coords, labels, ids):
            fh.write(f"{float(x)!r}\t{float(y)!r}\t{label}\t{sid}\n")
    write_manifest(out, "pca", {"max_samples": args.max_samples},
                   {"checkpoint": args.checkpoint, "dataset": args.dataset}, [dump])
    print(f"pca: {len(labels)} tokens, variance ratios "
          f"{proj.explained_variance_ratio[0]:.3f}/{proj.explained_variance_ratio[1]:.3f} -> {dump}")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qadapt", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="synthesize shifted source/target corpora")
    p.add_argument("--spec", help="JSON file overriding domain-shift parameters")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("generate", help="generate and filter synthetic QA pairs")
    p.add_argument("--contexts", required=True, help="JSONL of target contexts")
    p.add_argument("--k", type=_positive_int, default=5, help="max QA pairs kept per context")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--filters", default="lm", help="comma list: none, lm, roundtrip")
    p.add_argument("--checkpoint", help="model used by the roundtrip filter")
    p.add_argument("--order", default="bigram", choices=("unigram", "bigram"))
    p.add_argument("--max-answer-len", type=_positive_int, default=48)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a span model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--beta", type=_finite_nonnegative, help="override contrastive weight")
    p.add_argument("--sigma", type=_finite_nonnegative, help="override embedding noise scale")
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid", help="grid-search contrastive weight and noise scale")
    p.add_argument("--config", required=True)
    p.add_argument("--beta", default="0.1,0.01,0.001", help="comma-separated grid")
    p.add_argument("--sigma", default="0,0.01", help="comma-separated grid")
    p.add_argument("--criterion", default="dev_f1", choices=training.CRITERIA)
    p.add_argument("--dataset", help="selection dataset (defaults to the config dev set)")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--max-answer-len", type=_positive_int, default=48)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pca", help="dump a 2-D projection of token features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--max-samples", type=_positive_int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pca)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, ConfigError) as err:
        print(f"config error:\n{err}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as err:
        step = err.last_finite_step
        print(f"diverged: {err}" + (f" (last finite step {step})" if step >= 0 else ""),
              file=sys.stderr)
        return EXIT_DIVERGENCE
    except (DatasetError, CheckpointError, TokenizationError, NonFiniteError, ValueError,
            OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
