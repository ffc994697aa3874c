#!/usr/bin/env python3
"""End-to-end demo as a documented CLI flag sequence: synthesize shifted
domains, generate filtered QA pairs, train once without and once with the
contrastive term, evaluate both on the target gold set, and dump a token
projection. Everything lands under one workspace directory.

Usage: python3 scripts/run_demo.py [workspace] [--seed N]
"""

import argparse
import json
import sys
from pathlib import Path

from qadapt.cli import main as qadapt

TRAIN_CONFIG = {
    "learning_rate": 1e-3,
    "epochs": 4,
    "batch_size": 12,
    "mixing_policy": "mixed",
    "seed": 0,
    "max_answer_len": 64,
    "eval_cadence": 1,
    "grad_clip": 1.0,
    "optimizer": {"betas": [0.9, 0.999], "eps": 1e-8, "weight_decay": 0.0, "warmup_steps": 0},
    "contrastive": {
        "beta": 0.001,
        "noise_sigma": 0.01,
        "kernel": {"bandwidths": None, "median_multipliers": [0.25, 0.5, 1.0, 2.0, 4.0]},
        "sign_variant": "similarity-flipped",
    },
    "encoder": {"vocab_size": 258, "hidden_dim": 48, "num_layers": 2, "num_heads": 4,
                "ff_dim": 96, "max_len": 128, "seed": 0},
}

DOMAIN_SPEC = {
    "vocab_words": 30,
    "n_source": 240,
    "n_target_contexts": 60,
    "qa_per_target_context": 2,
    "context_words": [6, 9],
    "source_answer_mean": 1.89,
    "target_answer_mean": 4.43,
    "vocab_shift": 1.0,
}


def step(argv: list[str]) -> None:
    print(f"$ qadapt {' '.join(argv)}", flush=True)
    code = qadapt(argv)
    if code != 0:
        sys.exit(code)


def run(workspace: Path, seed: int) -> None:
    workspace.mkdir(parents=True, exist_ok=True)
    spec = workspace / "domain_spec.json"
    spec.write_text(json.dumps(DOMAIN_SPEC, indent=1))

    domains = workspace / "domains"
    step(["synth", "--spec", str(spec), "--seed", str(seed), "--out", str(domains)])

    generated = workspace / "generated"
    step(["generate", "--contexts", str(domains / "target_contexts.jsonl"),
          "--k", "5", "--seed", str(seed), "--out", str(generated)])

    config = dict(TRAIN_CONFIG)
    config["seed"] = seed
    config["data"] = {
        "source": str(domains / "source.json"),
        "synthetic": str(generated / "synthetic.json"),
        "dev": {"target": str(domains / "target_gold.json")},
    }
    cfg_path = workspace / "train.json"
    cfg_path.write_text(json.dumps(config, indent=1))

    run_plain = workspace / "run-plain"
    run_contrastive = workspace / "run-contrastive"
    step(["train", "--config", str(cfg_path), "--beta", "0", "--out", str(run_plain)])
    step(["train", "--config", str(cfg_path), "--beta", "0.001", "--sigma", "0.01",
          "--out", str(run_contrastive)])

    for run_dir in (run_plain, run_contrastive):
        step(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
              "--dataset", str(domains / "target_gold.json"),
              "--out", str(run_dir / "target-metrics")])

    step(["pca", "--checkpoint", str(run_contrastive / "checkpoint.bin"),
          "--dataset", str(domains / "target_gold.json"),
          "--max-samples", "6", "--out", str(workspace / "projection")])
    print(f"\ndemo artifacts under {workspace}/", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workspace", nargs="?", default="demo-workspace")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run(Path(args.workspace), args.seed)
