"""qadapt benchmark.

    python3 perfbench/run.py --workload adapt_short --seed 1 --seconds 60 --trace 0

Builds the workload's inputs from the seed (set-up, done three times and then
again about every SETUP_EVERY_S seconds between operations),
then runs whole rounds of the workload for about --seconds seconds, checks
every round's outputs against a numpy reference, and prints the metrics. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The traced run also writes its spans to
.perfbench_out/. ``--workload all`` runs every workload of BENCHMARK.json in
this process; ``--workload adapt_long`` runs the one workload it leaves out.

Run from the root of a qadapt checkout; the program is imported from src/.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_EVERY_S = 15.0
THREADS = str(min(2, len(os.sched_getaffinity(0))))

E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "train_samples_per_s": "samples/s", "step_ms_p50": "ms",
    "infer_samples_per_s": "samples/s", "predict_ms_p50": "ms", "predict_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span whose time it reports (self time for cli.main)
LAYER_SPANS = {
    "tensor.backward_s": "tensor.backward",
    "model.encode_train_s": "model.encode_train",
    "model.encode_infer_s": "model.encode_infer",
    "model.predict_span_s": "model.predict_span",
    "model.tokenize_s": "model.tokenize",
    "model.checkpoint_s": "model.checkpoint",
    "losses.contrastive_s": "losses.contrastive",
    "losses.span_ce_s": "losses.span_ce",
    "losses.class_means_s": "losses.class_means",
    "losses.mmd_s": "losses.mmd",
    "training.optimizer_s": "training.optimizer",
    "training.clip_s": "training.clip",
    "training.sampler_wait_s": "training.sampler_wait",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "evaluation.features_s": "evaluation.features",
    "datagen.synth_s": "datagen.synth",
    "datagen.generate_s": "datagen.generate",
    "datagen.lm_filter_s": "datagen.lm_filter",
    "datagen.roundtrip_s": "datagen.roundtrip",
    "datagen.io_s": "datagen.io",
    "experiment.warm_s": "experiment.warm",
    "experiment.fork_s": "experiment.fork",
    "experiment.measure_s": "experiment.measure",
}


class _SkipCounter(logging.Handler):
    """Counts qadapt's warnings: skipped, dropped or zero-scored samples."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def run_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    from tracing import Recorder

    rec = Recorder(traced)
    skips = _SkipCounter()
    logging.getLogger("qadapt").addHandler(skips)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    attempted = failed = 0
    problems: list[str] = []
    setup_s: list[float] = []
    round_s: list[float] = []
    rounds = 0

    def set_up():
        phase, round_id = rec.phase, rec.round_id
        rec.phase, rec.round_id = "setup", f"setup-{len(setup_s)}"
        started = time.perf_counter()
        inputs = workload.setup(rec, seed, workdir / rec.round_id)
        setup_s.append(time.perf_counter() - started)
        rec.phase, rec.round_id = phase, round_id
        return inputs

    rec.install()
    try:
        measuring = time.perf_counter()
        for _ in range(3):
            inputs = set_up()
        rec.phase = "round"
        last_setup = time.perf_counter()
        done = 0

        def tick():
            # repeat the set-up every SETUP_EVERY_S between operations, so that its
            # median samples the whole run; its time is left out of every span
            nonlocal done, last_setup
            done += 1
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                started = time.perf_counter()
                set_up()
                rec.overhead += time.perf_counter() - started
                last_setup = time.perf_counter()

        while True:
            rec.round_id = f"round-{rounds}"
            shutil.rmtree(workdir / "round", ignore_errors=True)
            (workdir / "round").mkdir(parents=True)
            rec.span_log.clear()
            out = None
            done = 0
            started = rec.clock()
            try:
                out = workload.run_round(rec, seed, inputs, workdir / "round", tick)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            elapsed = rec.clock() - started
            rounds += 1
            attempted += workload.ops_per_round
            failed += workload.ops_per_round - done
            if out is not None:
                round_s.append(elapsed)
                try:
                    problems += workload.check(inputs, out, rec.span_log)
                except Exception as err:  # a missing or malformed output
                    problems.append(f"checking round {rounds}: {err!r}")
            wall = time.perf_counter() - measuring
            if wall + wall / rounds > seconds:
                break
    finally:
        rec.uninstall()
        logging.getLogger("qadapt").removeHandler(skips)
        shutil.rmtree(workdir, ignore_errors=True)
    if not round_s:
        raise RuntimeError(f"{workload.name}: every round failed")
    skipped = inputs.untokenizable + skips.count
    if skipped:
        problems.append(f"{skipped} sample(s) skipped as untokenizable or dropped")
    result = {
        "workload": workload.name, "rounds": rounds, "setups": len(setup_s), "skipped": skipped,
        "problems": problems, "attempted": attempted, "failed": failed,
        "e2e": e2e_metrics(rec, setup_s, round_s),
    }
    if traced:
        result["layers"] = layer_metrics(rec, len(setup_s), rounds)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
        rec.write_spans(path)
        result["trace_file"] = str(path)
        result["count_overhead_s"] = rec.counting_s
    return result


def _percentile(values, q: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def e2e_metrics(rec, setup_s, round_s) -> dict:
    t = rec.time
    infer_time = sum(t[("round", n)] for n in
                     ("evaluation.evaluate", "training.dev_eval", "evaluation.features",
                      "datagen.roundtrip"))
    infer_samples = sum(rec.counts[("round", n)] for n in
                        ("evaluation.samples", "evaluation.features_samples",
                         "datagen.roundtrip_candidates"))
    return {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(round_s),
        "train_samples_per_s": rec.counts[("round", "training.samples")]
        / (t[("round", "training.train")] - t[("round", "training.dev_eval")]),
        "step_ms_p50": statistics.median(rec.step_ms),
        "infer_samples_per_s": infer_samples / infer_time,
        "predict_ms_p50": statistics.median(rec.predict_ms),
        "predict_ms_p90": _percentile(rec.predict_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(rec, setups: int, rounds: int) -> dict:
    """Per-layer figures for one set-up plus one round, each averaged."""

    def per(table, name):
        return table[("setup", name)] / setups + table[("round", name)] / rounds

    def ratio(num, den):
        d = per(rec.counts, den)
        return per(rec.counts, num) / d if d else 0.0

    out = {metric: per(rec.time, span) for metric, span in LAYER_SPANS.items()}
    out["evaluation.evaluate_s"] += per(rec.time, "training.dev_eval")
    out["cli.self_s"] = per(rec.self_time, "cli.main")
    out["training.forward_s"] = per(rec.time, "training.step") - sum(
        out[m] for m in ("tensor.backward_s", "training.clip_s", "training.optimizer_s"))
    out["tensor.nodes_per_step"] = ratio("tensor.step_nodes", "training.steps")
    out["tensor.nodes_per_predict"] = ratio("tensor.predict_nodes", "model.predicts")
    out["model.encode_calls"] = per(rec.counts, "model.encode_calls")
    out["training.steps"] = per(rec.counts, "training.steps")
    out["evaluation.samples_scored"] = per(rec.counts, "evaluation.samples")
    out["datagen.roundtrip_kept_ratio"] = ratio("datagen.roundtrip_kept",
                                                "datagen.roundtrip_candidates")
    return out


LAYER_UNITS = {**{m: "s" for m in LAYER_SPANS}, "cli.self_s": "s", "training.forward_s": "s",
               "tensor.nodes_per_step": "count", "tensor.nodes_per_predict": "count",
               "model.encode_calls": "count", "training.steps": "count",
               "evaluation.samples_scored": "count", "datagen.roundtrip_kept_ratio": "ratio"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qadapt" / "__init__.py").is_file():
        print(f"error: no qadapt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS pools are sized when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import BY_HAND, WORKLOADS

    known = {**WORKLOADS, **BY_HAND}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {', '.join(known)} or all",
              file=sys.stderr)
        return 2
    results = [run_workload(known[n], args.seed, args.seconds, bool(args.trace)) for n in names]

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for r in results:
        print(f"{r['workload']} seed {args.seed}: {r['setups']} set-ups, {r['rounds']} round(s), "
              f"{r['attempted']} operations, {r['failed']} failed, {r['skipped']} skipped, "
              f"{len(r['problems'])} check problem(s); {THREADS} BLAS thread(s)")
        for p in r["problems"]:
            print(f"  CHECK FAILED: {p}")
        metrics = {m: {"value": v, "unit": E2E_UNITS[m]} for m, v in r["e2e"].items()}
        if args.trace:
            print(f"  trace: {r['trace_file']} (node counting took {r['count_overhead_s']:.3f} s, "
                  f"left out of the spans)")
            for m, v in r["e2e"].items():
                print(f"  traced {m:<24} {v:14.4f} {E2E_UNITS[m]}")
            metrics = {m: {"value": v, "unit": LAYER_UNITS[m]} for m, v in r["layers"].items()}
        for m, v in metrics.items():
            print(f"  {m:<30} {v['value']:14.6f} {v['unit']}")
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        summary["metrics"].update({prefix + m: v for m, v in metrics.items()})
        summary["correct"] = summary["correct"] and not r["problems"]
        summary["attempted"] += r["attempted"]
        summary["failed"] += r["failed"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
