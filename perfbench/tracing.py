"""Wrappers around qadapt's public functions that time them, count their work
and keep what the output checks need.

Each wrapper replaces a name where its caller looks it up (for example
``qadapt.training.contrastive_loss``, which ``train`` calls by that global
name), and ``Recorder.uninstall`` puts every original back. The untraced run
installs only the wrappers that the end-to-end metrics and the output checks
need; the traced run installs all of them, keeps every span in memory
(name, start, end, parent, round) and writes the spans out when it ends.

Time the benchmark spends on its own work in between (counting graph nodes,
set-ups repeated between operations) is added to ``Recorder.overhead`` and
left out of every span, step interval and round.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import qadapt.cli
import qadapt.datagen
import qadapt.evaluation
import qadapt.experiment
import qadapt.losses
import qadapt.model
import qadapt.tensor
import qadapt.training

INFER_SPANS = ("evaluation.evaluate", "training.dev_eval", "evaluation.features",
               "datagen.roundtrip")


def count_graph_nodes(*roots) -> int:
    """Recorded autodiff nodes (tensors with parents) reachable from roots."""
    seen: set[int] = set()
    stack = list(roots)
    count = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        parents = getattr(t, "_parents", ())
        if parents:
            count += 1
            stack.extend(parents)
    return count


class Recorder:
    """Span and counter bookkeeping for one benchmark run.

    Totals are kept per phase ("setup" or "round") so that the end-to-end
    metrics read only the timed rounds and the per-layer metrics can be
    given per set-up plus per round.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.phase = "setup"
        self.round_id = ""
        self.label = ""
        self.time = defaultdict(float)  # (phase, span name) -> seconds
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)  # (phase, counter) -> value
        self.predict_ms: list[float] = []
        self.step_ms: list[float] = []
        self.spans: list[tuple] = []
        self.span_log: list[tuple] = []  # predict_span calls kept for the checks
        self.overhead = 0.0
        self.counting_s = 0.0  # the part of overhead spent counting graph nodes
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def clock(self) -> float:
        return time.perf_counter() - self.overhead

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.phase, name)] += value

    def active(self, names) -> bool:
        return any(frame[0] in names for frame in self._stack)

    @contextmanager
    def span(self, name: str):
        frame = [name, self.clock(), 0.0, len(self.spans)]
        parent = self._stack[-1][3] if self._stack else -1
        if self.traced:
            self.spans.append(None)
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            end = self.clock()
            duration = end - frame[1]
            self.time[(self.phase, name)] += duration
            self.self_time[(self.phase, name)] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            if self.traced:
                self.spans[frame[3]] = (name, frame[1], end, parent, self.round_id)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, owner, attr, name, after=None):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    out = original(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            return wrapper
        self._patch(owner, attr, make)

    def install(self) -> None:
        m, ev, dg, tr = qadapt.model, qadapt.evaluation, qadapt.datagen, qadapt.training
        # needed by the end-to-end metrics and the output checks
        self._timed(tr, "train", "training.train")
        self._patch(tr, "mixed_batch_sampler", self._wrap_sampler)
        for owner, name in ((ev, "evaluation.evaluate"), (tr, "training.dev_eval")):
            self._timed(owner, "evaluate", name,
                        after=lambda a, out: self.count("evaluation.samples", len(a[1])))
        for owner in (ev, qadapt.experiment):
            self._timed(owner, "answer_mean_features", "evaluation.features",
                        after=lambda a, out: self.count("evaluation.features_samples", len(a[1])))
        self._timed(dg, "roundtrip_filter", "datagen.roundtrip", after=self._after_roundtrip)
        self._patch(ev, "predict_answer", self._wrap_predict_answer)
        for owner in (ev, dg):
            self._patch(owner, "predict_span", self._wrap_predict_span)
        if not self.traced:
            return
        self._patch(qadapt.tensor, "backward", self._wrap_backward)
        self._patch(m.SpanModel, "encode", self._wrap_encode)
        self._timed(m.SpanModel, "save", "model.checkpoint")
        load = m.SpanModel.__dict__["load"].__func__
        self._undo.append((m.SpanModel, "load", m.SpanModel.__dict__["load"]))

        def load_wrapper(cls, *args, **kwargs):
            with self.span("model.checkpoint"):
                return load(cls, *args, **kwargs)
        m.SpanModel.load = classmethod(functools.wraps(load)(load_wrapper))
        for owner in (m, tr, ev, dg):
            self._timed(owner, "tokenize_sample", "model.tokenize")
        self._timed(tr, "contrastive_loss", "losses.contrastive")
        self._timed(tr, "span_cross_entropy", "losses.span_ce")
        for owner in (tr, ev):
            self._timed(owner, "class_means", "losses.class_means")
        self._timed(qadapt.losses, "mmd_squared", "losses.mmd")
        self._timed(tr.AdamW, "step", "training.optimizer")
        self._timed(tr, "clip_gradients", "training.clip")
        self._timed(dg, "make_synthetic_domains", "datagen.synth")
        for attr in ("fit_toy_generator", "generate_candidates"):
            self._timed(dg, attr, "datagen.generate")
        self._timed(dg, "lm_filter", "datagen.lm_filter")
        for attr in ("load_squad_json", "write_dataset", "load_contexts", "write_contexts",
                     "write_candidates"):
            self._timed(dg, attr, "datagen.io")
        self._timed(qadapt.cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers with more than a span ------------------------------------------

    def _counted(self, began: float) -> None:
        spent = time.perf_counter() - began
        self.overhead += spent
        self.counting_s += spent

    def _after_roundtrip(self, args, kept) -> None:
        self.count("datagen.roundtrip_candidates", len(args[0]))
        self.count("datagen.roundtrip_kept", len(kept))

    def _wrap_sampler(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            batches = original(*args, **kwargs)
            last = None
            while True:
                # a step runs from one batch to the next, less any dev evaluation in between
                now, dev = self.clock(), self.time[(self.phase, "training.dev_eval")]
                if last is not None:
                    step = now - last - (dev - last_dev)
                    if self.phase == "round":
                        self.step_ms.append(1000.0 * step)
                    self.time[(self.phase, "training.step")] += step
                    self.count("training.steps")
                try:
                    with self.span("training.sampler_wait"):
                        item = next(batches)
                except StopIteration:
                    return
                self.count("training.samples", len(item[1]))
                last, last_dev = self.clock(), self.time[(self.phase, "training.dev_eval")]
                yield item
        return wrapper

    def _wrap_predict_answer(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = self.clock()
            with self.span("evaluation.predict_answer"):
                out = original(*args, **kwargs)
            if self.phase == "round":
                self.predict_ms.append(1000.0 * (self.clock() - start))
            return out
        return wrapper

    def _wrap_predict_span(self, original):
        @functools.wraps(original)
        def wrapper(logits, context_mask, max_answer_len):
            if self.traced:
                began = time.perf_counter()
                self.count("tensor.predict_nodes",
                           count_graph_nodes(logits.start_scores, logits.end_scores))
                self.count("model.predicts")
                self._counted(began)
            with self.span("model.predict_span"):
                out = original(logits, context_mask, max_answer_len)
            self.span_log.append((self.label, np.array(logits.start_scores.data),
                                  np.array(logits.end_scores.data),
                                  np.array(context_mask, dtype=bool), max_answer_len, out))
            return out
        return wrapper

    def _wrap_backward(self, original):
        @functools.wraps(original)
        def wrapper(loss):
            began = time.perf_counter()
            self.count("tensor.step_nodes", count_graph_nodes(loss))
            self._counted(began)
            with self.span("tensor.backward"):
                return original(loss)
        return wrapper

    def _wrap_encode(self, original):
        @functools.wraps(original)
        def wrapper(model, *args, **kwargs):
            training = self.active(("training.train",)) and not self.active(INFER_SPANS)
            self.count("model.encode_calls")
            with self.span("model.encode_train" if training else "model.encode_infer"):
                return original(model, *args, **kwargs)
        return wrapper

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, round_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "round": round_id}) + "\n")
