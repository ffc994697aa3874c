"""Output checks: compare what the program produced with the plain-numpy
reference in ``reference.py``. Each check returns a list of problems; an
empty list means the output is correct."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import reference as ref

TOL = 1e-9


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def step_identity(steps, beta: float, where: str) -> list[str]:
    """loss_total == loss_ce + beta * loss_con at every step. ``steps`` holds
    (loss_ce, loss_con, loss_total) triples."""
    bad = [i for i, (ce, con, total) in enumerate(steps) if abs(total - (ce + beta * con)) > 1e-12]
    return [f"{where}: loss_total != loss_ce + beta*loss_con at steps {bad[:5]}"] if bad else []


def loss_falls(totals, epochs: int, where: str) -> list[str]:
    """The mean loss of the last epoch is below that of the first."""
    if epochs < 2 or len(totals) % epochs:
        return [f"{where}: {len(totals)} steps do not split into {epochs} equal epochs"]
    per = len(totals) // epochs
    first, last = float(np.mean(totals[:per])), float(np.mean(totals[-per:]))
    return [] if last < first else [f"{where}: last-epoch mean loss {last} >= first {first}"]


def first_batch_loss(params, layers: int, heads: int, source, synthetic, seed: int,
                     batch_size: int, sigma: float, beta: float, logged, where: str) -> list[str]:
    """Recompute step 0 of a mixed-batch training run from its initial
    parameters and compare with the logged (loss_ce, loss_con, loss_total)."""
    si, ti = ref.first_mixed_batch(len(source), len(synthetic), batch_size, seed)
    batch = [source[i] for i in si] + [synthetic[j] for j in ti]
    ce, answer, cq = [], [], []
    for i, s in enumerate(batch):
        tok = ref.tokenize(s.question, s.context, s.answer_start, s.answer_text)
        noise = None
        if sigma > 0:
            noise = ref.embedding_noise(len(tok.ids), params["tok_emb"].shape[1], sigma, seed, 0, i)
        feats = ref.encode(params, layers, heads, tok.ids, noise)
        ce.append(ref.span_cross_entropy(*ref.span_scores(params, feats), tok.answer_span))
        amask = np.zeros(len(tok.ids), dtype=bool)
        amask[tok.answer_span[0]:tok.answer_span[1] + 1] = True
        answer.append(feats[amask].mean(axis=0))
        cq.append(feats[(tok.question_mask | tok.context_mask) & ~amask].mean(axis=0))
    loss_ce = float(np.mean(ce))
    loss_con = ref.contrastive_similarity_flipped(np.array(answer), np.array(cq))
    expected = (loss_ce, loss_con, loss_ce + beta * loss_con)
    if all(_close(e, g) for e, g in zip(expected, logged)):
        return []
    return [f"{where}: step-0 losses {tuple(logged)} != reference {expected}"]


def spans_are_argmax(span_log) -> list[str]:
    """Every decoded span is the brute-force constrained argmax of the scores
    the program passed to its decoder."""
    problems = []
    for label, start, end, mask, max_len, got in span_log:
        want = ref.best_span(start, end, mask, max_len)
        if tuple(got) != want:
            problems.append(f"{label}: predicted span {tuple(got)} != argmax {want}")
    return problems[:5]


def predictions(samples, records, span_log, where: str) -> list[str]:
    """Each prediction string decodes the span the program chose for that
    sample, and EM/F1 re-scored from the strings match the program's.
    ``records`` holds (prediction, gold, em, f1); ``span_log`` the decoder
    calls made for these samples, in order."""
    if not (len(samples) == len(records) == len(span_log)):
        return [f"{where}: {len(samples)} samples, {len(records)} records, {len(span_log)} decodes"]
    problems = []
    for s, (pred, gold, em, f1), entry in zip(samples, records, span_log):
        tok = ref.tokenize(s.question, s.context, s.answer_start, s.answer_text)
        if ref.decode(s.context, tok, entry[-1]) != pred:
            problems.append(f"{where}: {pred!r} is not the text of span {entry[-1]}")
        if gold != s.answer_text:
            problems.append(f"{where}: gold {gold!r} != dataset answer {s.answer_text!r}")
        want_em, want_f1 = ref.squad_em_f1(pred, gold)
        if em != want_em or not _close(f1, want_f1):
            problems.append(f"{where}: ({em}, {f1}) for {pred!r} vs {gold!r}, reference "
                            f"({want_em}, {want_f1})")
    return problems[:5]


def aggregate_scores(records, em: float, f1: float, where: str) -> list[str]:
    want_em = 100.0 * sum(ref.squad_em_f1(p, g)[0] for p, g, _, _ in records) / len(records)
    want_f1 = 100.0 * sum(ref.squad_em_f1(p, g)[1] for p, g, _, _ in records) / len(records)
    if _close(em, want_em) and _close(f1, want_f1):
        return []
    return [f"{where}: EM/F1 ({em}, {f1}) != re-scored ({want_em}, {want_f1})"]


def domain_gap(source_feats, gold_feats, bandwidths, gap: float, self_gap: float,
               where: str) -> list[str]:
    """The gap is the V-statistic MMD under the given bandwidths, it is not
    negative, and a set against itself scores 0."""
    problems = []
    want = ref.mmd_v_statistic(np.asarray(source_feats), np.asarray(gold_feats), bandwidths)
    if not _close(gap, want):
        problems.append(f"{where}: gap {gap} != numpy MMD {want}")
    if gap < -1e-12:
        problems.append(f"{where}: negative gap {gap}")
    if abs(self_gap) > 1e-12:
        problems.append(f"{where}: MMD of a set against itself is {self_gap}")
    return problems


def measurement_bandwidths(source_feats, gold_feats, bandwidths, where: str) -> list[str]:
    """Bandwidths are 0.5, 1 and 2 times the median pairwise squared distance
    of the pooled baseline features."""
    med = ref.median_sq_dist(np.vstack([source_feats, gold_feats]))
    want = (0.5 * med, med, 2.0 * med)
    if len(bandwidths) == 3 and all(_close(a, b) for a, b in zip(bandwidths, want)):
        return []
    return [f"{where}: bandwidths {tuple(bandwidths)} != {want}"]


def answer_feature(params, layers: int, heads: int, sample, got, where: str) -> list[str]:
    """The answer-mean feature of one sample under a frozen model."""
    tok = ref.tokenize(sample.question, sample.context, sample.answer_start, sample.answer_text)
    feats = ref.encode(params, layers, heads, tok.ids)
    want = feats[tok.answer_span[0]:tok.answer_span[1] + 1].mean(axis=0)
    if np.allclose(got, want, rtol=TOL, atol=TOL):
        return []
    return [f"{where}: answer-mean feature differs from the reference by "
            f"{float(np.abs(np.asarray(got) - want).max())}"]


def roundtrip_kept(kept, checkpoint: Path, max_answer_len: int, per_context: int) -> list[str]:
    """Every kept candidate's normalised answer equals the normalised
    prediction of the filter model, and no context keeps more than k."""
    config, params = ref.read_checkpoint(checkpoint)
    problems = []
    per_ctx: dict[str, int] = {}
    for s in kept:
        per_ctx[s.context] = per_ctx.get(s.context, 0) + 1
        tok = ref.tokenize(s.question, s.context, s.answer_start, s.answer_text)
        feats = ref.encode(params, config["num_layers"], config["num_heads"], tok.ids)
        start, end = ref.span_scores(params, feats)
        span = ref.best_span(start, end, tok.context_mask, max_answer_len)
        pred = ref.decode(s.context, tok, span)
        if ref.squad_normalize(pred) != ref.squad_normalize(s.answer_text):
            problems.append(f"roundtrip kept {s.answer_text!r} but the model predicts {pred!r}")
    over = [n for n in per_ctx.values() if n > per_context]
    if over:
        problems.append(f"roundtrip kept {max(over)} > {per_context} pairs for one context")
    return problems[:5]


def manifest(path: Path) -> list[str]:
    """Each checksum in a manifest is the sha256 of its file."""
    listed = json.loads(path.read_text())["artifacts"]
    problems = []
    summed = 0
    for name, digest in listed.items():
        if digest is None:
            continue
        summed += 1
        actual = hashlib.sha256((path.parent / name).read_bytes()).hexdigest()
        if actual != digest:
            problems.append(f"{path}: checksum of {name} is {actual}, manifest says {digest}")
    if summed == 0:
        problems.append(f"{path}: no checksummed artifact")
    return problems
