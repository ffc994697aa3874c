"""Plain-numpy reference implementations that the benchmark checks the
program's outputs against.

Nothing here imports qadapt: each function restates the documented behaviour
(byte tokenization, the pre-norm encoder, span cross-entropy, the
multi-bandwidth contrastive term, the V-statistic MMD, constrained span
decoding, SQuAD answer normalisation, the checkpoint layout and the seed
derivations) from the README and docstrings, so that a fault in the program
cannot hide in a shared helper.
"""

from __future__ import annotations

import json
import re
import string
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

SEQ_START_ID = 256
SEP_ID = 257
MEDIAN_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
LN_EPS = 1e-5
NOISE_TAG = 0x401535  # per-sample embedding-noise seed: derive(seed, tag, step, index)
SAMPLER_TAG = 0xBA7C4  # per-epoch sampler permutation: SeedSequence([seed, tag, epoch])


@dataclass
class Tokens:
    ids: np.ndarray
    question_mask: np.ndarray
    context_mask: np.ndarray
    answer_span: tuple[int, int]
    context_start: int


def tokenize(question: str, context: str, answer_start: int, answer_text: str) -> Tokens:
    """[start] question-bytes [sep] context-bytes [sep]; answer offsets are
    character positions into the context."""
    q = question.encode("utf-8")
    c = context.encode("utf-8")
    ids = np.array([SEQ_START_ID, *q, SEP_ID, *c, SEP_ID], dtype=np.int64)
    length = ids.shape[0]
    ctx_start = 2 + len(q)
    qmask = np.zeros(length, dtype=bool)
    qmask[1:1 + len(q)] = True
    cmask = np.zeros(length, dtype=bool)
    cmask[ctx_start:ctx_start + len(c)] = True
    a0 = ctx_start + len(context[:answer_start].encode("utf-8"))
    a1 = a0 + len(answer_text.encode("utf-8")) - 1
    return Tokens(ids, qmask, cmask, (a0, a1), ctx_start)


def decode(context: str, tokens: Tokens, span: tuple[int, int]) -> str:
    raw = context.encode("utf-8")
    s, e = span
    start = tokens.context_start
    return raw[s - start:e - start + 1].decode("utf-8", errors="ignore")


# -- encoder -----------------------------------------------------------------

def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def encode(params: dict[str, np.ndarray], num_layers: int, num_heads: int,
           ids: np.ndarray, noise: np.ndarray | None = None) -> np.ndarray:
    """Pre-norm transformer features [L x H]; noise is added to the token
    embeddings before the positional embeddings."""
    p = params
    length = ids.shape[0]
    x = p["tok_emb"][ids]
    if noise is not None:
        x = x + noise
    x = x + p["pos_emb"][:length]
    hidden = x.shape[1]
    dh = hidden // num_heads
    for i in range(num_layers):
        pre = f"layer{i}."
        h = _layer_norm(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        q = h @ p[pre + "attn.wq"] + p[pre + "attn.bq"]
        k = h @ p[pre + "attn.wk"] + p[pre + "attn.bk"]
        v = h @ p[pre + "attn.wv"] + p[pre + "attn.bv"]
        q, k, v = (t.reshape(length, num_heads, dh).transpose(1, 0, 2) for t in (q, k, v))
        att = _softmax(q @ k.transpose(0, 2, 1) / np.sqrt(dh)) @ v
        att = att.transpose(1, 0, 2).reshape(length, hidden)
        x = x + att @ p[pre + "attn.wo"] + p[pre + "attn.bo"]
        h = _layer_norm(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        ff = np.maximum(h @ p[pre + "ff.w1"] + p[pre + "ff.b1"], 0.0)
        x = x + ff @ p[pre + "ff.w2"] + p[pre + "ff.b2"]
    return _layer_norm(x, p["final_ln.gain"], p["final_ln.bias"])


def span_scores(params: dict[str, np.ndarray], features: np.ndarray):
    """Start and end scores per token."""
    scores = features @ params["span.w"] + params["span.b"]
    return scores[:, 0], scores[:, 1]


def span_cross_entropy(start: np.ndarray, end: np.ndarray, gold: tuple[int, int]) -> float:
    def nll(x, i):
        m = x.max()
        return float(m + np.log(np.exp(x - m).sum()) - x[i])
    return 0.5 * (nll(start, gold[0]) + nll(end, gold[1]))


def best_span(start: np.ndarray, end: np.ndarray, context_mask: np.ndarray,
              max_answer_len: int) -> tuple[int, int]:
    """Brute-force argmax of start[s] + end[e] over s <= e < s + max_answer_len,
    both in the context; ties go to the smallest start, then the smallest end."""
    n = start.shape[0]
    s_idx, e_idx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ok = ((e_idx >= s_idx) & (e_idx < s_idx + max_answer_len)
          & context_mask[:, None] & context_mask[None, :])
    total = np.where(ok, start[:, None] + end[None, :], -np.inf)
    flat = int(np.argmax(total))  # row-major: first maximum has the smallest (s, e)
    return flat // n, flat % n


# -- kernels and the contrastive term ---------------------------------------------

def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.maximum(((x[:, None, :] - y[None, :, :]) ** 2).sum(-1), 0.0)


def median_sq_dist(points: np.ndarray) -> float:
    d2 = _sq_dists(points, points)
    med = float(np.median(d2[np.triu_indices(points.shape[0], k=1)]))
    return med if np.isfinite(med) and med > 0 else 1.0


def kernel(x: np.ndarray, y: np.ndarray, bandwidths) -> np.ndarray:
    d2 = _sq_dists(x, y)
    return sum(np.exp(-d2 / g) for g in bandwidths) / len(bandwidths)


def mmd_v_statistic(x: np.ndarray, y: np.ndarray, bandwidths) -> float:
    return float(kernel(x, x, bandwidths).mean() + kernel(y, y, bandwidths).mean()
                 - 2.0 * kernel(x, y, bandwidths).mean())


def contrastive_similarity_flipped(answer_means: np.ndarray, cq_means: np.ndarray) -> float:
    """Mixed-batch pairing, similarity-flipped sign, median-heuristic bandwidths
    over the pooled class means: -K(A,A) - K(C,C) + K(A,C), each averaged."""
    med = median_sq_dist(np.vstack([answer_means, cq_means]))
    bw = [m * med for m in MEDIAN_MULTIPLIERS]
    return float(-kernel(answer_means, answer_means, bw).mean()
                 - kernel(cq_means, cq_means, bw).mean()
                 + kernel(answer_means, cq_means, bw).mean())


# -- seeds -----------------------------------------------------------------------

def derive_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def embedding_noise(length: int, hidden: int, sigma: float, seed: int, step: int,
                    index: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(derive_seed(seed, NOISE_TAG, step, index)))
    return sigma * rng.standard_normal((length, hidden))


def first_mixed_batch(n_source: int, n_synthetic: int, batch_size: int, seed: int):
    """Indices of the first batch of epoch 0 under the 1:1 mixed policy:
    (source indices, synthetic indices)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, SAMPLER_TAG, 0]))
    src = rng.permutation(n_source)
    syn = rng.permutation(n_synthetic)
    return list(src[:(batch_size + 1) // 2]), list(syn[:batch_size // 2])


# -- answers ---------------------------------------------------------------------

_ARTICLE = re.compile(r"\b(a|an|the)\b")


def squad_normalize(text: str) -> str:
    text = "".join(ch for ch in text.lower() if ch not in string.punctuation)
    return " ".join(_ARTICLE.sub(" ", text).split())


def squad_em_f1(prediction: str, gold: str) -> tuple[int, float]:
    p = squad_normalize(prediction).split()
    g = squad_normalize(gold).split()
    em = int(p == g)
    if not p or not g:
        return int(p == g), float(p == g)
    same = sum((Counter(p) & Counter(g)).values())
    if same == 0:
        return em, 0.0
    precision, recall = same / len(p), same / len(g)
    return em, 2 * precision * recall / (precision + recall)


# -- checkpoint file ---------------------------------------------------------------

def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Magic, u32 header length, JSON encoder config, u32 parameter count, then
    per parameter: u16 name length, name, u8 ndim, u32 dims, little-endian f64."""
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = len(b"QADAPT\x01")
    if buf[:pos] != b"QADAPT\x01":
        raise ValueError(f"{path}: bad magic")

    def take(fmt):
        nonlocal pos
        vals = struct.unpack_from(fmt, buf, pos)
        pos += struct.calcsize(fmt)
        return vals

    (hlen,) = take("<I")
    config = json.loads(buf[pos:pos + hlen])
    pos += hlen
    (count,) = take("<I")
    params = {}
    for _ in range(count):
        (nlen,) = take("<H")
        name = buf[pos:pos + nlen].decode("utf-8")
        pos += nlen
        (ndim,) = take("<B")
        shape = take("<" + "I" * ndim)
        size = int(np.prod(shape)) if shape else 1
        params[name] = np.frombuffer(buf, dtype="<f8", count=size, offset=pos).reshape(shape)
        pos += 8 * size
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing bytes")
    return config, params
