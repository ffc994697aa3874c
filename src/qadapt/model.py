"""Miniature transformer span model over a byte-level vocabulary.

Input layout mirrors span-extraction QA: a sequence-start marker, the question
bytes, a separator, the context bytes, a trailing separator. Marker/separator
positions belong to neither token class. The encoder is a small pre-norm
transformer; the span head is a per-token linear projection producing one
[N x 2] tensor of start and end scores. A batch is encoded as one
``PackedBatch``: its samples' tokens concatenated without padding, attention
confined to each sample's segment. Forward-only passes over a sample set
(``map_chunks``) pack it in chunks and reduce each chunk's features to a
small result; with two or more chunks, the worker process of ``workers``
encodes the second half.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass, asdict
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from . import workers
from .tensor import Tensor

log = logging.getLogger(__name__)

BYTE_VOCAB = 256
SEQ_START_ID = 256
SEP_ID = 257
DEFAULT_VOCAB = 258

CHECKPOINT_MAGIC = b"QADAPT\x01"

# samples per packed forward-only encode (``map_chunks``): of 8, 16, 32 and
# 64, 32 was the fastest for answer-mean features and tied 64 on the roundtrip
# filter (BENCH_pr8.json); peak memory grows with the chunk, and one pack of a
# whole set is slower, since ``losses.class_means`` builds dense [B x N] weights
INFER_CHUNK = 32

# per-layer parameters in the argument order of the two fused sublayer ops
_ATTENTION_PARAMS = ("ln1.gain", "ln1.bias", "attn.wq", "attn.bq", "attn.wk", "attn.bk",
                     "attn.wv", "attn.bv", "attn.wo", "attn.bo")
_FFN_PARAMS = ("ln2.gain", "ln2.bias", "ff.w1", "ff.b1", "ff.w2", "ff.b2")

SOURCE = "source"
TARGET_SYNTHETIC = "target_synthetic"
DOMAIN_TAGS = (SOURCE, TARGET_SYNTHETIC)


class TokenizationError(ValueError):
    """Sample cannot be represented under the model's sequence constraints."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed or does not match the runtime config."""


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int = DEFAULT_VOCAB
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ff_dim: int = 256
    max_len: int = 128
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "hidden_dim", "num_layers", "num_heads", "ff_dim", "max_len",
                     "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"EncoderConfig.{name} must be an integer, got {value!r}")
        for name in ("vocab_size", "hidden_dim", "num_layers", "num_heads", "ff_dim", "max_len"):
            if getattr(self, name) <= 0:
                raise ValueError(f"EncoderConfig.{name} must be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )


@dataclass
class TokenizedSample:
    """Token ids ``[START] question [SEP] context [SEP]`` and a gold answer
    span (inclusive token indices). The token layout, the question and context
    regions and the answer are all read off the question length and the span,
    so they cannot disagree; ``tokenize_sample`` is where the fields are
    checked against the text."""

    token_ids: np.ndarray
    question_len: int  # question tokens, between the start marker and the first separator
    answer_span: tuple[int, int]
    domain_tag: str
    sample_id: str = ""

    def __len__(self) -> int:
        return int(self.token_ids.shape[0])

    @property
    def context_token_start(self) -> int:
        return self.question_len + 2

    @property
    def special_positions(self) -> tuple[int, int, int]:
        """The start marker and the two separators."""
        return 0, self.question_len + 1, len(self) - 1

    def _mask(self, lo: int, hi: int) -> np.ndarray:
        mask = np.zeros(len(self), dtype=bool)
        mask[lo:hi] = True
        return mask

    @property
    def question_mask(self) -> np.ndarray:
        return self._mask(1, 1 + self.question_len)

    @property
    def context_mask(self) -> np.ndarray:
        return self._mask(self.context_token_start, len(self) - 1)

    @property
    def answer_mask(self) -> np.ndarray:
        return self._mask(self.answer_span[0], self.answer_span[1] + 1)

    def span_text(self, context: str, span: tuple[int, int]) -> str:
        """The text of ``context`` under an inclusive token span. The bytes of
        a character cut by either end of the span are dropped."""
        offset = self.context_token_start
        raw = context.encode("utf-8")[span[0] - offset:span[1] - offset + 1]
        return raw.decode("utf-8", errors="ignore")


@dataclass(eq=False)
class PackedBatch:
    """Samples concatenated token by token, without padding. Segment i (sample
    i) owns rows ``offsets[i]:offsets[i + 1]`` of every packed [N x ...] array;
    ``positions`` is each token's index inside its own sample."""

    samples: tuple[TokenizedSample, ...]
    offsets: np.ndarray  # [B + 1]
    token_ids: np.ndarray  # [N]
    positions: np.ndarray  # [N]

    @classmethod
    def pack(cls, samples: Sequence[TokenizedSample]) -> "PackedBatch":
        if len(samples) == 0:
            raise ValueError("cannot pack an empty batch")
        lengths = [len(ts) for ts in samples]
        return cls(
            samples=tuple(samples),
            offsets=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
            token_ids=np.concatenate([ts.token_ids for ts in samples]),
            positions=np.concatenate([np.arange(n) for n in lengths]),
        )

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class SpanLogits:
    """Start (column 0) and end (column 1) scores per token as one [N x 2]
    tensor, packed like the features they come from."""

    scores: Tensor

    @property
    def start_scores(self) -> Tensor:
        """The start column, as a constant."""
        return T.constant(self.scores.data[:, 0])

    @property
    def end_scores(self) -> Tensor:
        """The end column, as a constant."""
        return T.constant(self.scores.data[:, 1])

    def segment(self, batch: PackedBatch, i: int) -> "SpanLogits":
        """Constant scores of segment i of the packed batch they come from."""
        lo, hi = batch.offsets[i], batch.offsets[i + 1]
        return SpanLogits(T.constant(self.scores.data[lo:hi]))


def tokenize_sample(
    question: str,
    context: str,
    answer_start: int,
    answer_text: str,
    domain_tag: str,
    max_len: int = 128,
    sample_id: str = "",
) -> TokenizedSample:
    """Byte-tokenize a QA triple; answer offsets are character positions.
    A sample that cannot be represented raises ``TokenizationError``, an
    unknown domain tag ``ValueError``."""
    if answer_start < 0 or context[answer_start:answer_start + len(answer_text)] != answer_text:
        raise TokenizationError(
            f"answer {answer_text!r} not found at offset {answer_start} of context"
        )
    if len(answer_text) == 0:
        raise TokenizationError("empty answer text")
    try:
        q_bytes = question.encode("utf-8")
        c_bytes = context.encode("utf-8")
    except UnicodeEncodeError as err:  # a lone surrogate has no UTF-8 bytes
        raise TokenizationError(f"text is not encodable as UTF-8: {err}") from err
    length = 3 + len(q_bytes) + len(c_bytes)
    if length > max_len:
        raise TokenizationError(f"sequence length {length} exceeds max length {max_len}")
    if domain_tag not in DOMAIN_TAGS:
        raise ValueError(f"unknown domain_tag {domain_tag!r}")

    ids = [SEQ_START_ID] + list(q_bytes) + [SEP_ID] + list(c_bytes) + [SEP_ID]
    ctx_start = 2 + len(q_bytes)
    ans_byte_start = len(context[:answer_start].encode("utf-8"))
    ans_byte_len = len(answer_text.encode("utf-8"))
    span = (ctx_start + ans_byte_start, ctx_start + ans_byte_start + ans_byte_len - 1)
    return TokenizedSample(
        token_ids=np.array(ids, dtype=np.int64),
        question_len=len(q_bytes),
        answer_span=span,
        domain_tag=domain_tag,
        sample_id=sample_id,
    )


def tokenize_samples(samples: Sequence, domain_tag: str, max_len: int) -> list[tuple]:
    """``(sample, TokenizedSample)`` pairs, in order, for QA samples with
    ``question``, ``context``, ``answer_start`` and ``answer_text`` fields (and
    ``sample_id``, when they have one). Untokenizable samples are skipped,
    with one warning that counts them."""
    pairs = []
    for s in samples:
        try:
            pairs.append((s, tokenize_sample(
                s.question, s.context, s.answer_start, s.answer_text, domain_tag=domain_tag,
                max_len=max_len, sample_id=getattr(s, "sample_id", ""),
            )))
        except TokenizationError:
            continue
    if len(pairs) < len(samples):
        log.warning("%s: skipped %d untokenizable sample(s)", domain_tag, len(samples) - len(pairs))
    return pairs


def embedding_noise(shape: tuple[int, ...], sigma: float, seed: int) -> np.ndarray:
    """Zero-mean Gaussian perturbation with standard deviation sigma."""
    if sigma < 0:
        raise ValueError("noise sigma must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return sigma * rng.standard_normal(shape)


def _seeded_rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


class SpanModel:
    """Byte-level transformer encoder plus answer-span classification head."""

    def __init__(self, config: EncoderConfig, _params: dict[str, Tensor] | None = None):
        self.config = config
        self.params = _params if _params is not None else self._init_params(config)

    @staticmethod
    def param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
        """Name and shape of every parameter, in initialisation order."""
        h, f = cfg.hidden_dim, cfg.ff_dim
        shapes = {
            "tok_emb": (cfg.vocab_size, h),
            "pos_emb": (cfg.max_len, h),
            "final_ln.gain": (h,),
            "final_ln.bias": (h,),
            "span.w": (h, 2),
            "span.b": (2,),
        }
        for i in range(cfg.num_layers):
            pre = f"layer{i}."
            for name in ("wq", "wk", "wv", "wo"):
                shapes[pre + "attn." + name] = (h, h)
            for name in ("bq", "bk", "bv", "bo"):
                shapes[pre + "attn." + name] = (h,)
            for ln in ("ln1", "ln2"):
                shapes[pre + ln + ".gain"] = (h,)
                shapes[pre + ln + ".bias"] = (h,)
            shapes[pre + "ff.w1"] = (h, f)
            shapes[pre + "ff.b1"] = (f,)
            shapes[pre + "ff.w2"] = (f, h)
            shapes[pre + "ff.b2"] = (h,)
        return shapes

    @staticmethod
    def _init_params(cfg: EncoderConfig) -> dict[str, Tensor]:
        """Embeddings uniform in +-0.1, weight matrices Glorot-uniform, gains
        one, biases zero; one seeded stream drawn in ``param_shapes`` order."""
        rng = _seeded_rng(cfg.seed, 0xC0FFEE)

        def init(name: str, shape: tuple[int, ...]) -> np.ndarray:
            if name in ("tok_emb", "pos_emb"):
                return rng.uniform(-0.1, 0.1, size=shape)
            if len(shape) == 2:
                scale = np.sqrt(6.0 / (shape[0] + shape[1]))
                return rng.uniform(-scale, scale, size=shape)
            return np.ones(shape) if name.endswith(".gain") else np.zeros(shape)

        return {name: Tensor(init(name, shape), requires_grad=True)
                for name, shape in SpanModel.param_shapes(cfg).items()}

    def __reduce__(self):
        """A model pickles as its config and parameter arrays."""
        return _model_from_arrays, (self.config, {n: t.data for n, t in self.params.items()})

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def _layer_params(self, layer: int, names: tuple[str, ...]) -> list[Tensor]:
        return [self.params[f"layer{layer}.{name}"] for name in names]

    def encode(self, sample: TokenizedSample | PackedBatch, noise_sigma: float = 0.0,
               noise_seed: int | Sequence[int] = 0) -> Tensor:
        """Per-token features: [L x H] for one sample, [N x H] in packed row
        order for a ``PackedBatch``. Optional Gaussian noise is applied to the
        token embeddings before the positional addition, seeded per sample:
        ``noise_seed`` is one seed for a sample, one seed per segment for a
        packed batch."""
        cfg = self.config
        packed = sample if isinstance(sample, PackedBatch) else PackedBatch.pack([sample])
        longest = int(np.diff(packed.offsets).max())
        if longest > cfg.max_len:
            raise TokenizationError(f"sequence length {longest} exceeds max length {cfg.max_len}")
        if np.any(packed.token_ids >= cfg.vocab_size):
            raise TokenizationError("token id outside the configured vocabulary")
        x = T.embedding(self.params["tok_emb"], packed.token_ids)
        if noise_sigma > 0.0:
            seeds = list(noise_seed) if isinstance(sample, PackedBatch) else [noise_seed]
            if len(seeds) != len(packed):
                raise ValueError(f"{len(seeds)} noise seeds for {len(packed)} segments")
            noise = np.concatenate([
                embedding_noise((len(ts), cfg.hidden_dim), noise_sigma, seed)
                for ts, seed in zip(packed.samples, seeds)
            ])
            x = x + T.constant(noise)
        x = x + T.embedding(self.params["pos_emb"], packed.positions)
        for i in range(cfg.num_layers):
            x = T.attention_sublayer(x, *self._layer_params(i, _ATTENTION_PARAMS), packed.offsets,
                                     cfg.num_heads)
            x = T.ffn_sublayer(x, *self._layer_params(i, _FFN_PARAMS))
        return T.layer_norm(x, self.params["final_ln.gain"], self.params["final_ln.bias"])

    def span_logits(self, features: Tensor) -> SpanLogits:
        return SpanLogits(T.linear(features, self.params["span.w"], self.params["span.b"]))

    # -- checkpoint container --------------------------------------------------

    def save(self, path) -> None:
        header = json.dumps(asdict(self.config), sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            fh.write(struct.pack("<I", len(self.params)))
            for name in sorted(self.params):
                data = self.params[name].data
                nb = name.encode("utf-8")
                fh.write(struct.pack("<H", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<B", data.ndim))
                for d in data.shape:
                    fh.write(struct.pack("<I", d))
                fh.write(data.astype("<f8").tobytes())

    @classmethod
    def load(cls, path, expected_config: EncoderConfig | None = None) -> "SpanModel":
        """Read a checkpoint written by ``save``. Any malformed content (bad
        magic, short reads, a bad header, unknown config keys, parameters of
        the wrong name or shape, non-finite values) raises CheckpointError."""
        with open(path, "rb") as fh:
            buf = fh.read()
        pos = len(CHECKPOINT_MAGIC)
        if buf[:pos] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")

        def take(size: int) -> bytes:
            nonlocal pos
            if pos + size > len(buf):
                raise CheckpointError(f"{path}: truncated at byte {len(buf)}")
            chunk = buf[pos:pos + size]
            pos += size
            return chunk

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        (hlen,) = unpack("<I")
        header = take(hlen)
        try:
            # bad UTF-8 and bad JSON are ValueErrors; unknown keys, TypeErrors
            config = EncoderConfig(**json.loads(header.decode("utf-8")))
        except (TypeError, ValueError) as err:
            raise CheckpointError(f"{path}: bad config header: {err}") from err
        shapes = cls.param_shapes(config)
        if expected_config is not None and config != expected_config:
            raise CheckpointError(
                f"checkpoint config {config} does not match runtime config {expected_config}"
            )
        (n_params,) = unpack("<I")
        params: dict[str, Tensor] = {}
        for _ in range(n_params):
            (nlen,) = unpack("<H")
            try:
                name = take(nlen).decode("utf-8")
            except UnicodeDecodeError as err:
                raise CheckpointError(f"{path}: bad parameter name: {err}") from err
            (ndim,) = unpack("<B")
            shape = unpack("<" + "I" * ndim)
            if shapes.get(name) != shape or name in params:
                raise CheckpointError(f"{path}: unexpected parameter {name!r} of shape {shape}")
            values = np.frombuffer(take(8 * int(np.prod(shape))), dtype="<f8")
            try:
                params[name] = Tensor(values.reshape(shape).copy(), requires_grad=True)
            except T.NonFiniteError as err:
                raise CheckpointError(f"{path}: parameter {name} holds non-finite values") from err
        if set(params) != set(shapes) or pos != len(buf):
            raise CheckpointError(f"{path}: parameters do not match the architecture")
        return cls(config, _params=params)


def _model_from_arrays(config: EncoderConfig, arrays: dict[str, np.ndarray]) -> SpanModel:
    return SpanModel(config, _params={n: Tensor(a, requires_grad=True) for n, a in arrays.items()})


def _encode_and_reduce(job: tuple, packed: PackedBatch):
    model, reduce = job
    with T.no_grad():
        return reduce(model, packed, model.encode(packed))


def map_chunks(model: SpanModel, samples: Sequence[TokenizedSample], reduce: Callable
               ) -> Iterator[tuple[PackedBatch, object]]:
    """Each ``PackedBatch`` of up to ``INFER_CHUNK`` of ``samples``, in order,
    with ``reduce(model, packed, features)`` of its forward-only [N x H]
    features (one ``encode`` call, no graph). With two or more chunks the
    second half is encoded and reduced in the worker process
    (``workers.split_map``), so ``reduce`` must be a module-level function
    that pickle finds by name, and its result should be small."""
    batches = [PackedBatch.pack(samples[lo:lo + INFER_CHUNK])
               for lo in range(0, len(samples), INFER_CHUNK)]
    return zip(batches, workers.split_map(_encode_and_reduce, (model, reduce), batches))


def predict_span(logits: SpanLogits, context_mask, max_answer_len: int) -> tuple[int, int]:
    """Best (start, end) with start <= end <= start + max_answer_len - 1, both
    inside the context region; ties prefer the smallest start, then end."""
    if max_answer_len < 1:
        raise ValueError("max_answer_len must be >= 1")
    mask = np.asarray(context_mask, dtype=bool)
    starts = np.flatnonzero(mask)
    if starts.size == 0:
        raise ValueError("empty context mask")
    length = mask.shape[0]
    # band[i, d] scores the span (starts[i], starts[i] + d); row-major argmax
    # order is the tie order: smallest start, then smallest end
    ends = starts[:, None] + np.arange(min(max_answer_len, length))[None, :]
    inside = ends < length
    ends = np.where(inside, ends, length - 1)
    valid = inside & mask[ends]
    scores = logits.scores.data
    band = np.where(valid, scores[starts, 0][:, None] + scores[ends, 1], -np.inf)
    row, d = divmod(int(np.argmax(band)), band.shape[1])
    return int(starts[row]), int(starts[row] + d)
