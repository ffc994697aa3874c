"""Miniature transformer span model over a byte-level vocabulary.

Input layout mirrors span-extraction QA: a sequence-start marker, the question
bytes, a separator, the context bytes, a trailing separator. Marker/separator
positions belong to neither token class. The encoder is a small pre-norm
transformer; the span head is a per-token linear projection producing one
[N x 2] tensor of start and end scores. A batch is encoded as one
``PackedBatch``: its samples' tokens concatenated without padding, attention
confined to each sample's segment. Forward-only passes over a sample set
(``map_chunks``) pack it in chunks and reduce each chunk's features to a
small result; with two or more chunks, a child forked by ``workers``
encodes the second half.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import numbers
import reprlib
import struct
from dataclasses import MISSING, dataclass, fields, is_dataclass
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

# samples per packed forward-only encode (``map_chunks``). Re-measured with
# BLAS pinned to one thread and the second half of the chunks in a forked
# child on a 2-core host (medians of 8 and 12 interleaved passes): 64 is
# clearly slower (the roundtrip filter of 720 candidates 0.353 / 0.366 s),
# while 16 and 32 are within the host's noise (0.268 / 0.292 s against
# 0.280 / 0.296 s; the answer-mean features of two 120-sample sets 0.112 /
# 0.111 s against 0.117 / 0.120 s), so 32 stays until paired benchmark runs
# separate them. Peak memory grows with the chunk, and one pack of a whole
# set is slower still, since ``losses.class_means`` builds dense [2B x N] weights
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


class ConfigError(ValueError):
    """Invalid configuration. The message names one problem per line, each
    by the field's dotted path (``optimizer.eps: must be ...``)."""


# -- config rules ------------------------------------------------------------------
# Every config is a frozen dataclass whose ``__post_init__`` declares a rule
# per field (``check_fields``) and then checks what relates two fields. JSON
# configs are read by ``config_from_json`` and written by ``config_to_json``.

@dataclass(frozen=True)
class Rule:
    """What a config value must be: ``accepts`` tells, ``text`` says."""

    text: str
    accepts: Callable[[object], bool]


def integer(low: int) -> Rule:
    """An int, never a bool, of at least ``low``."""
    return Rule(f"an integer >= {low}",
                lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low)


def _finite_real(value) -> bool:
    """Whether a value is a real number, never a bool, that a float holds
    finitely: an int too large for a float is not one."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def real(low: float, high: float = math.inf, *, low_open: bool = False,
         high_open: bool = True) -> Rule:
    """A finite real number from ``low`` to ``high``; the bounds are
    included unless open."""
    bounds = (f"{'>' if low_open else '>='} {low:g}" if high == math.inf else
              f"in {'(' if low_open else '['}{low:g}, {high:g}{')' if high_open else ']'}")
    return Rule(f"a finite number {bounds}", lambda v: _finite_real(v) and (
        low < v if low_open else low <= v) and (v < high if high_open else v <= high))


def one_of(*values: str) -> Rule:
    return Rule("one of " + ", ".join(map(repr, values)),
                lambda v: isinstance(v, str) and v in values)


def items(rule: Rule, length: int | None = None) -> Rule:
    """A list (or tuple) of ``length`` values, or of at least one, each
    accepted by ``rule``."""
    count = f"of {length} items" if length else "of one or more items"
    return Rule(f"a list {count}, each {rule.text}", lambda v: (
        isinstance(v, (list, tuple)) and (len(v) == length if length else len(v) > 0)
        and all(map(rule.accepts, v))))


def optional(rule: Rule) -> Rule:
    return Rule(f"null or {rule.text}", lambda v: v is None or rule.accepts(v))


def mapping(rule: Rule) -> Rule:
    """A JSON object whose every value ``rule`` accepts."""
    return Rule(f"an object of name -> {rule.text}",
                lambda v: isinstance(v, dict) and all(map(rule.accepts, v.values())))


COUNT = integer(1)  # a size, a length or a number of steps
SEED = integer(0)  # numpy seeds must be non-negative
POSITIVE = real(0, low_open=True)
NON_NEGATIVE = real(0)
PATH = Rule("a file path string", lambda v: isinstance(v, str))


def check_fields(config, **rules: Rule) -> None:
    """Raise ``ConfigError`` naming every field of ``config`` that its rule
    rejects. An accepted list is stored as a tuple, so that configs read
    from JSON compare and hash by value."""
    problems = []
    for name, rule in rules.items():
        value = getattr(config, name)
        if not rule.accepts(value):
            problems.append(f"{name}: must be {rule.text}, got {reprlib.repr(value)}")
        elif isinstance(value, list):
            object.__setattr__(config, name, tuple(value))
    if problems:
        raise ConfigError("\n".join(problems))


def config_from_json(cls, data, path: str = ""):
    """The config ``cls`` read from a decoded JSON object: its keys are
    fields of ``cls``, absent fields keep their defaults (a field without
    one must be given), and a field whose default is a config is read from
    a nested object the same way. Every problem is named in one
    ``ConfigError``, by its dotted path below ``path``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: must be a JSON object, "
                          f"got {type(data).__name__}")
    prefix = f"{path}." if path else ""
    nested = {f.name: f.default_factory for f in fields(cls) if is_dataclass(f.default_factory)}
    known = {f.name for f in fields(cls)}
    problems, values = [], {}
    for key, value in data.items():
        if key not in known:
            problems.append(f"{prefix}{key}: unknown field")
            continue
        try:  # a nested config that fails keeps its default, so its parent is checked too
            values[key] = (config_from_json(nested[key], value, prefix + key) if key in nested
                           else value)
        except ConfigError as err:
            problems.append(str(err))
    missing = [f"{prefix}{f.name}: missing field" for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    problems += missing
    try:
        config = None if missing else cls(**values)
    except ConfigError as err:
        problems.extend(prefix + line for line in str(err).splitlines())
    if problems:
        raise ConfigError("\n".join(problems))
    return config


def config_to_json(config) -> dict:
    """A config as JSON values: nested configs as objects, tuples as lists."""
    return {f.name: config_to_json(v) if is_dataclass(v) else list(v) if isinstance(v, tuple)
            else v for f in fields(config) for v in [getattr(config, f.name)]}


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
        check_fields(self, vocab_size=COUNT, hidden_dim=COUNT, num_layers=COUNT, num_heads=COUNT,
                     ff_dim=COUNT, max_len=COUNT, seed=SEED)
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(f"hidden_dim: {self.hidden_dim} is not divisible by num_heads "
                              f"{self.num_heads}")


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
            offsets=np.array([0, *itertools.accumulate(lengths)], dtype=np.int64),
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

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def _layer_params(self, layer: int, names: tuple[str, ...]) -> list[Tensor]:
        prefix = f"layer{layer}."
        return [self.params[prefix + name] for name in names]

    def encode(self, sample: TokenizedSample | PackedBatch, noise_sigma: float = 0.0,
               noise_seed: int | Sequence[int] = 0) -> Tensor:
        """Per-token features: [L x H] for one sample, [N x H] in packed row
        order for a ``PackedBatch``. Optional Gaussian noise is applied to the
        token embeddings before the positional addition, seeded per sample:
        ``noise_seed`` is one seed for a sample, one seed per segment for a
        packed batch."""
        cfg = self.config
        packed = sample if isinstance(sample, PackedBatch) else PackedBatch.pack([sample])
        longest = max(len(ts) for ts in packed.samples)
        if longest > cfg.max_len:
            raise TokenizationError(f"sequence length {longest} exceeds max length {cfg.max_len}")
        if packed.token_ids.max(initial=0) >= cfg.vocab_size:
            raise TokenizationError("token id outside the configured vocabulary")
        noise = None
        if noise_sigma > 0.0:
            seeds = list(noise_seed) if isinstance(sample, PackedBatch) else [noise_seed]
            if len(seeds) != len(packed):
                raise ValueError(f"{len(seeds)} noise seeds for {len(packed)} segments")
            noise = np.concatenate([
                embedding_noise((len(ts), cfg.hidden_dim), noise_sigma, seed)
                for ts, seed in zip(packed.samples, seeds)
            ])
        x = T.embed(self.params["tok_emb"], self.params["pos_emb"], packed.token_ids,
                    packed.positions, noise)
        for i in range(cfg.num_layers):
            x = T.attention_sublayer(x, *self._layer_params(i, _ATTENTION_PARAMS), packed.offsets,
                                     cfg.num_heads)
            x = T.ffn_sublayer(x, *self._layer_params(i, _FFN_PARAMS))
        return T.layer_norm(x, self.params["final_ln.gain"], self.params["final_ln.bias"])

    def span_logits(self, features: Tensor) -> SpanLogits:
        return SpanLogits(T.linear(features, self.params["span.w"], self.params["span.b"]))

    # -- checkpoint container --------------------------------------------------

    def save(self, path) -> None:
        header = json.dumps(config_to_json(self.config), sort_keys=True).encode("utf-8")
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
            # bad UTF-8, bad JSON and a bad config are ValueErrors; JSON nested
            # too deeply, a RecursionError
            config = config_from_json(EncoderConfig, json.loads(header.decode("utf-8")))
        except (ValueError, RecursionError) as err:
            problems = "; ".join(str(err).splitlines())
            raise CheckpointError(f"{path}: bad config header: {problems}") from err
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


def map_chunks(model: SpanModel, samples: Sequence[TokenizedSample], reduce: Callable
               ) -> Iterator[tuple[PackedBatch, object]]:
    """Each ``PackedBatch`` of up to ``INFER_CHUNK`` of ``samples``, in order,
    with ``reduce(packed, features)`` of its forward-only [N x H] features
    (one ``encode`` call, no graph). With two or more chunks the second half
    is encoded and reduced in a forked child (``workers.split_map``), so the
    result of ``reduce`` should be small."""
    batches = [PackedBatch.pack(samples[lo:lo + INFER_CHUNK])
               for lo in range(0, len(samples), INFER_CHUNK)]

    def encode_and_reduce(packed: PackedBatch):
        with T.no_grad():
            return reduce(packed, model.encode(packed))
    return zip(batches, workers.split_map(encode_and_reduce, batches))


def predict_span(logits: SpanLogits, context_mask, max_answer_len: int) -> tuple[int, int]:
    """Best (start, end) with start <= end <= start + max_answer_len - 1, both
    inside the context region; ties prefer the smallest start, then end."""
    if max_answer_len < 1:
        raise ValueError("max_answer_len must be >= 1")
    mask = np.asarray(context_mask, dtype=bool)
    starts = mask.nonzero()[0]
    if starts.size == 0:
        raise ValueError("empty context mask")
    length = mask.shape[0]
    width = min(max_answer_len, length)
    scores = logits.scores.data
    # end scores, -inf outside the context and past the last token
    ends = np.full(length + width - 1, -np.inf)
    np.copyto(ends[:length], scores[:, 1], where=mask)
    # band[i, d] scores the span (starts[i], starts[i] + d); row-major argmax
    # order is the tie order: smallest start, then smallest end
    band = ends[starts[:, None] + np.arange(width)]
    band += scores[starts, 0][:, None]
    row, d = divmod(int(band.argmax()), width)
    return int(starts[row]), int(starts[row] + d)
