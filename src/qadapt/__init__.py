"""Contrastive domain adaptation for extractive QA at toy scale.

A self-contained stack: a small fp64 autodiff engine, a byte-level
transformer span model, kernel two-sample and contrastive class-separation
losses, a synthetic question generation and filtering pipeline, mixed-batch
training with grid search, and EM/F1 plus projection diagnostics.
"""

from .tensor import Tensor, backward, constant, finite_difference_check
from .model import (
    EncoderConfig,
    SpanLogits,
    SpanModel,
    TokenizedSample,
    predict_span,
    tokenize_sample,
)
from .losses import (
    ContrastiveConfig,
    KernelConfig,
    class_means,
    contrastive_loss,
    mmd_squared,
    span_cross_entropy,
)
from .datagen import (
    ContextOnly,
    DomainDataset,
    DomainShiftSpec,
    GenCandidate,
    RawQASample,
    fit_toy_generator,
    generate_candidates,
    lm_filter,
    load_squad_json,
    make_synthetic_domains,
    roundtrip_filter,
    write_dataset,
)
from .evaluation import EvalResult, domain_gap, em_f1, evaluate, normalize_answer, pca_project
from .training import TrainConfig, TrainReport, grid_search, mixed_batch_sampler, train

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "constant", "finite_difference_check",
    "EncoderConfig", "SpanLogits", "SpanModel", "TokenizedSample",
    "predict_span", "tokenize_sample",
    "ContrastiveConfig", "KernelConfig", "class_means", "contrastive_loss",
    "mmd_squared", "span_cross_entropy",
    "ContextOnly", "DomainDataset", "DomainShiftSpec", "GenCandidate",
    "RawQASample", "fit_toy_generator", "generate_candidates", "lm_filter",
    "load_squad_json", "make_synthetic_domains", "roundtrip_filter", "write_dataset",
    "EvalResult", "domain_gap", "em_f1", "evaluate", "normalize_answer", "pca_project",
    "TrainConfig", "TrainReport", "grid_search", "mixed_batch_sampler", "train",
]
