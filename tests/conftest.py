import numpy as np
import pytest

from qadapt.model import EncoderConfig, SpanModel, TokenizedSample


def make_sample(seed=0, length=12, vocab=32, domain_tag="source", answer=None):
    """Random well-formed tokenized sample: specials at 0, sep, last."""
    rng = np.random.default_rng(seed)
    assert length >= 6
    sep = int(rng.integers(2, length - 3))  # >=1 question token, >=1 context token
    ids = rng.integers(0, vocab, size=length)
    ctx_positions = np.arange(sep + 1, length - 1)
    if answer is None:
        s = int(rng.choice(ctx_positions))
        e = int(rng.integers(s, ctx_positions[-1] + 1))
    else:
        s, e = answer
    return TokenizedSample(
        token_ids=ids,
        question_len=sep - 1,
        answer_span=(s, e),
        domain_tag=domain_tag,
        sample_id=f"synthetic-{seed}",
    )


@pytest.fixture(scope="session")
def tiny_config():
    return EncoderConfig(vocab_size=32, hidden_dim=16, num_layers=1, num_heads=2,
                         ff_dim=32, max_len=16, seed=7)


@pytest.fixture(scope="session")
def tiny_model(tiny_config):
    return SpanModel(tiny_config)
