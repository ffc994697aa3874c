import os

import numpy as np
import pytest

from qadapt import tensor as T
from qadapt import workers
from qadapt.losses import ClassMeans
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


def stack_means(answer_mean, cq_mean, domain_tag) -> ClassMeans:
    """Class means from separate [B x H] answer and question/context means,
    stacked by two products with constant selector matrices, so that
    gradients reach both."""
    n = answer_mean.shape[0]
    select = np.eye(2 * n)
    return ClassMeans(T.matmul(T.constant(select[:, :n]), answer_mean)
                      + T.matmul(T.constant(select[:, n:]), cq_mean), tuple(domain_tag))


@pytest.fixture(scope="session")
def tiny_config():
    return EncoderConfig(vocab_size=32, hidden_dim=16, num_layers=1, num_heads=2,
                         ff_dim=32, max_len=16, seed=7)


@pytest.fixture(scope="session")
def tiny_model(tiny_config):
    return SpanModel(tiny_config)


def assert_flat_layout(model: SpanModel) -> None:
    """Every parameter of ``model`` is a view of ``model.flat``, in
    ``param_shapes`` order, back to back."""
    shapes = SpanModel.param_shapes(model.config)
    assert list(model.params) == list(shapes)
    base = model.flat.__array_interface__["data"][0]
    offset = 0
    for name, p in model.params.items():
        assert p.data.shape == shapes[name], name
        assert np.shares_memory(p.data, model.flat), name
        assert p.data.__array_interface__["data"][0] == base + 8 * offset, name
        offset += p.data.size
    assert offset == model.flat.size


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that ``workers`` sees."""
    def set_count(n):
        monkeypatch.setattr(workers, "usable_cpus", lambda: n)
    return set_count


@pytest.fixture
def forks(monkeypatch):
    """The pids that ``os.fork`` returned to this process."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids
