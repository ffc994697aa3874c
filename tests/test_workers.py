"""The forked children of ``qadapt.workers``: ``split_map`` results in input
order and equal to the in-process path bit for bit, ``partner``
conversations answered in order, errors raised again with their type,
in-process fallbacks (one usable CPU, unpinned BLAS, nested calls, a call
made while a child runs), and no child left once a call returns, is
abandoned, or loses its child."""

import os

import numpy as np
import pytest

from qadapt import tensor as T
from qadapt import workers
from qadapt.datagen import DomainShiftSpec, make_synthetic_domains
from qadapt.evaluation import answer_mean_features, predict_answers
from qadapt.model import INFER_CHUNK, EncoderConfig, SpanModel, map_chunks, tokenize_samples
from qadapt.training import DivergenceError
from conftest import assert_no_child_left

CONFIG = EncoderConfig(hidden_dim=16, num_layers=1, num_heads=2, ff_dim=32, max_len=96, seed=3)


def _where(item):
    return item, os.getpid()


class Unbuildable(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, message, code):
        super().__init__(message)


@pytest.fixture(scope="module")
def source():
    spec = DomainShiftSpec(n_source=2 * INFER_CHUNK + 7, n_target_contexts=1, context_words=(6, 9))
    return make_synthetic_domains(spec, seed=8)[0]


def test_second_half_runs_in_the_worker_in_order(cpus, forks):
    """Of five items the child runs items 2 and 3, and the odd last one runs
    here once the child is reaped, where it could fork a child of its own."""
    cpus(2)
    got = list(workers.split_map(lambda item: (*_where(item), workers.can_fork()), range(5)))
    assert [item for item, _, _ in got] == list(range(5))
    assert [pid for _, pid, _ in got] == [os.getpid()] * 2 + forks * 2 + [os.getpid()]
    assert [free for _, _, free in got] == [False] * 4 + [True]
    assert len(forks) == 1
    assert_no_child_left()


def test_multi_chunk_inference_equals_the_in_process_path(cpus, forks, source):
    model = SpanModel(CONFIG)
    pairs = tokenize_samples(source.samples, source.domain_tag, CONFIG.max_len)
    assert len(pairs) > 2 * INFER_CHUNK
    results = {}
    for n in (1, 2):
        cpus(n)
        results[n] = (predict_answers(model, pairs, 16), answer_mean_features(model, source))
    assert len(forks) == 2
    assert results[1][0] == results[2][0]
    assert results[1][1].tobytes() == results[2][1].tobytes()


def test_lambda_reduce_in_map_chunks(cpus, forks, source):
    cpus(2)
    tokenized = [ts for _, ts in tokenize_samples(source.samples, source.domain_tag, CONFIG.max_len)]
    sizes = [size for _, size in map_chunks(SpanModel(CONFIG), tokenized,
                                            lambda packed, features: features.data.shape[0])]
    assert sizes == [sum(len(ts) for ts in tokenized[lo:lo + INFER_CHUNK])
                     for lo in range(0, len(tokenized), INFER_CHUNK)]
    assert len(forks) == 1


def test_worker_error_is_raised_here_with_its_type(cpus):
    cpus(2)

    def fail_at_3(item):
        if item == 3:
            raise T.NonFiniteError(f"item {item} in process {os.getpid()}")
        return item
    with pytest.raises(T.NonFiniteError, match="item 3 in process") as err:
        list(workers.split_map(fail_at_3, range(4)))
    assert f"process {os.getpid()}" not in str(err.value)

    def diverge_at_1(item):
        if item == 1:
            raise DivergenceError("loss is nan", last_finite_step=4)
        return item
    with pytest.raises(DivergenceError, match="loss is nan") as err:
        list(workers.split_map(diverge_at_1, range(2)))
    assert err.value.last_finite_step == 4

    def fail_unbuildable(item):
        if item == 1:
            raise Unbuildable(f"item {item}", 1)
        return item
    with pytest.raises(ChildProcessError, match="Unbuildable: item 1"):
        list(workers.split_map(fail_unbuildable, range(2)))
    assert_no_child_left()


def test_child_that_exits_without_replying_raises(cpus):
    cpus(2)
    here = os.getpid()
    with pytest.raises(ChildProcessError, match="exited without replying"):
        list(workers.split_map(lambda item: item if os.getpid() == here else os._exit(3), range(4)))
    assert_no_child_left()


def test_one_usable_cpu_forks_nothing(cpus, monkeypatch, source):
    cpus(1)

    def no_fork():
        raise AssertionError("forked with one usable CPU")
    monkeypatch.setattr(os, "fork", no_fork)
    features = answer_mean_features(SpanModel(CONFIG), source)
    assert features.shape[0] == len(source)
    assert {pid for _, pid in workers.split_map(_where, range(4))} == {os.getpid()}


def test_nested_and_busy_calls_run_in_process(cpus, forks):
    cpus(2)

    def nested(_):
        return [pid for _, pid in workers.split_map(_where, range(2))]
    assert list(workers.split_map(nested, range(2))) == [[os.getpid()] * 2, forks * 2]

    calls = workers.split_map(_where, range(4))
    next(calls)  # a child now runs items 2 and 3
    assert {pid for _, pid in workers.split_map(_where, range(4))} == {os.getpid()}
    assert [item for item, _ in calls] == [1, 2, 3]
    assert len(forks) == 2
    assert_no_child_left()


def test_abandoned_call_leaves_no_child(cpus, forks):
    cpus(2)
    calls = workers.split_map(_where, range(6))
    next(calls)
    calls.close()  # the child is still busy with items 3-5
    assert len(forks) == 1
    assert_no_child_left()
    assert [item for item, _ in workers.split_map(_where, range(6))] == list(range(6))


def test_blas_is_pinned_when_numpy_uses_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.25 prints its build config only
        pytest.skip("numpy does not report its BLAS")
    if "openblas" not in blas:
        pytest.skip(f"numpy uses {blas}")
    assert workers.BLAS_PINNED is True
    assert workers.pin_blas_threads() is True


def _summing(first):
    """A conversation: answers its opening number with this process's pid,
    then adds each later number to a running total until sent None, and
    returns the total."""
    total = first
    number = yield os.getpid()
    while number is not None:
        total += number
        number = yield total
    return total


def test_partner_conversations_run_in_the_child_in_order(cpus, forks):
    cpus(2)
    with workers.partner(_summing) as partner:
        for first in (10, 20):
            partner.send(first)
            assert partner.recv() == forks[0]
            for number, total in ((1, first + 1), (2, first + 3)):
                partner.send(number)
                assert partner.recv() == total
            partner.send(None)
            assert partner.recv() == first + 3
        assert len(forks) == 1
    assert_no_child_left()


def test_in_process_partner_runs_when_its_answer_is_asked_for(cpus, forks):
    cpus(1)
    order = []

    def serve(message):
        order.append(("serve", message))
        reply = yield message * 2
        order.append(("serve", reply))
        return reply + 1
    with workers.partner(serve) as partner:
        partner.send(3)
        order.append(("caller", 3))
        assert partner.recv() == 6
        partner.send(7)
        order.append(("caller", 7))
        assert partner.recv() == 8
    assert order == [("caller", 3), ("serve", 3), ("caller", 7), ("serve", 7)]
    assert forks == []


@pytest.mark.parametrize("n_cpus", [2, 1])
def test_partner_error_is_raised_here_and_ends_only_its_conversation(cpus, forks, n_cpus):
    cpus(n_cpus)

    def serve(message):
        reply = yield message
        if reply == "diverge":
            raise DivergenceError("loss is nan", last_finite_step=6)
        return reply
    with workers.partner(serve) as partner:
        partner.send("open")
        assert partner.recv() == "open"
        partner.send("diverge")
        with pytest.raises(DivergenceError, match="loss is nan") as err:
            partner.recv()
        assert err.value.last_finite_step == 6
        partner.send("again")  # opens a new conversation
        assert partner.recv() == "again"
    assert len(forks) == (n_cpus == 2)
    assert_no_child_left()


def test_partner_child_that_exits_raises_and_is_reaped(cpus):
    cpus(2)
    here = os.getpid()

    def serve(message):
        if os.getpid() != here:
            os._exit(3)
        yield message
    with pytest.raises(ChildProcessError, match="exited without replying"):
        with workers.partner(serve) as partner:
            partner.send(1)
            partner.recv()
    assert_no_child_left()


def test_failed_block_kills_a_busy_partner(cpus, forks):
    cpus(2)

    def serve(message):
        while True:  # busy until killed
            message = message + 1
        yield message
    with pytest.raises(KeyError):
        with workers.partner(serve) as partner:
            partner.send(0)
            raise KeyError("caller failed")
    assert len(forks) == 1
    assert_no_child_left()


def test_shared_zeros_carry_writes_both_ways(cpus):
    """Each round's writes are seen by the other side after one message, as
    the trainer's parameters and gradients are: a stale read breaks a sum."""
    cpus(2)
    shared = workers.shared_zeros((2, 3))

    def serve(factor):
        while True:  # one conversation for every round
            shared[1] = shared[0] * factor
            factor = yield None
    with workers.partner(serve) as partner:
        for i in range(200):
            shared[0] = [i, i + 1.0, i + 2.0]
            partner.send(2.0)
            partner.recv()
            assert shared[1].tolist() == [2.0 * i, 2.0 * i + 2.0, 2.0 * i + 4.0]


def test_unpinned_blas_forks_nothing(cpus, forks, monkeypatch):
    cpus(2)
    monkeypatch.setattr(workers, "BLAS_PINNED", False)
    assert {pid for _, pid in workers.split_map(_where, range(4))} == {os.getpid()}
    with workers.partner(_summing) as partner:
        partner.send(0)
        assert partner.recv() == os.getpid()
    assert forks == []
