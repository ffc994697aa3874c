"""The worker of ``qadapt.workers``: ``split_map`` results in input order
and equal to the in-process path bit for bit, sessions answered in order,
errors raised again with their type, in-process fallbacks (one usable CPU,
unpinned BLAS, nested calls, a call made while the worker is busy), one
fork for many sessions, functions sent by reference only, and no process
left once the worker is stopped, killed, abandoned, or its program exits."""

import os
import platform
import resource
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from qadapt import tensor as T
from qadapt import workers
from qadapt.datagen import DomainShiftSpec, make_synthetic_domains
from qadapt.evaluation import answer_mean_features, predict_answers
from qadapt.model import (
    INFER_CHUNK, EncoderConfig, SpanModel, map_chunks, tokenize_samples,
)
from qadapt.training import DivergenceError
from conftest import assert_no_child_left

CONFIG = EncoderConfig(hidden_dim=16, num_layers=1, num_heads=2, ff_dim=32, max_len=96, seed=3)


def _where(item):
    return item, os.getpid()


def _where_and_free(item):
    return item, os.getpid(), workers.can_fork()


def _nested_pids(item):
    return [pid for _, pid in workers.split_map(_where, range(2))]


def _token_rows(model, packed, features):
    return features.data.shape[0]


def _fail_at_3(item):
    if item == 3:
        raise T.NonFiniteError(f"item {item} in process {os.getpid()}")
    return item


def _diverge_at_1(item):
    if item == 1:
        raise DivergenceError("loss is nan", last_finite_step=4)
    return item


class Unbuildable(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, message, code):
        super().__init__(message)


def _fail_unbuildable(item):
    if item == 1:
        raise Unbuildable(f"item {item}", 1)
    return item


def _exit_unless_in(here, item):
    return item if os.getpid() == here else os._exit(3)


@pytest.fixture(scope="module")
def source():
    spec = DomainShiftSpec(n_source=2 * INFER_CHUNK + 7, n_target_contexts=1, context_words=(6, 9))
    return make_synthetic_domains(spec, seed=8)[0]


def test_second_half_runs_in_the_worker_in_order(cpus, forks):
    """Of five items the worker runs items 2 and 3, and the odd last one
    runs here once the worker has answered, when it could use the worker."""
    cpus(2)
    got = list(workers.split_map(_where_and_free, range(5)))
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
    assert len(forks) == 1  # one worker for both calls
    assert results[1][0] == results[2][0]
    assert results[1][1].tobytes() == results[2][1].tobytes()


def test_lambda_reduce_in_map_chunks(cpus, forks, source):
    """A lambda or local reduce is refused with the same error on one CPU
    and on two; a module-level one reaches the worker."""
    tokenized = [ts for _, ts in tokenize_samples(source.samples, source.domain_tag,
                                                  CONFIG.max_len)]

    def local(model, packed, features):
        return features.data.shape[0]
    for n_cpus in (1, 2):
        cpus(n_cpus)
        for reduce in (lambda model, packed, features: features.data.shape[0], local):
            with pytest.raises(TypeError, match=r"is not a module-level function, so it "
                                                r"cannot be sent to the worker"):
                list(map_chunks(SpanModel(CONFIG), tokenized, reduce))
    assert forks == []
    sizes = [size for _, size in map_chunks(SpanModel(CONFIG), tokenized, _token_rows)]
    assert sizes == [sum(len(ts) for ts in tokenized[lo:lo + INFER_CHUNK])
                     for lo in range(0, len(tokenized), INFER_CHUNK)]
    assert len(forks) == 1


@pytest.mark.parametrize("n_cpus", [2, 1])
def test_only_module_level_functions_reach_the_worker(cpus, forks, n_cpus):
    """A lambda or a local function given to ``split_map`` or ``session``
    fails with the same error whatever the CPU count, since on two CPUs it
    would have to be pickled by reference."""
    cpus(n_cpus)

    def local(*args):
        return 0
    for fn in (lambda item: item, local):
        with pytest.raises(TypeError, match=r"is not a module-level function, so it cannot be "
                                            r"sent to the worker"):
            list(workers.split_map(fn, range(4)))
        with pytest.raises(TypeError, match="is not a module-level function"):
            list(workers.split_map(_where, range(1), fn))  # a function among the args
        with pytest.raises(TypeError, match="is not a module-level function"):
            with workers.session(fn):
                pass
    assert forks == []


def test_worker_error_is_raised_here_with_its_type(cpus, forks):
    cpus(2)
    with pytest.raises(T.NonFiniteError, match="item 3 in process") as err:
        list(workers.split_map(_fail_at_3, range(4)))
    assert f"process {os.getpid()}" not in str(err.value)
    with pytest.raises(DivergenceError, match="loss is nan") as err:
        list(workers.split_map(_diverge_at_1, range(2)))
    assert err.value.last_finite_step == 4
    with pytest.raises(ChildProcessError, match="Unbuildable: item 1"):
        list(workers.split_map(_fail_unbuildable, range(2)))
    assert [pid for _, pid in workers.split_map(_where, range(2))] == [os.getpid()] + forks
    assert len(forks) == 1
    assert_no_child_left()


def test_child_that_exits_without_replying_raises(cpus, forks):
    cpus(2)
    here = os.getpid()
    with pytest.raises(ChildProcessError, match="exited without replying"):
        list(workers.split_map(_exit_unless_in, range(4), here))
    with pytest.raises(ChildProcessError):  # it was reaped, and no other runs
        os.waitpid(-1, os.WNOHANG)
    assert [pid for _, pid in workers.split_map(_where, range(2))] == [here, forks[1]]
    assert len(forks) == 2
    assert_no_child_left()


def _state(pid: int) -> str:
    """The process state letter of ``pid`` (Linux), or "" once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return ""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_killed_idle_worker_is_reaped_and_its_session_runs_here(cpus, forks):
    """A worker SIGKILLed between sessions is reaped by the next session,
    which runs in-process, since nothing was sent to the worker; the session
    after that forks another. A worker lost during a conversation still
    raises (``test_child_that_exits_without_replying_raises``)."""
    cpus(2)
    here = os.getpid()
    assert [pid for _, pid in workers.split_map(_where, range(2))] == [here] + forks
    os.kill(forks[0], signal.SIGKILL)
    deadline = time.monotonic() + 10
    while _state(forks[0]) != "Z" and time.monotonic() < deadline:
        time.sleep(0.01)  # dead, not yet reaped
    assert _state(forks[0]) == "Z"
    assert [pid for _, pid in workers.split_map(_where, range(2))] == [here, here]
    assert _state(forks[0]) == ""  # reaped: no zombie
    assert len(forks) == 1
    assert [pid for _, pid in workers.split_map(_where, range(2))] == [here, forks[1]]
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
    assert list(workers.split_map(_nested_pids, range(2))) == [[os.getpid()] * 2, forks * 2]

    calls = workers.split_map(_where, range(4))
    next(calls)  # the worker now runs items 2 and 3
    assert {pid for _, pid in workers.split_map(_where, range(4))} == {os.getpid()}
    assert [item for item, _ in calls] == [1, 2, 3]
    assert len(forks) == 1
    assert_no_child_left()


def test_abandoned_call_leaves_no_child(cpus, forks):
    cpus(2)
    calls = workers.split_map(_where, range(6))
    next(calls)
    calls.close()  # the worker is still busy with items 3-5
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # SIGKILLed and reaped
        os.waitpid(-1, os.WNOHANG)
    assert [item for item, _ in workers.split_map(_where, range(6))] == list(range(6))
    assert len(forks) == 2
    assert_no_child_left()


_SPLIT_MAP_THEN = """
import os, sys, time
from qadapt import workers
workers.usable_cpus = lambda: 2

def where(item):
    return os.getpid()

print(list(workers.split_map(where, range(2)))[1], flush=True)
if sys.argv[1] == "wait":
    time.sleep(60)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("end", ["exit", "killed"])
def test_the_worker_does_not_outlive_its_program(end):
    if not workers.BLAS_PINNED:
        pytest.skip("no worker is forked with unpinned BLAS")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-c", _SPLIT_MAP_THEN, "wait" if end == "killed" else "exit"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env) as program:
        worker = int(program.stdout.readline())
        assert worker != program.pid
        if end == "killed":
            program.kill()
        assert program.wait(timeout=60) == (-signal.SIGKILL if end == "killed" else 0)
    deadline = time.monotonic() + 10
    while _state(worker) not in ("", "Z") and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _state(worker) in ("", "Z")  # gone, or a zombie left to init
    if end == "exit":
        assert _state(worker) == ""  # reaped by its program at exit


def test_blas_is_pinned_when_numpy_uses_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.25 prints its build config only
        pytest.skip("numpy does not report its BLAS")
    if "openblas" not in blas:
        pytest.skip(f"numpy uses {blas}")
    assert workers.BLAS_PINNED is True
    assert workers.pin_blas_threads() is True


def _running_total():
    """Answers each number with this process's pid and the running total of
    the numbers this session was sent, which starts at 0 in each session."""
    total = 0

    def serve(number):
        nonlocal total
        total += number
        return os.getpid(), total
    return serve


def test_partner_requests_run_in_the_child_in_order(cpus, forks):
    cpus(2)
    for _ in range(2):  # two sessions, one worker
        with workers.session(_running_total) as partner:
            for number, total in ((10, 10), (1, 11), (2, 13)):
                partner.send(number)
                assert partner.recv() == (forks[0], total)
            partner.send(5)
            partner.send(6)  # two requests before their answers
            assert [partner.recv(), partner.recv()] == [(forks[0], 18), (forks[0], 24)]
    assert len(forks) == 1
    assert_no_child_left()


def _logged_doubling(order):
    def serve(request):
        order.append(("serve", request))
        return request * 2
    return serve


def test_in_process_partner_runs_when_its_answer_is_asked_for(cpus, forks):
    cpus(1)
    order = []
    with workers.session(_logged_doubling, order) as partner:
        partner.send(3)
        order.append(("caller", 3))
        assert partner.recv() == 6
        partner.send(7)
        order.append(("caller", 7))
        assert partner.recv() == 14
    assert order == [("caller", 3), ("serve", 3), ("caller", 7), ("serve", 7)]
    assert forks == []


def _echo_or_diverge():
    def serve(request):
        if request == "diverge":
            raise DivergenceError("loss is nan", last_finite_step=6)
        return request
    return serve


@pytest.mark.parametrize("n_cpus", [2, 1])
def test_partner_error_is_raised_here_and_the_session_answers_again(cpus, forks, n_cpus):
    cpus(n_cpus)
    with workers.session(_echo_or_diverge) as partner:
        partner.send("open")
        assert partner.recv() == "open"
        partner.send("diverge")
        with pytest.raises(DivergenceError, match="loss is nan") as err:
            partner.recv()
        assert err.value.last_finite_step == 6
        partner.send("again")
        assert partner.recv() == "again"
    assert len(forks) == (n_cpus == 2)
    assert_no_child_left()


def _exit_in_worker(here):
    def serve(request):
        if os.getpid() != here:
            os._exit(3)
        return request
    return serve


def test_partner_child_that_exits_raises_and_is_reaped(cpus):
    cpus(2)
    with pytest.raises(ChildProcessError, match="exited without replying"):
        with workers.session(_exit_in_worker, os.getpid()) as partner:
            partner.send(1)
            partner.recv()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _busy_forever():
    def serve(request):
        while True:  # busy until killed
            request = request + 1
    return serve


def test_failed_block_kills_a_busy_partner(cpus, forks):
    cpus(2)
    with pytest.raises(KeyError):
        with workers.session(_busy_forever) as partner:
            partner.send(0)
            raise KeyError("caller failed")
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _double_rows(shared):
    def serve(factor):
        shared[1] = shared[0] * factor
        return os.getpid()
    return serve


def test_shared_zeros_carry_writes_both_ways(cpus, forks):
    """Each round's writes are seen by the other side after one request, as
    the trainer's parameters and gradients are: a stale read breaks a sum.
    The array goes to the worker when the session opens, after the fork."""
    cpus(2)
    assert list(workers.split_map(_where, range(2)))[1][1] == forks[0]
    shared = workers.shared_zeros((2, 3))
    with workers.session(_double_rows, shared) as partner:
        for i in range(200):
            shared[0] = [i, i + 1.0, i + 2.0]
            partner.send(2.0)
            assert partner.recv() == forks[0]
            assert shared[1].tolist() == [2.0 * i, 2.0 * i + 2.0, 2.0 * i + 4.0]
    assert len(forks) == 1
    assert_no_child_left()


def _faults_to_fill(megabytes):
    """This process's minor faults while it fills a fresh array of that size."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(megabytes << 17)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_the_worker_reuses_the_memory_it_frees(cpus, forks):
    """A 3 MB array made again in the worker takes the memory the last one
    freed, instead of being faulted in afresh (768 pages) as under glibc's
    default malloc thresholds. Under 4 MB, numpy asks for no huge pages, so
    each page faults once."""
    cpus(2)
    faults = list(workers.split_map(_faults_to_fill, [3] * 6))
    assert len(forks) == 1
    assert max(faults[4:]) < 64, faults  # the worker's second and third arrays
    assert_no_child_left()


def test_unpinned_blas_forks_nothing(cpus, forks, monkeypatch):
    cpus(2)
    monkeypatch.setattr(workers, "BLAS_PINNED", False)
    assert {pid for _, pid in workers.split_map(_where, range(4))} == {os.getpid()}
    with workers.session(_running_total) as partner:
        partner.send(0)
        assert partner.recv() == (os.getpid(), 0)
    assert forks == []
