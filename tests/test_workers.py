"""The worker process of ``qadapt.workers``: results in input order and equal
to the in-process path bit for bit, errors raised again with their type,
in-process fallbacks (one usable CPU, nested calls, a busy worker), and no
worker left behind by a process that used one."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qadapt import tensor as T
from qadapt import workers
from qadapt.datagen import DomainShiftSpec, make_synthetic_domains
from qadapt.evaluation import answer_mean_features, predict_answers
from qadapt.model import INFER_CHUNK, EncoderConfig, SpanModel, tokenize_samples

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIG = EncoderConfig(hidden_dim=16, num_layers=1, num_heads=2, ff_dim=32, max_len=96, seed=3)


def _where(_, item):
    return item, os.getpid()


def _fail_at(bad, item):
    if item == bad:
        raise T.NonFiniteError(f"item {item} in process {os.getpid()}")
    return item


def _nested(_, item):
    return [pid for _, pid in workers.split_map(_where, None, range(2))]


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that ``workers`` sees."""
    def set_count(n):
        monkeypatch.setattr(workers, "usable_cpus", lambda: n)
    return set_count


@pytest.fixture(scope="module")
def source():
    spec = DomainShiftSpec(n_source=2 * INFER_CHUNK + 7, n_target_contexts=1, context_words=(6, 9))
    return make_synthetic_domains(spec, seed=8)[0]


def test_second_half_runs_in_the_worker_in_order(cpus):
    cpus(2)
    got = list(workers.split_map(_where, None, range(5)))
    assert [item for item, _ in got] == list(range(5))
    here = os.getpid()
    assert [pid == here for _, pid in got] == [True, True, False, False, False]
    assert got[2][1] == workers._worker.pid


def test_multi_chunk_inference_equals_the_in_process_path(cpus, source):
    model = SpanModel(CONFIG)
    pairs = tokenize_samples(source.samples, source.domain_tag, CONFIG.max_len)
    assert len(pairs) > 2 * INFER_CHUNK
    results = {}
    for n in (1, 2):
        cpus(n)
        results[n] = (predict_answers(model, pairs, 16), answer_mean_features(model, source))
    assert workers._worker is not None
    assert results[1][0] == results[2][0]
    assert results[1][1].tobytes() == results[2][1].tobytes()


def test_worker_error_is_raised_here_with_its_type(cpus):
    cpus(2)
    with pytest.raises(T.NonFiniteError, match="item 3 in process") as err:
        list(workers.split_map(_fail_at, 3, range(4)))
    assert f"process {os.getpid()}" not in str(err.value)
    pid = workers._worker.pid
    assert list(workers.split_map(_where, None, range(4)))[3] == (3, pid)  # still serving


def test_one_usable_cpu_forks_nothing(cpus, monkeypatch, source):
    workers.shutdown()
    cpus(1)

    def no_fork():
        raise AssertionError("forked with one usable CPU")
    monkeypatch.setattr(os, "fork", no_fork)
    features = answer_mean_features(SpanModel(CONFIG), source)
    assert features.shape[0] == len(source)
    assert {pid for _, pid in workers.split_map(_where, None, range(4))} == {os.getpid()}
    assert workers._worker is None


def test_nested_and_busy_calls_run_in_process(cpus):
    cpus(2)
    got = list(workers.split_map(_nested, None, range(2)))
    worker_pid = workers._worker.pid
    assert got == [[os.getpid()] * 2, [worker_pid] * 2]


def test_abandoned_call_replaces_the_worker(cpus):
    cpus(2)
    calls = workers.split_map(_where, None, range(6))
    next(calls)
    first = workers._worker.pid
    calls.close()  # the worker is still busy with items 3-5
    assert workers._worker is None
    with pytest.raises(ChildProcessError):
        os.waitpid(first, 0)  # already reaped
    assert [item for item, _ in workers.split_map(_where, None, range(6))] == list(range(6))
    assert workers._worker.pid != first


def test_worker_is_gone_once_its_process_exits():
    # operator.add is a module-level function the worker finds by name
    script = textwrap.dedent("""
        import operator
        from qadapt import workers
        workers.usable_cpus = lambda: 2
        assert list(workers.split_map(operator.add, 10, range(4))) == [10, 11, 12, 13]
        print(workers._worker.pid)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    pid = int(done.stdout.split()[-1])
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_blas_is_pinned_when_numpy_uses_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.25 prints its build config only
        pytest.skip("numpy does not report its BLAS")
    if "openblas" not in blas:
        pytest.skip(f"numpy uses {blas}")
    assert workers.pin_blas_threads() is True
