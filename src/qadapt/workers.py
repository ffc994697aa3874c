"""BLAS pinned to one thread, and forked children for independent work.

When the package loads, ``pin_blas_threads`` sets the OpenBLAS that numpy
bundles to one thread and ``BLAS_PINNED`` keeps whether it found one. A
second BLAS thread rounds some products differently, so artifacts would
depend on ``OPENBLAS_NUM_THREADS``, and it would compete with a child
process for the second core.

Two primitives put work on the second core. Both fork their child through
``_forked``, which reaps it before the call returns and SIGKILLs it first
when the call fails or is abandoned here. A child holds what it needs
through the fork, so its callable may be any callable, and an exception
raised in it is raised again here with its type.

- ``split_map(fn, items)`` yields ``fn(item)`` for every item, in order.
  Its child computes the second half of the items while this process
  computes the first; the results come back as one pickle over a pipe.
- ``partner(serve)`` keeps one child for a block of work and holds
  conversations with it over two pipes (``Partner``). Larger state, such as
  parameters and gradients, goes in ``shared_zeros`` arrays made before the
  fork, which both processes read and write.

Forking pays only with two usable CPUs and pinned BLAS: two processes with
unpinned BLAS oversubscribe the cores. Inside a child, while a child runs,
or without these, both primitives run their work in-process, in the same
order of computation, so that results never depend on where they ran.
"""

from __future__ import annotations

import collections
import ctypes
import glob
import mmap
import os
import pickle
import signal
from contextlib import contextmanager
from typing import Callable, Generator, Iterator, Sequence

import numpy as np

_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def pin_blas_threads(threads: int = 1) -> bool:
    """Set numpy's bundled OpenBLAS (or one linked into the process) to
    ``threads`` threads; False when no OpenBLAS is found."""
    root = os.path.dirname(np.__file__)
    libraries = sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))
                       + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))
    for path in libraries + [None]:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(threads)
                return True
    return False


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_child_running = False  # set in a child, and here while a child runs


def can_fork() -> bool:
    """Whether a child would get a core of its own and the same arithmetic."""
    return BLAS_PINNED and not _child_running and usable_cpus() >= 2


def shared_zeros(shape: int | tuple[int, ...]) -> np.ndarray:
    """A float64 array of zeros in an anonymous shared mapping: a child forked
    after it is made and this process see each other's writes."""
    size = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), np.float64, size).reshape(shape)


def _reply(compute: Callable[[], object]) -> bytes:
    """The pickled ``(ok, result or exception)`` of ``compute()``."""
    try:
        return pickle.dumps((True, compute()), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        try:
            reply = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            pickle.loads(reply)  # some exceptions pickle but cannot be rebuilt
            return reply
        except Exception:
            return pickle.dumps((False, ChildProcessError(f"{type(exc).__name__}: {exc}")))


def _result(reply: tuple):
    """The result an unpickled ``_reply`` carries, or its exception raised."""
    ok, value = reply
    if not ok:
        raise value
    return value


@contextmanager
def _forked(body: Callable[[], None], theirs: Sequence[int], mine: Sequence[int]) -> Iterator[int]:
    """Fork a child that runs ``body()`` and exits, and yield its pid.
    ``theirs`` are the child's pipe ends and ``mine`` this process's; each
    side closes the other's. The child is reaped when the block ends, and
    SIGKILLed first unless the block ran to its end."""
    global _child_running
    pid = os.fork()
    if pid == 0:
        _child_running = True  # calls made in the child run in-process
        status = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles Ctrl-C
            for fd in mine:
                os.close(fd)
            body()
            status = 0
        finally:
            os._exit(status)
    for fd in theirs:
        os.close(fd)
    _child_running = True
    finished = False
    try:
        yield pid
        finished = True
    finally:
        if not finished:  # failed or abandoned here; the child may still be busy
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        _child_running = False


def split_map(fn: Callable, items: Sequence) -> Iterator:
    """``fn(item)`` for each item, in order; the second half of the items
    runs in a child forked for this call while this process computes the
    first."""
    items = list(items)
    half = len(items) // 2
    if not half or not can_fork():
        yield from map(fn, items)
        return
    reply_r, reply_w = os.pipe()

    def body():
        with os.fdopen(reply_w, "wb") as out:
            out.write(_reply(lambda: [fn(item) for item in items[half:]]))

    with _forked(body, theirs=[reply_w], mine=[reply_r]) as pid:
        with os.fdopen(reply_r, "rb") as replies:
            for item in items[:half]:
                yield fn(item)
            reply = replies.read()
    if not reply:
        raise ChildProcessError(f"child process {pid} exited without replying")
    yield from _result(pickle.loads(reply))


class _Conversations:
    """Answers messages with ``serve``, a generator function. A message that
    arrives while no conversation runs starts one, ``serve(message)``; later
    messages are sent into it. Each answer is the value it yields next, or
    the value it returns, which ends the conversation, as an exception does."""

    def __init__(self, serve: Callable[[object], Generator]):
        self.serve = serve
        self.current: Generator | None = None

    def answer(self, message):
        try:
            if self.current is None:
                self.current = self.serve(message)
                return next(self.current)
            return self.current.send(message)
        except StopIteration as stop:
            self.current = None
            return stop.value
        except BaseException:
            self.current = None
            raise


class Partner:
    """The calling side of ``partner``: every message ``send`` passes is
    answered by one ``recv``, in order. This one runs ``serve`` in-process
    when its answer is asked for, so the work of both sides runs in the
    order the caller interleaves ``send``, its own work and ``recv``."""

    def __init__(self, serve: Callable[[object], Generator]):
        self._conversations = _Conversations(serve)
        self._unanswered: collections.deque = collections.deque()

    def send(self, message) -> None:
        self._unanswered.append(message)

    def recv(self):
        return self._conversations.answer(self._unanswered.popleft())


class _ForkedPartner(Partner):
    """A ``Partner`` whose ``serve`` runs in a forked child, which answers
    each message as soon as it arrives."""

    def __init__(self, pid: int, requests, replies):
        self._pid, self._requests, self._replies = pid, requests, replies

    def send(self, message) -> None:
        pickle.dump(message, self._requests, pickle.HIGHEST_PROTOCOL)
        self._requests.flush()

    def recv(self):
        try:
            reply = pickle.load(self._replies)
        except EOFError:
            raise ChildProcessError(f"child process {self._pid} exited without replying") from None
        return _result(reply)


def _answer_requests(serve: Callable[[object], Generator], requests, replies) -> None:
    """The body of a partner child: answer each request until the caller
    closes the request pipe."""
    conversations = _Conversations(serve)
    while True:
        try:
            message = pickle.load(requests)
        except EOFError:
            return
        replies.write(_reply(lambda: conversations.answer(message)))
        replies.flush()


@contextmanager
def partner(serve: Callable[[object], Generator]) -> Iterator[Partner]:
    """A ``Partner`` that holds conversations with ``serve`` for the block;
    when forking pays (``can_fork``), ``serve`` runs in a child forked for
    the block, otherwise in-process."""
    if not can_fork():
        yield Partner(serve)
        return
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()

    def body():
        with os.fdopen(request_r, "rb") as requests, os.fdopen(reply_w, "wb") as replies:
            _answer_requests(serve, requests, replies)

    with _forked(body, theirs=[request_r, reply_w], mine=[request_w, reply_r]) as pid:
        with os.fdopen(request_w, "wb") as requests, os.fdopen(reply_r, "rb") as replies:
            yield _ForkedPartner(pid, requests, replies)


BLAS_PINNED = pin_blas_threads()
