"""BLAS pinned to one thread, and forked children for independent work.

When the package loads, ``pin_blas_threads`` sets the OpenBLAS that numpy
bundles to one thread and ``BLAS_PINNED`` keeps whether it found one. A
second BLAS thread rounds some products differently, so artifacts would
depend on ``OPENBLAS_NUM_THREADS``, and it would compete with a child
process for the second core.

One primitive puts work on the second core. ``partner(serve)`` forks one
child for a block of work and holds conversations with it over two pipes
of framed pickles (``Partner``); the child answers each message with an
in-process ``Partner`` of its own. The child is reaped before the block
ends, and SIGKILLed first when the block fails or is abandoned. A child
holds what it needs through the fork, so ``serve`` may be any callable,
and an exception raised in it is raised again here with its type. Larger
state, such as parameters and gradients, goes in ``shared_zeros`` arrays
made before the fork, which both processes read and write.

``split_map(fn, items)`` yields ``fn(item)`` for every item, in order, as
a one-message conversation: of 2h or 2h + 1 items, the child computes items
h to 2h - 1 while this process computes the first h, and answers with
their results. An odd last item runs here after the child is reaped, so
that it may fork a child of its own.

Forking pays only with two usable CPUs and pinned BLAS: two processes with
unpinned BLAS oversubscribe the cores. Inside a child, while a child runs,
without these, or when ``os.fork`` fails, ``partner`` gives the in-process
``Partner``, which runs the same work in the same order of computation, so
that results never depend on where they ran.
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


class Partner:
    """The calling side of ``partner``: every message ``send`` passes is
    answered by one ``recv``, in order. A message that arrives while no
    conversation runs starts one, ``serve(message)``; later messages are
    sent into it. Each answer is the value it yields next, or the value it
    returns, which ends the conversation, as an exception does.

    This one runs ``serve`` in-process when its answer is asked for, so the
    work of both sides runs in the order the caller interleaves ``send``,
    its own work and ``recv``. A forked child answers with one too."""

    def __init__(self, serve: Callable[[object], Generator]):
        self._serve = serve
        self._current: Generator | None = None
        self._unanswered: collections.deque = collections.deque()

    def send(self, message) -> None:
        self._unanswered.append(message)

    def recv(self):
        message = self._unanswered.popleft()
        try:
            if self._current is None:
                self._current = self._serve(message)
                return next(self._current)
            return self._current.send(message)
        except StopIteration as stop:
            self._current = None
            return stop.value
        except BaseException:
            self._current = None
            raise


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
            ok, value = pickle.load(self._replies)
        except EOFError:
            raise ChildProcessError(f"child process {self._pid} exited without replying") from None
        if not ok:
            raise value
        return value


@contextmanager
def partner(serve: Callable[[object], Generator]) -> Iterator[Partner]:
    """A ``Partner`` that holds conversations with ``serve`` for the block.
    When forking pays (``can_fork``), ``serve`` runs in a child forked for
    the block, which answers each request until the block closes the
    request pipe; the child is reaped when the block ends, and SIGKILLed
    first unless the block ran to its end. Otherwise, or when the fork
    fails, ``serve`` runs in-process."""
    global _child_running
    if not can_fork():
        yield Partner(serve)
        return
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had (EAGAIN, ENOMEM): the same work, here
        for fd in (request_r, request_w, reply_r, reply_w):
            os.close(fd)
        pid = None
    if pid is None:
        yield Partner(serve)
        return
    if pid == 0:
        _child_running = True  # calls made in the child run in-process
        status = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles Ctrl-C
            os.close(request_w)
            os.close(reply_r)
            answering = Partner(serve)
            with os.fdopen(request_r, "rb") as requests, os.fdopen(reply_w, "wb") as replies:
                while True:
                    try:
                        answering.send(pickle.load(requests))
                    except EOFError:
                        break
                    replies.write(_reply(answering.recv))
                    replies.flush()
            status = 0
        finally:
            os._exit(status)
    os.close(request_r)
    os.close(reply_w)
    _child_running = True
    finished = False
    try:
        with os.fdopen(request_w, "wb") as requests, os.fdopen(reply_r, "rb") as replies:
            yield _ForkedPartner(pid, requests, replies)
        finished = True
    finally:
        if not finished:  # failed or abandoned here; the child may still be busy
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        _child_running = False


def split_map(fn: Callable, items: Sequence) -> Iterator:
    """``fn(item)`` for each item, in order: one ``partner`` conversation,
    whose one answer is the results of ``items[half:2 * half]``, computed
    while this process computes the first half; an odd last item runs here
    once the child is reaped."""
    items = list(items)
    half = len(items) // 2

    def second_half(start):
        yield [fn(item) for item in items[start:2 * start]]

    if half:
        with partner(second_half) as other:
            other.send(half)
            for item in items[:half]:
                yield fn(item)
            rest = other.recv()
        yield from rest
    yield from map(fn, items[2 * half:])


BLAS_PINNED = pin_blas_threads()
