"""BLAS pinned to one thread, and a forked child for independent work.

When the package loads, ``pin_blas_threads`` sets the OpenBLAS that numpy
bundles to one thread and ``BLAS_PINNED`` keeps whether it found one. A
second BLAS thread rounds some products differently, so artifacts would
depend on ``OPENBLAS_NUM_THREADS``, and it would compete with the child
process for the second core.

``split_map(fn, items)`` yields ``fn(item)`` for every item, in order. Given
at least two items and two usable CPUs, it forks one child for the call,
which computes the second half while this process computes the first. The
child holds ``fn`` and the items through the fork, so ``fn`` may be any
callable; only its results come back, as one pickle over a pipe, and an
exception raised in the child is raised again here. Calls made inside the
child, or while a child runs, run in-process. The child is reaped before
the call returns, and killed first if the call is abandoned or fails here.
"""

from __future__ import annotations

import ctypes
import glob
import os
import pickle
import signal
from typing import Callable, Iterator, Sequence

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


def _reply(fn: Callable, items: list) -> bytes:
    """The pickled ``(ok, results or exception)`` reply of a child."""
    try:
        return pickle.dumps((True, [fn(item) for item in items]), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        try:
            reply = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            pickle.loads(reply)  # some exceptions pickle but cannot be rebuilt
            return reply
        except Exception:
            return pickle.dumps((False, ChildProcessError(f"{type(exc).__name__}: {exc}")))


def _child_main(fn: Callable, items: list, reply_fd: int) -> None:
    """Body of the forked child; it never returns into the caller's code."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles Ctrl-C
        with os.fdopen(reply_fd, "wb") as out:
            out.write(_reply(fn, items))
        status = 0
    finally:
        os._exit(status)


def split_map(fn: Callable, items: Sequence) -> Iterator:
    """``fn(item)`` for each item, in order; the second half of the items
    runs in a child forked for this call while this process computes the
    first."""
    global _child_running
    items = list(items)
    half = len(items) // 2
    if not half or _child_running or usable_cpus() < 2:
        for item in items:
            yield fn(item)
        return
    reply_r, reply_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child_running = True  # nested split_map calls run in-process
        os.close(reply_r)
        _child_main(fn, items[half:], reply_w)
    os.close(reply_w)
    _child_running = True
    reply = None
    try:
        with os.fdopen(reply_r, "rb") as replies:
            for item in items[:half]:
                yield fn(item)
            reply = replies.read()
    finally:
        if not reply:  # abandoned, failed here, or the child died
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        _child_running = False
    if not reply:
        raise ChildProcessError(f"child process {pid} exited without replying")
    ok, value = pickle.loads(reply)
    if not ok:
        raise value
    yield from value


BLAS_PINNED = pin_blas_threads()
