"""BLAS pinned to one thread, and one worker process for independent work.

When the package loads, ``pin_blas_threads`` sets the OpenBLAS that numpy
bundles to one thread. A second BLAS thread rounds some products
differently, so artifacts would depend on ``OPENBLAS_NUM_THREADS``, and it
would compete with the worker process for the second core.

``split_map(fn, shared, items)`` yields ``fn(shared, item)`` for every item,
in order. Given at least two items and two usable CPUs, it sends the second
half to one persistent worker process, forked on first use, and computes the
first half here at the same time. Jobs and results travel as length-prefixed
pickles over two pipes, so ``fn`` must be a module-level function that pickle
finds by name; an exception raised in the worker is raised again here. Calls
made inside the worker, or while the worker is busy, run in-process. The
worker exits when its pipe closes: at interpreter exit (``shutdown``, which
also reaps it) or when this process dies.
"""

from __future__ import annotations

import atexit
import ctypes
import glob
import os
import pickle
import signal
import struct
from typing import Callable, Iterator, Sequence

import numpy as np

_HEADER = struct.Struct("<Q")  # payload length
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


def _message(obj) -> bytes:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(data)) + data


def _receive(stream):
    header = stream.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise EOFError("pipe closed")
    (size,) = _HEADER.unpack(header)
    data = stream.read(size)
    if len(data) < size:
        raise EOFError("pipe closed mid-message")
    return pickle.loads(data)


def _serve(inbox, outbox) -> None:
    """The worker's loop: one ``(fn, shared, items)`` job in, one
    ``(ok, results or exception)`` reply out, until the job pipe closes."""
    while True:
        try:
            fn, shared, items = _receive(inbox)
        except EOFError:
            return
        try:
            reply = _message((True, [fn(shared, item) for item in items]))
        except Exception as exc:
            try:
                reply = _message((False, exc))
            except Exception:  # an exception that pickle cannot carry
                reply = _message((False, ChildProcessError(f"{type(exc).__name__}: {exc}")))
        outbox.write(reply)
        outbox.flush()


def _worker_main(job_r: int, reply_w: int, parent_ends: tuple[int, int]) -> None:
    """Body of the forked worker; it never returns into the caller's code."""
    global _in_worker
    status = 1
    try:
        _in_worker = True  # nested split_map calls run in-process
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
        for fd in parent_ends:
            os.close(fd)
        with os.fdopen(job_r, "rb") as inbox, os.fdopen(reply_w, "wb") as outbox:
            _serve(inbox, outbox)
        status = 0
    finally:
        os._exit(status)


class _Worker:
    def __init__(self):
        job_r, job_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            _worker_main(job_r, reply_w, (job_w, reply_r))
        os.close(job_r)
        os.close(reply_w)
        self.pid, self.owner, self.busy = pid, os.getpid(), False
        self.jobs, self.replies = os.fdopen(job_w, "wb"), os.fdopen(reply_r, "rb")

    def submit(self, fn, shared, items) -> None:
        message = _message((fn, shared, items))  # a pickling error leaves the worker idle
        self.busy = True
        try:
            self.jobs.write(message)
            self.jobs.flush()
        except OSError as err:
            raise ChildProcessError(f"worker process {self.pid} is gone: {err}") from err

    def results(self) -> list:
        try:
            ok, value = _receive(self.replies)
        except (EOFError, OSError) as err:
            raise ChildProcessError(f"worker process {self.pid} exited mid-job") from err
        self.busy = False
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Close the pipes (the worker then exits), kill it if a job is
        still running, and reap it."""
        if self.owner != os.getpid() or self.jobs.closed:
            return
        for stream in (self.jobs, self.replies):
            try:
                stream.close()
            except OSError:
                pass
        if self.busy:
            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


_worker: _Worker | None = None
_in_worker = False


def shutdown() -> None:
    """Stop and reap the worker, if there is one."""
    global _worker
    if _worker is not None:
        _worker.close()
        _worker = None


atexit.register(shutdown)


def _idle_worker() -> _Worker | None:
    global _worker
    if _in_worker or usable_cpus() < 2:
        return None
    if _worker is not None and _worker.owner != os.getpid():
        _worker = None  # inherited through a fork: it belongs to the parent
    if _worker is None:
        _worker = _Worker()
    return None if _worker.busy else _worker


def split_map(fn: Callable, shared, items: Sequence) -> Iterator:
    """``fn(shared, item)`` for each item, in order; the second half of the
    items runs in the worker process while this one computes the first."""
    items = list(items)
    half = len(items) // 2
    worker = _idle_worker() if half else None
    if worker is None:
        for item in items:
            yield fn(shared, item)
        return
    try:
        worker.submit(fn, shared, items[half:])
        for item in items[:half]:
            yield fn(shared, item)
        yield from worker.results()
    finally:
        if worker.busy:  # abandoned, failed here, or lost: never reuse it
            shutdown()


pin_blas_threads()
