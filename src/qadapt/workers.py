"""BLAS pinned to one thread, and one worker process for the program's life.

When the package loads, ``pin_blas_threads`` sets the OpenBLAS that numpy
bundles to one thread and ``BLAS_PINNED`` keeps whether it found one. A
second BLAS thread rounds some products differently, so artifacts would
depend on ``OPENBLAS_NUM_THREADS``, and it would compete with the worker
for the second core.

One worker process puts work on the second core. The first ``session``
that can use it (``can_fork``) forks it, and it then answers every session
until the program exits or ``stop`` is called, so that no session pays for
a fork, nor either process for the copy-on-write faults that follow one.
``session(start, *args)`` gives a ``Partner`` that answers each request
with ``serve = start(*args)``, built once, in the worker, over two pipes of
framed pickles. What reaches the worker travels as data: ``start`` and
every function among the arguments must be module-level, since functions
are pickled by reference (``TypeError`` otherwise, whatever the CPU
count), and the worker builds what it needs from what it is sent, never
from what it inherited at the fork. An argument made by ``shared_zeros``
is mapped, not copied: its memfd descriptor goes to the worker over a UNIX
socket, and both processes read and write the same memory. An exception
raised in ``serve`` is raised again here with its type; the session still
answers. The worker's malloc keeps the memory it frees
(``_keep_freed_memory``), so that the arrays of one chunk or half-step
reuse those of the last instead of being mapped and faulted in afresh.

``training.train`` holds one session per call. A step's second half takes
two requests: ``("step", ...)``, answered with what the first half needs,
and ``("finish", ...)``, which runs its backward pass. Between steps,
``("score", ...)`` gets the records of a dev evaluation's second half.

``split_map(fn, items, *args)`` yields ``fn(*args, item)`` for every item,
in order, as a session of one request: of 2h or 2h + 1 items, the worker
computes items h to 2h - 1 while this process computes the first h, and
answers with their results. An odd last item runs here once the worker has
answered, so that it may use the worker itself.

The worker holds one session at a time. A session opened while the worker
is busy, inside the worker, with one usable CPU, with unpinned BLAS (two
processes would oversubscribe the cores), without ``os.memfd_create`` (not
Linux), or when ``os.fork`` fails, answers its requests in-process
(``Partner``), in the same order of computation, so that results never
depend on where they ran.

A session that finds the worker gone when it opens (killed while idle)
reaps it and runs in-process, since nothing was sent yet. A session that
ends owing an answer (its block failed or was abandoned), or that loses
the worker during a request (``ChildProcessError``), SIGKILLs and reaps
it. Either way the next session forks another. The worker exits at EOF of
its request pipe, which ``stop`` closes, as an ``atexit`` hook does; if
this process dies, the kernel closes the pipe and, on Linux, SIGKILLs the
worker.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import ctypes
import glob
import mmap
import os
import pickle
import signal
import socket
import weakref
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T

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


_worker: _Worker | None = None  # forked by the first session that can use it
_in_worker = False  # set in the worker, whose sessions run in-process


def can_fork() -> bool:
    """Whether a session opened now would run in the worker: a core of its
    own, the same arithmetic, and no other session holding it."""
    return (BLAS_PINNED and not _in_worker and usable_cpus() >= 2
            and hasattr(os, "memfd_create") and (_worker is None or not _worker.busy))


class _Mapping(mmap.mmap):
    """A shared mapping of a memfd, which keeps the descriptor (``fd``) to
    send to the worker and closes it when collected."""


def _mapped(fd: int, shape) -> np.ndarray:
    mapping = _Mapping(fd, 8 * max(int(np.prod(shape)), 1))
    mapping.fd = fd
    weakref.finalize(mapping, os.close, fd)
    return np.ndarray(shape, np.float64, buffer=mapping)


def shared_zeros(shape: int | tuple[int, ...]) -> np.ndarray:
    """A float64 array of zeros in a memfd mapping. Passed whole to a
    ``session``, it is mapped in the worker, not copied, so that each
    process sees the other's writes. Without ``os.memfd_create`` no session
    uses the worker, and the zeros are a plain array."""
    if not hasattr(os, "memfd_create"):
        return np.zeros(shape)
    fd = os.memfd_create("qadapt-shared")
    os.ftruncate(fd, 8 * max(int(np.prod(shape)), 1))
    return _mapped(fd, shape)


def _is_shared(value) -> bool:
    return isinstance(value, np.ndarray) and isinstance(value.base, _Mapping)


def _by_reference(values) -> None:
    """Raise ``TypeError`` for a function among ``values`` that the worker
    could not look up by its module and name, such as a lambda."""
    for value in values:
        if callable(value):
            try:
                pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            except (pickle.PicklingError, AttributeError) as err:
                name = getattr(value, "__qualname__", repr(value))
                raise TypeError(f"{name} is not a module-level function, so it cannot be "
                                "sent to the worker") from err


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
    """The calling side of a ``session``: every request ``send`` passes is
    answered by one ``recv``, in order, with ``serve(request)``, where
    ``serve = start(*args)`` is built at the first request, once for the
    session. An exception raised in ``serve`` is raised by ``recv``, and the
    session answers the next request.

    This one runs ``serve`` in-process when its answer is asked for, so the
    work of both sides runs in the order the caller interleaves ``send``,
    its own work and ``recv``. The worker answers with one too."""

    def __init__(self, start: Callable[..., Callable], *args):
        self._start, self._args = start, args
        self._serve: Callable | None = None
        self._unanswered: collections.deque = collections.deque()

    def send(self, request) -> None:
        self._unanswered.append(request)

    def recv(self):
        request = self._unanswered.popleft()
        if self._serve is None:
            self._serve = self._start(*self._args)
        return self._serve(request)


class _Worker(Partner):
    """The worker's pid, pipes of requests and replies, and socket for memfd
    descriptors, here: the ``Partner`` of the session that holds it."""

    def __init__(self, pid: int, requests, replies, descriptors: socket.socket):
        self.pid, self.requests, self.replies = pid, requests, replies
        self.descriptors = descriptors
        self.busy = False  # a session holds it
        self.ended = False

    def write(self, message, fds: Sequence[int] = ()) -> None:
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)  # nothing is sent if this fails
        try:
            if self.ended:
                raise BrokenPipeError
            self.requests.write(data)
            self.requests.flush()
            if fds:
                socket.send_fds(self.descriptors, [b"\0"], list(fds))
        except OSError:  # EPIPE, ECONNRESET: it has exited
            raise ChildProcessError(f"worker process {self.pid} has exited") from None

    def send(self, request) -> None:
        self.write(("send", request))
        self.owed += 1

    def recv(self):
        try:
            if self.ended:
                raise EOFError
            ok, value = pickle.load(self.replies)
        except (EOFError, pickle.UnpicklingError):  # gone before or while replying
            raise ChildProcessError(f"worker process {self.pid} exited without replying") from None
        self.owed -= 1
        if not ok:
            raise value
        return value

    def open(self, start: Callable, args: tuple) -> None:
        """Start a session: shared arrays among ``args`` go as descriptors."""
        shared = [at for at, arg in enumerate(args) if _is_shared(arg)]
        sent = tuple(None if at in shared else arg for at, arg in enumerate(args))
        self.write(("open", start, sent, [(at, args[at].shape) for at in shared]),
                   fds=[args[at].base.fd for at in shared])
        self.owed = 0  # requests of this session sent and not yet answered

    def close_files(self) -> None:
        self.ended = True
        for f in (self.requests, self.replies, self.descriptors):
            with contextlib.suppress(OSError):  # bytes left unflushed for a worker gone
                f.close()

    def end(self, kill: bool) -> None:
        """Close the pipes, so that an idle worker exits, and reap it;
        SIGKILLed first if ``kill``."""
        if self.ended:
            return
        # ProcessLookupError, ChildProcessError: other code reaped it after it died
        with contextlib.suppress(ProcessLookupError):
            if kill:
                os.kill(self.pid, signal.SIGKILL)
        self.close_files()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)


def _serve_sessions(requests, replies, descriptors: socket.socket) -> None:
    """The worker's loop: one session at a time, each request answered in
    order by an in-process ``Partner``, until EOF of ``requests``."""
    answering = None
    while True:
        try:
            kind, *body = pickle.load(requests)
        except EOFError:
            return
        if kind == "open":
            start, args, shared = body
            args = list(args)
            if shared:
                _, fds, _, _ = socket.recv_fds(descriptors, 1, len(shared))
                for (at, shape), fd in zip(shared, fds):
                    args[at] = _mapped(fd, shape)
            answering = Partner(start, *args)
        elif kind == "close":
            answering = None
        else:
            T._grad_enabled = True  # whatever the mode it was forked in
            answering.send(body[0])
            replies.write(_reply(answering.recv))
            replies.flush()


def _keep_freed_memory() -> None:
    """Have glibc's malloc in the worker keep the memory it frees: arrays
    under 32 MB come from the heap, and up to 64 MB free at its top is kept,
    the largest thresholds glibc's dynamic ones reach on 64-bit. With the
    defaults, which the calling process has raised by freeing large blocks,
    the worker mapped every array over 128 KB afresh and gave the heap back
    after each chunk: 15-27k minor faults for the 11 chunks of a roundtrip
    filter's second half, which the calling process waited 35-135 ms for."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _exit_with(parent: int) -> None:
    """Have the kernel SIGKILL this process when ``parent`` dies, even in
    the middle of a request (Linux's PR_SET_PDEATHSIG)."""
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)
    if os.getppid() != parent:  # it died before the request was made
        os._exit(0)


def _fork() -> _Worker | None:
    """The worker, forked now; None when no process is to be had."""
    global _in_worker
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    here, there = socket.socketpair()
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:  # EAGAIN, ENOMEM: the sessions run here
        for fd in (request_r, request_w, reply_r, reply_w):
            os.close(fd)
        here.close()
        there.close()
        return None
    if pid == 0:
        _in_worker = True
        status = 1
        try:
            _exit_with(parent)
            _keep_freed_memory()
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles Ctrl-C
            os.close(request_w)
            os.close(reply_r)
            here.close()
            with os.fdopen(request_r, "rb") as requests, os.fdopen(reply_w, "wb") as replies, there:
                _serve_sessions(requests, replies, there)
            status = 0
        finally:
            os._exit(status)
    os.close(request_r)
    os.close(reply_w)
    there.close()
    return _Worker(pid, os.fdopen(request_w, "wb"), os.fdopen(reply_r, "rb"), here)


def _retire(worker: _Worker) -> None:
    """SIGKILL and reap a worker that owes an answer or is gone."""
    global _worker
    if _worker is worker:
        _worker = None
    worker.end(kill=True)


@contextmanager
def session(start: Callable[..., Callable], *args) -> Iterator[Partner]:
    """A ``Partner`` for the block, whose requests are answered by
    ``serve = start(*args)``, built once where they run: the worker when it
    can be used (``can_fork``), which is forked if none runs yet, and
    in-process otherwise or when the fork fails. ``start`` and any function
    among ``args`` must be module-level."""
    global _worker
    _by_reference((start, *args))
    if can_fork() and _worker is None:
        _worker = _fork()
    worker = _worker if can_fork() else None
    if worker is not None:
        try:
            worker.open(start, args)
        except ChildProcessError:  # it died idle; nothing was sent, so the session runs here
            _retire(worker)
            worker = None
    if worker is None:
        yield Partner(start, *args)
        return
    worker.busy = True
    try:
        yield worker
    finally:
        worker.busy = False
        try:
            if worker.owed:  # it may still be computing the answer: never wait for it
                raise ChildProcessError
            worker.write(("close",))
        except ChildProcessError:
            _retire(worker)


def split_map(fn: Callable, items: Sequence, *args) -> Iterator:
    """``fn(*args, item)`` for each item, in order: one ``session``, whose
    one request is answered with the results of ``items[half:2 * half]``,
    computed while this process computes the first half; an odd last item
    runs here once the worker has answered. ``fn`` and any function among
    ``args`` must be module-level."""
    items = list(items)
    half = len(items) // 2
    if not half:
        _by_reference((fn, *args))  # as a session would
    else:
        with session(_map_list, fn, *args) as other:
            other.send(items[half:2 * half])
            for item in items[:half]:
                yield fn(*args, item)
            rest = other.recv()
        yield from rest
    for item in items[2 * half:]:
        yield fn(*args, item)


def _map_list(fn: Callable, *fixed) -> Callable[[list], list]:
    """``split_map``'s serve: its one request, a list of items, is answered
    with ``fn(*fixed, item)`` of each."""
    def serve(items):
        return [fn(*fixed, item) for item in items]
    return serve


def stop() -> None:
    """End the worker, if this process has one: close its request pipe, so
    that it exits, and reap it, SIGKILLed first if a session holds it. The
    next session forks another. Runs at exit."""
    global _worker
    worker, _worker = _worker, None
    if worker is not None:
        worker.end(kill=worker.busy)


def _forget_worker() -> None:
    """In a child that other code forks, the worker is the parent's: close
    this copy of its pipes, so that the child neither talks to it nor keeps
    it from its EOF."""
    global _worker
    if _worker is not None:
        _worker.close_files()
        _worker = None


atexit.register(stop)
os.register_at_fork(after_in_child=_forget_worker)

BLAS_PINNED = pin_blas_threads()
