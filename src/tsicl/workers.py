"""Forked workers, every process on one BLAS thread: ``pool``, and ``fork_join`` on top of it.

A ``Worker`` is a forked child that answers requests one at a time: the caller
``submit``s a request and reads its answer with ``result``. Both travel pickled
through pipes and strictly alternate, so neither side blocks on a full pipe
whatever a message's size. An answer is the handler's result or the exception
it raised, which is raised again in the caller with its type and message. A
worker first asks the kernel (``PR_SET_PDEATHSIG``) to SIGKILL it if the caller
dies, so a caller killed on a timeout leaves no worker behind; it leaves by
``os._exit``, running no exit handlers and flushing no inherited buffers. The
caller kills and reaps every worker on every exit path. Workers start by
``fork``, in about a millisecond, and inherit the caller's arrays unpickled;
the caller must hold no threads of its own (OpenBLAS shuts its pool down on
fork).

``pool`` makes every worker, once for a whole block, and its ``run`` answers a
list of requests in order: the first here, the next ones in the workers, any
left over here too. ``fork_join`` is one ``run`` of one pool over the
``shares`` of ``range(n)``, the one split rule. Training keeps one pool for a
whole ``train`` call: forking once per step was slower than one process,
because each fork faults the heap back in. An array that ``shared_zeros``
makes before the fork is read and written by every process, so training's
parameters and gradients, rows of one such array, need no message.

Inside a pool every process runs OpenBLAS on one thread, set through the
library numpy loaded (found in ``/proc/self/maps``) and restored afterwards:
threaded OpenBLAS stalls on small products, two workers with two BLAS threads
each are slower than one process, and one thread gives the same bits on any
core count and any ``OPENBLAS_NUM_THREADS``. A pool forks no worker, so
``run`` answers every request here, on one core, inside a worker, and where
that thread count cannot be set.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import os
import pickle
import signal
import traceback
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from typing import Any, TypeVar

import numpy as np

T = TypeVar("T")

_PR_SET_PDEATHSIG = 1  # linux/prctl.h
_BLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads")  # numpy >= 2 wheels, others
_in_worker = False  # set only in a forked child, which never returns to its caller


def blas_threads_functions() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the loaded OpenBLAS's thread count, or None if no OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {f[5].strip() for f in (line.split(maxsplit=5) for line in fh) if len(f) == 6}
    except OSError:  # no procfs: not Linux
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)  # already loaded, so this returns its handle
        except OSError:  # e.g. a mapping whose file was replaced since
            continue
        for pattern in _BLAS_SYMBOLS:
            get, set_ = (getattr(lib, pattern.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


@contextmanager
def one_blas_thread() -> Iterator[bool]:
    """OpenBLAS on one thread inside the block and on its former count after; yields False if unset."""
    functions = blas_threads_functions()
    if functions is None:
        yield False
        return
    get, set_ = functions
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _serve(handler: Callable[[Any], Any], parent: int, requests_fd: int, answers_fd: int) -> None:
    """A worker's life: answer ``(ok, result or exception)`` to each request until the caller's end
    closes or the worker is killed; never returns."""
    global _in_worker
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        if os.getppid() != parent:  # the caller died before prctl took effect
            os._exit(1)
        _in_worker = True
        with os.fdopen(requests_fd, "rb") as requests:
            while True:
                try:
                    request = pickle.load(requests)
                except EOFError:
                    break
                try:
                    answer = pickle.dumps((True, handler(request)))
                except BaseException as exc:
                    if hasattr(exc, "add_note"):  # Python >= 3.11
                        exc.add_note(f"in worker {os.getpid()}:\n{traceback.format_exc()}")
                    try:
                        answer = pickle.dumps((False, exc))
                    except Exception:  # an exception that does not pickle still reaches the caller
                        answer = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
                _write_all(answers_fd, answer)
    finally:
        os._exit(0)


class Worker:
    """A forked child answering ``handler(request)``: each ``submit`` is answered by the next ``result``."""

    def __init__(self, handler: Callable[[Any], Any]):
        requests_r, self._requests = os.pipe()
        answers_r, answers_w = os.pipe()
        parent = os.getpid()
        try:
            self.pid: int | None = os.fork()
        except OSError:
            for fd in (requests_r, self._requests, answers_r, answers_w):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(self._requests)
            os.close(answers_r)
            _serve(handler, parent, requests_r, answers_w)
        os.close(requests_r)
        os.close(answers_w)
        self._answers = os.fdopen(answers_r, "rb")

    def submit(self, request: Any) -> None:
        try:
            _write_all(self._requests, pickle.dumps(request))
        except BrokenPipeError:
            raise self._died() from None

    def result(self) -> Any:
        """The answer to the last request; raises the exception the handler raised."""
        try:
            ok, value = pickle.load(self._answers)
        except (EOFError, pickle.UnpicklingError):  # no answer, or a cut-off one
            raise self._died() from None
        if not ok:
            raise value
        return value

    def _died(self) -> RuntimeError:
        pid, self.pid = self.pid, None
        _, status = os.waitpid(pid, 0)
        return RuntimeError(f"worker {pid} died without a result: wait status {status}")

    def close(self) -> None:
        """Kill and reap the worker, which holds nothing the caller needs."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self._requests >= 0:
            os.close(self._requests)
            self._requests = -1
        self._answers.close()

    def __enter__(self) -> Worker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def shares(n: int, count: int) -> list[range]:
    """``range(n)`` in ``count`` contiguous shares, in order, whose lengths differ by at most 1, longest first."""
    q, r = divmod(n, count)
    bounds = [k * q + min(k, r) for k in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


@contextmanager
def pool(handler: Callable[[Any], T], most: int) -> Iterator[tuple[Callable[[list], list[T]], int]]:
    """``(run, count)``: one BLAS thread in the block, and ``count - 1`` ``Worker``s serving ``handler``,
    where ``count`` is the cores this process may use, at most ``most``, or 1 where it runs serially.

    ``run(requests)`` hands ``requests[1:]`` to the free workers and answers ``requests[0]``, then any
    request left without a worker, here; it returns the answers in request order.
    """
    with one_blas_thread() as capped, ExitStack() as stack:
        count = max(1, min(len(os.sched_getaffinity(0)), most)) if capped and not _in_worker else 1
        forked = [stack.enter_context(Worker(handler)) for _ in range(count - 1)]

        def run(requests: list) -> list[T]:
            busy = forked[: len(requests) - 1]
            for worker, request in zip(busy, requests[1:]):
                worker.submit(request)
            first, rest = handler(requests[0]), [handler(r) for r in requests[1 + len(busy) :]]
            return [first, *(worker.result() for worker in busy), *rest]

        yield run, count


def fork_join(task: Callable[[range], T], n: int, most: int) -> list[T]:
    """``task`` over the ``shares`` of ``range(n)``, in order: one share per process of a ``pool`` of
    at most ``n`` and ``most``."""
    with pool(task, min(n, most)) as (run, count):
        return run(shares(n, count))


def shared_zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping: a worker forked afterwards reads and writes
    the same memory as the caller, so no message needs to carry it."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    return np.ndarray(shape, dtype, buffer=mmap.mmap(-1, max(size, 1)))  # MAP_SHARED | MAP_ANONYMOUS: zeroed
