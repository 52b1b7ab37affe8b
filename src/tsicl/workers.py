"""Forked workers, every process on one BLAS thread: ``fork_join`` and ``one_worker``.

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

``fork_join`` computes the first contiguous share of ``range(n)`` in the caller
and each other share in a worker of its own, and returns the results in share
order. ``one_worker`` keeps one worker for a whole block: training sends it the
second half of every batch and of the validation set. Forking once per training
step instead was slower than one process, because each fork faults the heap
back in. Arrays that ``shared_arrays`` places in shared memory before the fork
are read and written by both processes, so the parameters and a half's
gradient need no message.

For the whole call, serial or forked, OpenBLAS runs one thread, set through the
library numpy loaded (found in ``/proc/self/maps``) and restored afterwards:
threaded OpenBLAS stalls on small products, two workers with two BLAS threads
each are slower than one process, and one thread gives the same bits on any
core count and any ``OPENBLAS_NUM_THREADS``. The call runs serially when one
process is allowed, where that thread count cannot be set, and inside a worker.
"""

from __future__ import annotations

import ctypes
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


def _processes(capped: bool, most: int) -> int:
    """Processes a call may use: one per core this process may use, at most ``most``; one inside a
    worker or where the BLAS thread count could not be set (``capped`` False)."""
    return max(1, min(len(os.sched_getaffinity(0)), most)) if capped and not _in_worker else 1


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


def fork_join(task: Callable[[range], T], n: int, most: int) -> list[T]:
    """``task`` over contiguous shares of ``range(n)``, in order: one share per core this
    process may use, at most ``n`` and ``most`` shares, and one share inside a worker."""
    with one_blas_thread() as capped, ExitStack() as stack:
        count = _processes(capped, min(n, most))
        bounds = [n * k // count for k in range(count + 1)]
        shares = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        forked = [stack.enter_context(Worker(task)) for _ in shares[1:]]
        for worker, share in zip(forked, shares[1:]):
            worker.submit(share)
        return [task(shares[0]), *(worker.result() for worker in forked)]


@contextmanager
def one_worker(handler: Callable[[Any], Any]) -> Iterator[Worker | None]:
    """One BLAS thread for the block, and a ``Worker`` serving ``handler`` where ``fork_join`` would
    fork; None where it would run serially, so the caller does the worker's part itself."""
    with one_blas_thread() as capped:
        if _processes(capped, 2) < 2:
            yield None
            return
        with Worker(handler) as worker:
            yield worker


def shared_arrays(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Copies of ``arrays`` in one anonymous shared mapping: a worker forked afterwards reads and
    writes the same memory as the caller, so no message needs to carry them."""
    offsets, total = [], 0
    for a in arrays.values():
        offsets.append(total)
        total += -(-a.nbytes // 64) * 64  # each array starts a cache line
    mapping = mmap.mmap(-1, max(total, 1))  # MAP_SHARED | MAP_ANONYMOUS
    copies = {}
    for (name, a), offset in zip(arrays.items(), offsets):
        copies[name] = np.frombuffer(mapping, a.dtype, a.size, offset).reshape(a.shape)
        copies[name][...] = a
    return copies
