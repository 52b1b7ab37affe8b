"""Fork-join over contiguous shares of ``range(n)``, every process on one BLAS thread.

The caller computes the first share and a forked child each other share. A
child sends its result, or the exception it raised, pickled through a pipe and
leaves by ``os._exit``, running no exit handlers and flushing no inherited
buffers. Results come back in share order; a child's exception is raised again
in the caller with its type and message. Every child is reaped before
``fork_join`` returns or raises, and asks the kernel (``PR_SET_PDEATHSIG``) to
SIGKILL it if the caller dies first, so a caller killed on a timeout leaves no
worker behind. Children start by ``fork``, in about a millisecond, and inherit
the caller's arrays unpickled; the caller must hold no threads of its own
(OpenBLAS shuts its pool down on fork).

For the whole call, serial or forked, OpenBLAS runs one thread, set through the
library numpy loaded (found in ``/proc/self/maps``) and restored afterwards:
threaded OpenBLAS stalls on small products, two workers with two BLAS threads
each are slower than one process, and one thread gives the same bits on any
core count. The call runs serially when one worker is allowed, where that
thread count cannot be set, and inside a worker.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import traceback
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import TypeVar

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


def _child(task: Callable[[range], T], share: range, parent: int, write_fd: int) -> None:
    """Compute one share and send ``(ok, result or exception)``; never returns."""
    global _in_worker
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        if os.getppid() != parent:  # the caller died before prctl took effect
            os._exit(1)
        _in_worker = True
        try:
            payload = pickle.dumps((True, task(share)))
        except BaseException as exc:
            if hasattr(exc, "add_note"):  # Python >= 3.11
                exc.add_note(f"in the worker for items {share.start}..{share.stop - 1}:\n{traceback.format_exc()}")
            try:
                payload = pickle.dumps((False, exc))
            except Exception:  # an exception that does not pickle still reaches the caller
                payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


def fork_join(task: Callable[[range], T], n: int, most: int) -> list[T]:
    """``task`` over contiguous shares of ``range(n)``, in order: one share per core this
    process may use, at most ``n`` and ``most`` shares, and one share inside a worker."""
    with one_blas_thread() as capped:
        workers = max(1, min(len(os.sched_getaffinity(0)), n, most)) if capped and not _in_worker else 1
        bounds = [n * k // workers for k in range(workers + 1)]
        shares = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        parent, children = os.getpid(), {}  # children: pid -> read end of its pipe
        try:
            for share in shares[1:]:
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    os.close(read_fd)
                    _child(task, share, parent, write_fd)
                os.close(write_fd)
                children[pid] = os.fdopen(read_fd, "rb")
            results = [task(shares[0])]
            for pid, pipe in list(children.items()):
                with pipe:
                    data = pipe.read()
                _, status = os.waitpid(pid, 0)
                del children[pid]
                if not data:
                    raise RuntimeError(f"worker {pid} died without a result: wait status {status}")
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                results.append(value)
            return results
        finally:
            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
