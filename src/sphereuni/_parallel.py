"""One ordered thread map and one process-wide OpenBLAS pin.

The replication engine maps blocks of replications over threads for their
side effects.  A block whose sampler fails or whose reductions are not
finite raises, which cancels blocks not yet started.  numpy releases the
interpreter lock inside BLAS, the random generators and ufunc loops over
large arrays, so the threads overlap that native work.

While any kernel call runs, numpy's bundled OpenBLAS is pinned to one
thread.  Each of our threads issues its own small matrix products, which
OpenBLAS's own threads would only contend with (a 100x100 Gram product
can stall for milliseconds at two BLAS threads on a loaded host), and
OpenBLAS's results can change in the last bit with its thread count, so
the pin also makes the reductions independent of the host's setting.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections.abc import Callable, Iterable

from .sampling import _check_integers

__all__ = ["blas_pin", "resolve_workers", "thread_map"]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# the most threads per available CPU: each costs a stack and the engine a block buffer
_WORKERS_PER_CPU = 8


def resolve_workers(threads: int, items: int | None = None) -> int:
    """Threads that run `items` work items: `threads`, an integer (`_check_integers`),
    or the CPUs available to the process when it is 0; never more than
    _WORKERS_PER_CPU per available CPU, and never more threads than items."""
    _check_integers(threads=threads)
    if threads < 0:
        raise ValueError("threads must be >= 0")
    cpus = _available_cpus()
    workers = min(threads or cpus, _WORKERS_PER_CPU * cpus)
    return workers if items is None else max(1, min(workers, items))


def thread_map(fn: Callable[..., object], items: Iterable, workspaces: list) -> None:
    """fn(x, w) for each x in items, for their side effects.

    One thread runs per workspace, the caller's among them, and each call
    gets a workspace w that no other running call holds.  The caller makes
    the workspaces in its own thread, so their memory comes and goes with
    the caller's, not with short-lived threads' allocators.  Items start in
    order.  When a call raises, no further item starts, and once the
    running calls finish the exception of the first item in order that
    raised is re-raised: every earlier item had started, and ran to the end.
    """
    items = list(items)
    failed: dict[int, BaseException] = {}
    stop = threading.Event()
    lock = threading.Lock()
    order = iter(range(len(items)))

    def work(workspace) -> None:
        while not stop.is_set():
            with lock:
                i = next(order, None)
            if i is None:
                return
            try:
                fn(items[i], workspace)
            except BaseException as exc:  # re-raised in the calling thread below
                failed[i] = exc
                stop.set()

    helpers: list[threading.Thread] = []
    try:
        for workspace in workspaces[1:]:
            helper = threading.Thread(target=work, args=(workspace,))
            helper.start()
            helpers.append(helper)
        work(workspaces[0])
    finally:
        stop.set()  # also when a thread cannot start, or the caller is interrupted outside `fn`
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[min(failed)]


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    The library is found through numpy's core extension module, which
    links it, so nothing is looked up before the first pin.
    """
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):  # numpy 1.x, another BLAS, other symbols
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


class _BlasPin:
    """Context manager: OpenBLAS runs at one thread while any `with` block is open.

    The count is one per process, so the pin is too.  Nested and concurrent
    blocks share it; the last one to leave restores the count the first
    found, also when its block raises.  Without numpy's bundled OpenBLAS
    symbols it does nothing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def __enter__(self) -> None:
        calls = _openblas()
        if calls is None:
            return
        get, set_ = calls
        with self._lock:
            if self._depth == 0:
                self._saved = get()
                if self._saved != 1:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        calls = _openblas()
        if calls is None:
            return
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._saved != 1:
                calls[1](self._saved)


blas_pin = _BlasPin()
