"""Row strips: the one plan that splits the rows of every strip-wise pass, and
one runner that computes independent strips on this thread and one helper.

The runner returns the strips' results in strip order whichever thread ran
them, so a caller that combines them in that order gets the same bits on any
number of CPUs. Every strip-sized array a strip writes is scratch that the
calling thread allocated, so the helper allocates none.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from typing import Callable, Sequence, TypeVar

import numpy as np

S = TypeVar("S")
B = TypeVar("B")
T = TypeVar("T")

# Elements per strip array: 32 Ki float64 values (256 KiB), so a strip's few
# temporaries stay within one core's L2 cache at any image width (8 rows at
# 1024 x 4 bands, 32 at 256 x 4).
_STRIP_ELEMENTS = 32 * 1024

# Jobs for the helper thread, which runs them in the order they were put.
_jobs: queue.SimpleQueue[Callable[[], None]] = queue.SimpleQueue()
_start_lock = threading.Lock()
_started = False
_on_helper = threading.local()


def _strip_rows(width: int, bands: int) -> int:
    """Rows of a ``width`` x ``bands`` image that fill one strip."""
    return max(1, _STRIP_ELEMENTS // (width * bands))


def _row_strips(height: int, width: int, bands: int, min_rows: int = 1) -> list[slice]:
    """Row slices of a ``height`` x ``width`` x ``bands`` image: strips of
    :func:`_strip_rows` rows, at least ``min_rows``, the last cut at ``height``."""
    step = max(_strip_rows(width, bands), min_rows)
    return [slice(r, min(r + step, height)) for r in range(0, height, step)]


def _shaped(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first values of a flat scratch ``buffer`` as a C-ordered array of
    ``shape``: one buffer serves every strip, the last one too, however many
    rows it has."""
    return buffer[: math.prod(shape)].reshape(shape)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve() -> None:
    _on_helper.active = True
    while True:
        _jobs.get()()


def _forget_helper() -> None:
    """A forked child has no helper thread, only its parent's bookkeeping."""
    global _jobs, _start_lock, _started
    _jobs, _start_lock, _started = queue.SimpleQueue(), threading.Lock(), False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _helper_ready() -> bool:
    """Start the persistent helper thread on first use. False when the
    process may run on one CPU only, or on the helper itself."""
    global _started
    if _cpus() < 2 or getattr(_on_helper, "active", False):
        return False
    with _start_lock:
        if not _started:
            threading.Thread(target=_serve, name="panfuse-strips", daemon=True).start()
            _started = True
    return True


def _map_strips(fn: Callable[[S, B], T], strips: Sequence[S], scratch: Callable[[], B]) -> list[T]:
    """``[fn(s, buffers) for s in strips]``, with the strips shared between the
    calling thread and the helper.

    ``scratch()`` makes one thread's strip buffers. It is called on the calling
    thread once for each thread that runs strips, before any strip runs, and
    each thread passes its own result to every strip it runs. So the helper
    allocates no strip-sized array, and what it frees goes back to the calling
    thread's malloc arena, where later work reuses it. Both threads take the
    next strip from one counter, so neither idles while strips remain, and
    both run under the caller's ``np.errstate``. ``fn`` must call only private
    functions, never a traced public one. One strip, or one CPU, runs inline.
    A strip's error is raised here once the helper is done, the caller's own first.
    """
    if len(strips) < 2 or not _helper_ready():
        buffers = scratch()
        return [fn(s, buffers) for s in strips]
    mine, helpers = scratch(), scratch()
    results: list = [None] * len(strips)
    lock, state = threading.Lock(), np.geterr()
    taken = 0
    outcome: queue.SimpleQueue[BaseException | None] = queue.SimpleQueue()

    def drain(buffers: B) -> None:
        nonlocal taken
        while True:
            with lock:
                i, taken = taken, taken + 1
            if i >= len(strips):
                return
            results[i] = fn(strips[i], buffers)

    def helper_job() -> None:
        try:
            with np.errstate(**state):
                drain(helpers)
        except BaseException as exc:  # raised again on the calling thread
            outcome.put(exc)
        else:
            outcome.put(None)

    _jobs.put(helper_job)
    try:
        drain(mine)
    finally:
        with lock:
            taken = len(strips)  # after a failure here, the helper starts no new strip
        failure = outcome.get()
    if failure is not None:
        raise failure
    return results
