"""Chunked driver-side work on a thread pool, one thread per CPU.

UniNet runs its set-up on every thread of the machine (paper §IV-A).
Two set-up jobs here do the same: the alias-table build
(:func:`repro.samplers.alias.build_tables`) and the M-H ``LAST_x``
initialization (:meth:`repro.core.mh_sampler.MHSampler.prepare`). Each
cuts its work into chunks of ``range(total)`` and hands them to
:func:`run_chunks`. numpy releases the GIL inside each chunk's array
work. A chunk's result depends only on its bounds, and the bounds of
the M-H chunks do not depend on the thread count, so both results are
bit-identical for any thread count and schedule.
"""
from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

#: Entries (walker, candidate edge) whose dynamic weights the chunks in
#: flight evaluate at once, summed over all threads: each kind of
#: walker, candidate and weight temporary stays within 2 MB in total,
#: whatever the thread count.
MAX_IN_FLIGHT = 1 << 18


def cpu_count() -> int:
    """CPUs this process may run on: the pool's largest thread count."""
    return len(os.sched_getaffinity(0))


def run_chunks(
    fill: Callable[[int, int], None],
    total: int,
    chunk: int,
    entries_per_item: int = 1,
    name: str = "chunks",
) -> None:
    """Call ``fill(a, b)`` once for every chunk ``a..b-1`` of ``chunk``
    items (the last one may be shorter) of ``range(total)``.

    The pool has one thread per CPU, but never so many that the chunks
    in flight hold more than ``MAX_IN_FLIGHT`` entries when each item
    costs ``entries_per_item``; it has at least one. Chunks must write
    disjoint outputs. Lazy caches of the graph or model (``CSRGraph.edge_type``,
    ``Edge2Vec.M``, ...) first needed here may be filled by several
    threads at once; each computes the same value from immutable
    inputs, so any one may win. The first exception of a chunk
    propagates, and the chunks not yet started are cancelled. Before
    returning, the freed heap pages of the pool's threads go back to
    the operating system (:func:`release_freed_memory`).
    """
    per_chunk = max(1, chunk * entries_per_item)
    threads = max(1, min(cpu_count(), MAX_IN_FLIGHT // per_chunk))
    try:
        with ThreadPoolExecutor(threads, thread_name_prefix=name) as pool:
            # Reading every result re-raises a chunk's exception.
            for _ in pool.map(
                lambda a: fill(a, min(a + chunk, total)), range(0, total, chunk)
            ):
                pass
    finally:
        release_freed_memory()


def release_freed_memory() -> None:
    """Give freed heap pages back to the operating system.

    glibc keeps a heap arena per thread and holds on to the pages the
    arena's freed arrays used, so a pool's temporaries would stay in
    the resident set after the pool is gone. ``malloc_trim(0)`` returns
    them. A no-op where the C library has no ``malloc_trim``.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@functools.cache
def _malloc_trim():
    libc = ctypes.CDLL(None)
    trim = getattr(libc, "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
    return trim
