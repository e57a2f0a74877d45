"""Deterministic chunked parallelism.

Work is split into fixed-size chunks whose boundaries depend only on the
problem size, never on the worker count; results are merged in chunk
order.  The plan also addresses random draws: chunk c of an ensemble is
drawn from path (lane, sub, c) (``fields.sample_ensemble``, Gibbs
ensembles, the shift experiment's pairs, ``ldp_mc``), and other chunk
bodies work on their own rows only, so outputs are byte-identical for any
number of threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["chunk_ranges", "map_chunks", "default_threads"]

CHUNK = 256


def default_threads() -> int:
    """Thread count from GIBBSFLOW_THREADS, or the usable cores when unset.

    A set value must be an integer >= 1; anything else raises ValueError.
    """
    value = os.environ.get("GIBBSFLOW_THREADS", str(len(os.sched_getaffinity(0))))
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"GIBBSFLOW_THREADS must be an integer >= 1, got {value!r}")
    return count


def chunk_ranges(n: int, chunk: int = CHUNK):
    """Fixed chunk plan [(index, start, stop), ...] for n items."""
    return [
        (i, start, min(start + chunk, n))
        for i, start in enumerate(range(0, n, chunk))
    ]


def map_chunks(fn, n: int, n_threads: int | None = 1, chunk: int = CHUNK,
               workspace=None):
    """Run fn(chunk_index, start, stop) over the fixed plan on n_threads
    threads (None: ``default_threads()``); ordered results.

    With ``workspace``, a factory of arrays that the calling thread runs
    once per worker as workspace(min(n, chunk)), chunks run as
    fn(chunk_index, start, stop, ws), ws holding the first stop - start
    rows of each array of one worker's workspace, no two chunks at once
    (glibc keeps what a worker thread frees in that thread's arena)."""
    plan = chunk_ranges(n, chunk)
    n_threads = default_threads() if n_threads is None else n_threads
    workers = min(max(1, n_threads), len(plan))
    run = fn
    if workspace is not None:
        free = [workspace(min(n, chunk)) for _ in range(workers)]  # pop/append: atomic

        def run(index, start, stop):
            ws = free.pop()  # never empty: at most `workers` chunks run
            try:
                return fn(index, start, stop, tuple(w[:stop - start] for w in ws))
            finally:
                free.append(ws)

    if workers <= 1:
        return [run(*item) for item in plan]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run, *item) for item in plan]
        return [f.result() for f in futures]
