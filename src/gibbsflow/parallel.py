"""Deterministic chunked parallelism.

Work is split into fixed-size chunks whose boundaries depend only on the
problem size, never on the worker count; results are merged in chunk
order.  Chunk bodies draw from chunk-indexed random paths or work on
their own rows only, so outputs are byte-identical for any number of
threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["chunk_ranges", "map_chunks", "default_threads"]

CHUNK = 256


def default_threads() -> int:
    """Thread count from GIBBSFLOW_THREADS (1 when unset).

    A set value must be an integer >= 1; anything else raises ValueError.
    """
    value = os.environ.get("GIBBSFLOW_THREADS", "1")
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


def map_chunks(fn, n: int, n_threads: int = 1, chunk: int = CHUNK):
    """Run fn(chunk_index, start, stop) over the fixed plan; ordered results."""
    plan = chunk_ranges(n, chunk)
    if n_threads <= 1 or len(plan) <= 1:
        return [fn(*item) for item in plan]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        futures = [pool.submit(fn, *item) for item in plan]
        return [f.result() for f in futures]
