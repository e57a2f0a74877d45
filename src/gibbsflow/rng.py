"""Counter-based random streams for reproducible parallel sampling.

A stream is keyed by (base_seed, stream_index); within a stream, draws
are addressed by a (lane, sub, sample) path placed in the high words of
the Philox counter.  Each path owns 2^64 counter values, so distinct
paths never overlap and results are independent of thread count, chunk
order, or how many draws other paths consume.

Experiments use fixed lane assignments (ensemble A vs B, resampling,
annealing chains), sub for a component within a lane, and sample for the
index of a chunk in the fixed ``parallel.chunk_ranges`` plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401 -- loaded with the module, not on first draw

__all__ = ["RandomSeed", "generator"]


@dataclass(frozen=True)
class RandomSeed:
    """Identifies one reproducible stream: (base_seed, stream_index)."""

    base_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("base_seed", "stream_index"):
            if not 0 <= getattr(self, name) < 2 ** 64:
                raise ValueError(f"{name} must be >= 0 and < 2**64, got {getattr(self, name)}")

    def bumped(self, offset: int) -> "RandomSeed":
        """Stream offset by ``offset``; used for repetition loops."""
        return RandomSeed(self.base_seed, self.stream_index + offset)


def generator(
    seed: RandomSeed, lane: int = 0, sub: int = 0, sample: int = 0
) -> np.random.Generator:
    """Fresh Generator at path (lane, sub, sample) of the stream.

    Identical arguments always reproduce the same draws bit for bit.
    """
    if min(lane, sub, sample) < 0:
        raise ValueError("path components must be >= 0")
    key = np.array([seed.base_seed, seed.stream_index], dtype=np.uint64)
    counter = np.array(
        [0, sample % 2 ** 64, sub % 2 ** 64, lane % 2 ** 64], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key, counter=counter))
