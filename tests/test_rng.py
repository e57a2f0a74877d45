"""Tests for the counter-based random streams."""

import numpy as np
import pytest

from gibbsflow.rng import RandomSeed, generator, sample_paths


def _draws(rng):
    """Draws that leave the Philox buffer part used and a uint32 pending."""
    return (rng.random(3), rng.integers(0, 7, size=3, dtype=np.uint32),
            rng.standard_normal(5))


class TestSamplePaths:
    def test_repointed_after_partial_draws(self):
        # Each path's draws end with 2 of the 4 buffered Philox words unread
        # and a 32-bit half-word pending; the next path must see neither.
        seed = RandomSeed(5, 1)
        for i, rng in enumerate(sample_paths(seed, 3, 4)):
            fresh = generator(seed, lane=3, sample=i)
            for got, want in zip(_draws(rng), _draws(fresh)):
                assert np.array_equal(got, want)

    def test_count_and_empty(self):
        assert len(list(sample_paths(RandomSeed(0), 1, 5))) == 5
        assert list(sample_paths(RandomSeed(0), 1, 0)) == []

    def test_negative_lane_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            next(sample_paths(RandomSeed(0), -1, 2))
