"""Tests for the statistical machinery."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from gibbsflow.rng import RandomSeed, generator
from gibbsflow.stats import (
    ks_exact_tails,
    ks_two_sample,
    weighted_ks_bootstrap,
    wilson_interval,
)
from helpers import sequential_weighted_ks_bootstrap


class TestKsExactTail:
    @pytest.mark.parametrize("m", [10, 50, 300])
    def test_matches_scipy_exact(self, m):
        # y = x shifted by j + 1/2 ranks puts the distance at D = (j+1)/m,
        # one sample pair for each lattice value.  Cases where scipy's exact
        # routine gives up (it warns and falls back to asymp) are skipped.
        x = np.arange(m, dtype=np.float64)
        compared = 0
        for j in range(m):
            with warnings.catch_warnings(record=True) as fallback:
                warnings.simplefilter("always")
                res = sps.ks_2samp(x, x + j + 0.5, method="exact")
            h = round(res.statistic * m)
            assert h == j + 1
            if fallback:
                continue
            assert ks_exact_tails([h], m)[0] == pytest.approx(res.pvalue, rel=1e-12,
                                                              abs=1e-15)
            compared += 1
        assert compared >= m - 2

    def test_lattice_ends(self):
        assert ks_exact_tails([0, 1, 8], 7) == [1.0, 1.0, 0.0]

    @pytest.mark.parametrize("m", [7, 300, 2000])
    def test_one_pass_equals_per_term_sum(self, m):
        # The reflection sum with each C(2m, m - k h) from math.comb, one
        # tail at a time: the batched recurrence must give the same floats.
        def per_term(h):
            if h <= 0:
                return 1.0
            num = sum((-1) ** (k - 1) * math.comb(2 * m, m - k * h)
                      for k in range(1, m // h + 1))
            return 2 * num / math.comb(2 * m, m)

        hs = list(range(-1, m + 3))
        assert ks_exact_tails(hs, m) == [per_term(h) for h in hs]

    @pytest.mark.parametrize("m", [0, -4])
    def test_needs_one_sample(self, m):
        with pytest.raises(ValueError, match="m must be >= 1"):
            ks_exact_tails([1], m)

    def test_repeated_and_unordered_h(self):
        p5, p2 = ks_exact_tails([5], 30) + ks_exact_tails([2], 30)
        assert ks_exact_tails([5, 2, 5, 0], 30) == [p5, p2, p5, 1.0]


class TestWilsonInterval:
    @pytest.mark.parametrize("n", [0, -3])
    def test_needs_trials(self, n):
        with pytest.raises(ValueError, match="n must be > 0"):
            wilson_interval(0, n)


class TestKsTwoSample:
    def test_matches_scipy_statistic_and_exact_tail(self):
        rng = np.random.default_rng(11)
        xs_a = rng.normal(size=(5, 120))
        xs_b = rng.normal(size=(5, 120)) + np.linspace(0.0, 0.6, 5)[:, None]
        res = ks_two_sample(xs_a, xs_b)
        assert len(res) == 5
        for (stat, p), xa, xb in zip(res, xs_a, xs_b):
            h = round(stat * 120)
            assert stat == h / 120
            assert stat == pytest.approx(sps.ks_2samp(xa, xb).statistic, abs=1e-12)
            assert p == ks_exact_tails([h], 120)[0]

    def test_ties_follow_the_ecdfs(self):
        # Integer data: ties within and across the samples.
        rng = np.random.default_rng(12)
        xs_a = rng.integers(0, 6, size=(3, 40)).astype(float)
        xs_b = rng.integers(1, 7, size=(3, 40)).astype(float)
        for (stat, _), xa, xb in zip(ks_two_sample(xs_a, xs_b), xs_a, xs_b):
            assert stat == pytest.approx(sps.ks_2samp(xa, xb).statistic, abs=1e-12)

    @pytest.mark.parametrize("shape_b", [(2, 9), (3, 10), (10,)])
    def test_unequal_shapes_raise(self, shape_b):
        with pytest.raises(ValueError, match="equal size"):
            ks_two_sample(np.zeros((2, 10)), np.zeros(shape_b))


def _panel(seed, n_obs=4, na=90, nb=70):
    rng = np.random.default_rng(seed)
    xs_a = rng.normal(size=(n_obs, na))
    xs_b = rng.normal(size=(n_obs, nb)) + 0.1
    return xs_a, rng.exponential(size=na), xs_b, rng.exponential(size=nb)


class TestWeightedKsBootstrap:
    def test_equal_weights_match_unweighted_ks(self):
        xs_a, _, xs_b, _ = _panel(1)
        na, nb = xs_a.shape[1], xs_b.shape[1]
        res = weighted_ks_bootstrap(xs_a, np.ones(na), xs_b, np.ones(nb),
                                    np.random.default_rng(2), reps=50)
        assert len(res) == xs_a.shape[0]
        for (stat, _), xa, xb in zip(res, xs_a, xs_b):
            assert stat == pytest.approx(sps.ks_2samp(xa, xb).statistic, abs=1e-12)

    def test_panel_row_equals_single_observable_call(self):
        # Every observable sees the same resamples: a panel row is the
        # one-observable call on the same random path.
        xs_a, wa, xs_b, wb = _panel(3)
        seed = RandomSeed(5)
        panel = weighted_ks_bootstrap(xs_a, wa, xs_b, wb,
                                      generator(seed, lane=2), reps=300)
        for k in range(xs_a.shape[0]):
            single = weighted_ks_bootstrap(xs_a[k:k + 1], wa, xs_b[k:k + 1], wb,
                                           generator(seed, lane=2), reps=300)
            assert single == [panel[k]]

    def test_p_values_on_grid_with_partial_batch(self):
        xs_a, wa, xs_b, wb = _panel(4)
        reps = 333
        res = weighted_ks_bootstrap(xs_a, wa, xs_b, wb,
                                    np.random.default_rng(6), reps=reps)
        for _, p in res:
            j = p * (reps + 1) - 1
            assert j == pytest.approx(round(j), abs=1e-9)
            assert 0 <= round(j) <= reps

    @pytest.mark.parametrize("case", ["observables", "weights_a", "weights_b"])
    def test_shape_mismatch_raises(self, case):
        xs_a, wa, xs_b, wb = _panel(7)
        if case == "observables":
            xs_b = xs_b[:-1]
        elif case == "weights_a":
            wa = wa[:-1]
        else:
            wb = np.append(wb, 1.0)
        with pytest.raises(ValueError):
            weighted_ks_bootstrap(xs_a, wa, xs_b, wb, np.random.default_rng(8),
                                  reps=10)

    def test_working_set_bounded_and_values_pinned(self):
        # The wick-nls-gibbs panel's size: 29 observables, 512 members per
        # ensemble, 2000 reps.  The traced peak must stay below three
        # 250 x 1024 float buffers (5.9 MiB).  The sha256 of the (statistic,
        # p) pairs was taken before the replicates moved into bound buffers.
        rng = np.random.default_rng(29)
        xs_a, xs_b = rng.normal(size=(2, 29, 512))
        xs_b += 0.05
        wa, wb = rng.exponential(size=(2, 512))
        tracemalloc.start()
        try:
            res = weighted_ks_bootstrap(xs_a, wa, xs_b, wb,
                                        np.random.default_rng(30), reps=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 250 * 1024 * 8, peak
        assert hashlib.sha256(np.array(res).tobytes()).hexdigest() == (
            "1ea8926cccb254cdb0d9c619115108451954b753461df978ffc451cb47676800")

    # (observables, na, nb, reps, data): pooled sizes off the scan's 16-member
    # runs, reps that leave partial batches and blocks, ties and weights
    # with a heavy tail.
    @pytest.mark.parametrize("n_obs, na, nb, reps, data", [
        (3, 37, 64, 251, "normal"),
        (2, 1, 2, 49, "normal"),
        (4, 90, 70, 1, "normal"),
        (4, 90, 70, 333, "normal"),
        (1, 300, 212, 300, "normal"),
        (3, 40, 40, 251, "ties"),
        (3, 40, 40, 251, "ties_equal_weights"),
        (3, 128, 96, 49, "heavy_tail"),
    ])
    def test_equals_sequential_oracle(self, n_obs, na, nb, reps, data):
        rng = np.random.default_rng(na * nb + reps)
        xs_a, xs_b = rng.normal(size=(n_obs, na)), rng.normal(size=(n_obs, nb)) + 0.1
        wa, wb = rng.exponential(size=na), rng.exponential(size=nb)
        if data.startswith("ties"):
            xs_a, xs_b = np.round(2.0 * xs_a), np.round(2.0 * xs_b)
        if data == "ties_equal_weights":
            wa, wb = np.ones(na), np.ones(nb)
        if data == "heavy_tail":
            wa, wb = rng.pareto(0.7, size=na), rng.pareto(0.7, size=nb)
        got = weighted_ks_bootstrap(xs_a, wa, xs_b, wb, np.random.default_rng(31), reps)
        want = sequential_weighted_ks_bootstrap(xs_a, wa, xs_b, wb,
                                                np.random.default_rng(31), reps)
        assert got == want

    def test_null_calibrated_when_weights_track_the_observable(self):
        # Both ensembles are importance samples of the same tilted target:
        # x ~ N(0, 1) with weight exp(0.7 x).  Weights correlate with x,
        # the case where resampling to unweighted ensembles over-rejects.
        n, reps, repetitions = 100, 200, 200
        hits = 0
        for r in range(repetitions):
            rng = generator(RandomSeed(2026, r), lane=0)
            xa, xb = rng.normal(size=(1, n)), rng.normal(size=(1, n))
            ((_, p),) = weighted_ks_bootstrap(
                xa, np.exp(0.7 * xa[0]), xb, np.exp(0.7 * xb[0]),
                generator(RandomSeed(2026, r), lane=1), reps=reps)
            hits += p <= 0.05
        lo, hi = wilson_interval(hits, repetitions, z=2.5758293035489004)
        assert lo <= 0.05 <= hi, (hits, lo, hi)
