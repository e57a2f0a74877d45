"""Tests for the statistical machinery."""

import numpy as np
import pytest

from gibbsflow.rng import RandomSeed, generator
from gibbsflow.stats import ks_two_sample, weighted_ks_bootstrap, wilson_interval


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
            assert stat == pytest.approx(ks_two_sample(xa, xb)[0], abs=1e-12)

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
                                    np.random.default_rng(6), reps=reps,
                                    batch=250)
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
