"""Tests for the random-field samplers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gibbsflow.fields import (
    GaussianFieldSpec,
    GrowthReport,
    expected_sobolev_sq,
    mode_std,
    sample,
    sample_ensemble,
    sample_matrix,
    scaled_sample,
    shifted_sample,
    sobolev_threshold_probe,
)
from gibbsflow.rng import RandomSeed, generator
from gibbsflow.spectral import field_from_modes, sobolev_norm, truncate, zero_field


class TestSpecInvariants:
    def test_families_validated(self):
        with pytest.raises(ValueError, match="unknown family"):
            GaussianFieldSpec("pink", 4)
        with pytest.raises(ValueError, match="requires alpha"):
            GaussianFieldSpec("fwa", 4)

    def test_mean_zero_forced(self):
        assert GaussianFieldSpec("white", 4).mean_zero
        assert GaussianFieldSpec("fwa", 4, alpha=1.0).mean_zero
        with pytest.raises(ValueError, match="mean-zero by definition"):
            GaussianFieldSpec("white", 4, mean_zero=False)
        assert not GaussianFieldSpec("fwb", 4, alpha=1.0).mean_zero

    def test_mode_std_profiles(self):
        fwa = mode_std(GaussianFieldSpec("fwa", 3, alpha=2.0))
        assert fwa[3] == 0.0 and assert_close(fwa[4], 1.0) and fwa[5] == 2.0 ** -2

    def test_fwb_mode_zero(self):
        # sigma_0 = <0>^-1 = 1 for every alpha
        assert mode_std(GaussianFieldSpec("fwb", 4, alpha=1.0))[4] == 1.0
        assert mode_std(GaussianFieldSpec("fwb", 4, alpha=0.45))[4] == 1.0

    def test_excluded_mode_is_zero(self):
        assert mode_std(GaussianFieldSpec("fwa", 4, alpha=1.0))[4] == 0.0
        assert mode_std(GaussianFieldSpec("white", 4))[4] == 0.0

    def test_general_requires_coeffs(self):
        with pytest.raises(ValueError, match="base_coeffs"):
            GaussianFieldSpec("general", 2)
        spec = GaussianFieldSpec(
            "general", 1, base_coeffs=np.array([0.5, 0.0, 2.0j]), mean_zero=True
        )
        assert_allclose(mode_std(spec), [0.5, 0.0, 2.0])


def assert_close(a, b):
    assert_allclose(a, b, rtol=1e-14)
    return True


class TestSampling:
    def test_reproducible(self):
        spec = GaussianFieldSpec("fwb", 16, alpha=1.0)
        a = sample(spec, RandomSeed(7, 3))
        b = sample(spec, RandomSeed(7, 3))
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_streams_differ(self):
        spec = GaussianFieldSpec("white", 8, real_valued=True)
        a = sample(spec, RandomSeed(7, 0))
        b = sample(spec, RandomSeed(7, 1))
        assert not np.allclose(a.coeffs, b.coeffs)

    def test_real_symmetry_every_draw(self):
        spec = GaussianFieldSpec("fwb", 6, alpha=0.5, real_valued=True)
        for i in range(20):
            f = sample(spec, RandomSeed(1, i))
            assert f.real_valued
            assert np.array_equal(f.coeffs[:6], np.conj(f.coeffs[7:][::-1]))

    def test_white_per_mode_variance(self):
        # E|c_n|^2 = 1 within 4 standard errors over 10000 draws.
        spec = GaussianFieldSpec("white", 4)
        rows = sample_ensemble(spec, 10000, RandomSeed(11))
        for n in (-3, 1, 4):
            v = np.mean(np.abs(rows[:, n + 4]) ** 2)
            se = np.std(np.abs(rows[:, n + 4]) ** 2, ddof=1) / 100.0
            assert abs(v - 1.0) < 4 * se
        assert np.all(rows[:, 4] == 0.0)  # mean-zero family

    def test_real_mode_variances(self):
        spec = GaussianFieldSpec("fwb", 4, alpha=1.0, real_valued=True)
        rows = sample_ensemble(spec, 10000, RandomSeed(12))
        sig = mode_std(spec)
        for n in (0, 1, 3):
            v = np.mean(np.abs(rows[:, n + 4]) ** 2)
            se = np.std(np.abs(rows[:, n + 4]) ** 2, ddof=1) / 100.0
            assert abs(v - sig[n + 4] ** 2) < 4 * se

    def test_stream_independence(self):
        spec = GaussianFieldSpec("white", 2)
        m = 4000
        a = sample_ensemble(spec, m, RandomSeed(5), lane_index=0)
        b = sample_ensemble(spec, m, RandomSeed(5), lane_index=1)
        for idx in (0, 1, 3):
            xa, xb = a[:, idx].real, b[:, idx].real
            corr = np.corrcoef(xa, xb)[0, 1]
            assert abs(corr) < 4.0 / np.sqrt(m)

    def test_expected_sobolev_matches_closed_form(self):
        for spec in (
            GaussianFieldSpec("white", 8),
            GaussianFieldSpec("fwa", 8, alpha=1.0),
            GaussianFieldSpec("fwb", 8, alpha=0.5, real_valued=True),
        ):
            rows = sample_ensemble(spec, 4000, RandomSeed(13))
            n = np.arange(-8, 9, dtype=float)
            w = (1.0 + n * n) ** 0.3
            sq = np.abs(rows) ** 2 @ w
            se = np.std(sq, ddof=1) / np.sqrt(len(sq))
            assert abs(np.mean(sq) - expected_sobolev_sq(spec, 0.3)) < 4 * se


class TestShifts:
    def test_zero_shift_is_plain_sample(self):
        spec = GaussianFieldSpec("fwb", 8, alpha=1.0)
        a = shifted_sample(zero_field(8), spec, RandomSeed(3))
        b = sample(spec, RandomSeed(3))
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_shift_adds_the_plain_sample_exactly(self):
        spec = GaussianFieldSpec("fwb", 8, alpha=1.0, real_valued=True)
        v0 = field_from_modes(3, {0: 0.7, 2: 0.25 - 0.5j, -2: 0.25 + 0.5j},
                              real_valued=True)
        got = shifted_sample(v0, spec, RandomSeed(9, 4))
        want = truncate(v0, 8).coeffs + sample(spec, RandomSeed(9, 4)).coeffs
        assert np.array_equal(got.coeffs, want) and got.real_valued

    def test_white_mode_zero_is_exact(self):
        v0 = field_from_modes(4, {0: 2.5, 1: 0.5, -1: 0.5}, real_valued=True)
        spec = GaussianFieldSpec("white", 4, real_valued=True)
        for i in range(5):
            f = shifted_sample(v0, spec, RandomSeed(4, i))
            assert f.coeffs[4] == 2.5

    def test_shifted_ensemble_mean(self):
        v0 = field_from_modes(4, {1: 0.7 + 0.2j, -2: -0.3})
        spec = GaussianFieldSpec("fwb", 4, alpha=1.0)
        rows = np.stack([
            shifted_sample(v0, spec, RandomSeed(6, i)).coeffs for i in range(4000)
        ])
        for idx in (2, 5):
            se = np.std(rows[:, idx].real, ddof=1) / np.sqrt(4000)
            assert abs(np.mean(rows[:, idx].real)
                       - v0.coeffs[idx].real) < 4 * se

    def test_truncation_mismatch(self):
        v0 = zero_field(9)
        with pytest.raises(ValueError, match="truncation mismatch"):
            shifted_sample(v0, GaussianFieldSpec("white", 4), RandomSeed(0))

    def test_scaled_consistency(self):
        v0 = field_from_modes(4, {1: 1.0})
        spec = GaussianFieldSpec("fwb", 4, alpha=1.0)
        one = scaled_sample(v0, 1.0, spec, RandomSeed(8))
        shifted = shifted_sample(v0, spec, RandomSeed(8))
        assert np.array_equal(one.coeffs, shifted.coeffs)

    def test_scaled_linear_in_epsilon(self):
        v0 = field_from_modes(4, {1: 1.0})
        spec = GaussianFieldSpec("fwb", 4, alpha=1.0)
        s1 = scaled_sample(v0, 0.2, spec, RandomSeed(9)).coeffs - v0.coeffs
        s2 = scaled_sample(v0, 0.4, spec, RandomSeed(9)).coeffs - v0.coeffs
        assert_allclose(s2, 2.0 * s1, rtol=1e-12)

    def test_scaled_epsilon_to_zero_limit(self):
        v0 = field_from_modes(2, {0: 1.0})
        spec = GaussianFieldSpec("fwb", 2, alpha=1.0)
        gaps = [
            np.max(np.abs(scaled_sample(v0, eps, spec, RandomSeed(10)).coeffs
                          - v0.coeffs))
            for eps in (1e-2, 1e-4, 1e-6)
        ]
        assert gaps[0] / gaps[1] == pytest.approx(100.0, rel=1e-6)
        assert gaps[2] < 1e-5

    def test_scaled_rejects_nonpositive(self):
        v0 = zero_field(2)
        spec = GaussianFieldSpec("fwb", 2, alpha=1.0)
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError, match="epsilon"):
                scaled_sample(v0, eps, spec, RandomSeed(0))

    def test_scaled_variance(self):
        spec = GaussianFieldSpec("white", 3)
        v0 = zero_field(3)
        eps = 0.1
        rows = np.stack([
            scaled_sample(v0, eps, spec, RandomSeed(14, i)).coeffs
            for i in range(10000)
        ])
        sq = np.abs(rows[:, 4]) ** 2
        se = np.std(sq, ddof=1) / 100.0
        assert abs(np.mean(sq) - eps ** 2) < 4 * se


class TestThresholdProbe:
    def test_white_noise_regularity_boundary(self):
        spec = GaussianFieldSpec("white", 4)
        below = sobolev_threshold_probe(spec, -0.6, samples=48, seed=RandomSeed(1))
        above = sobolev_threshold_probe(spec, -0.4, samples=48, seed=RandomSeed(1))
        assert below.verdict == "bounded"
        assert above.verdict == "diverging"

    def test_alpha_one_series_boundary(self):
        spec = GaussianFieldSpec("fwb", 4, alpha=1.0)
        inside = sobolev_threshold_probe(spec, 0.4, samples=48, seed=RandomSeed(2))
        edge = sobolev_threshold_probe(spec, 0.5, samples=48, seed=RandomSeed(2))
        assert inside.verdict == "bounded"
        assert edge.verdict == "diverging"

    def test_partial_sums_are_monotone(self):
        spec = GaussianFieldSpec("white", 4)
        rep = sobolev_threshold_probe(spec, -0.4, samples=16, seed=RandomSeed(3))
        assert list(rep.median_norms) == sorted(rep.median_norms)
        assert rep.tail_slope >= GrowthReport.SLOPE_THRESHOLD

    def test_rows_come_from_per_sample_paths(self):
        # Row i is the draw on path (lane 0, sample i), as in sample_ensemble.
        spec = GaussianFieldSpec("fwb", 3, alpha=0.5, real_valued=True)
        rep = sobolev_threshold_probe(spec, 0.3, n_grid=(5, 10, 20), samples=7,
                                      seed=RandomSeed(4, 2))
        top = GaussianFieldSpec("fwb", 20, alpha=0.5, real_valued=True)
        n = np.arange(-20, 21)
        power = np.array([
            (1.0 + n * n) ** 0.3
            * np.abs(sample_matrix(top, 1, generator(RandomSeed(4, 2), sample=i))[0]) ** 2
            for i in range(7)])
        medians = [np.sqrt(np.median(np.sum(power[:, np.abs(n) <= k], axis=1)))
                   for k in (5, 10, 20)]
        assert rep.median_norms == tuple(medians)

    def test_needs_three_points(self):
        spec = GaussianFieldSpec("white", 4)
        with pytest.raises(ValueError, match="at least 3"):
            sobolev_threshold_probe(spec, 0.0, n_grid=(10, 100))

    def test_rejects_general_family(self):
        spec = GaussianFieldSpec("general", 1, base_coeffs=np.ones(3))
        with pytest.raises(ValueError, match="parametric"):
            sobolev_threshold_probe(spec, 0.0)
