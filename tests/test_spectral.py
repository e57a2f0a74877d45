"""Tests for the Fourier-side field representation."""

import bisect

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gibbsflow.spectral import (
    TorusField,
    band_matrices,
    field_from_json,
    field_from_modes,
    field_to_json,
    from_half,
    grid_for,
    lp_integral,
    mean_square,
    sobolev_norm,
    synthesize,
    to_physical,
    truncate,
    zero_field,
)

from helpers import analyze, analyze_real, dense_quadrature_lp


def random_field(n_max, rng, real_valued=False, decay=0.0):
    n = np.arange(-n_max, n_max + 1)
    scale = (1.0 + np.abs(n)) ** (-decay)
    c = (rng.standard_normal(2 * n_max + 1)
         + 1j * rng.standard_normal(2 * n_max + 1)) * scale
    if real_valued:
        c = (c + np.conj(c[::-1])) / 2.0
    return TorusField(n_max, c, real_valued)


class TestTorusField:
    def test_invariants(self):
        with pytest.raises(ValueError, match="coefficients"):
            TorusField(2, np.zeros(4, dtype=complex))
        with pytest.raises(ValueError, match="finite"):
            TorusField(0, np.array([np.nan + 0j]))
        with pytest.raises(ValueError, match="conj"):
            TorusField(1, np.array([1.0, 0.0, 2.0], dtype=complex), real_valued=True)
        # Im(c_0) != 0 is itself a conjugate-symmetry violation at n = 0.
        with pytest.raises(ValueError, match="conj"):
            TorusField(0, np.array([1j]), real_valued=True)

    def test_immutable(self):
        f = zero_field(2)
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(0)
        f = random_field(6, rng)
        g = field_from_json(field_to_json(f))
        assert_allclose(g.coeffs, f.coeffs, rtol=1e-15)
        assert g.n_max == f.n_max and g.real_valued == f.real_valued


class TestSobolevNorm:
    def test_zero_field(self):
        assert sobolev_norm(zero_field(4), 1.7) == 0.0

    def test_unit_mode(self):
        assert sobolev_norm(field_from_modes(3, {1: 1.0}), 0.0) == 1.0

    def test_bracket_weight(self):
        # single mode n=2 at s=1: <2> = (1+4)^(1/2)
        f = field_from_modes(4, {2: 1.0})
        assert_allclose(sobolev_norm(f, 1.0), np.sqrt(5.0), rtol=1e-15)

    def test_monotone_in_s(self):
        rng = np.random.default_rng(1)
        f = random_field(8, rng)
        norms = [sobolev_norm(f, s) for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_norm_axioms(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            f, g = random_field(6, rng), random_field(6, rng)
            lam = rng.standard_normal()
            tri = sobolev_norm(TorusField(6, f.coeffs + g.coeffs), 0.7)
            assert tri <= sobolev_norm(f, 0.7) + sobolev_norm(g, 0.7) + 1e-12
            assert_allclose(
                sobolev_norm(TorusField(6, lam * f.coeffs), 0.7),
                abs(lam) * sobolev_norm(f, 0.7), rtol=1e-12,
            )


class TestLpIntegral:
    def test_zero_field(self):
        assert lp_integral(zero_field(3), 4) == 0.0

    def test_constant_parseval(self):
        f = field_from_modes(0, {0: 3.0})
        assert_allclose(lp_integral(f, 2), 2 * np.pi * 9.0, rtol=1e-14)

    def test_single_mode_quartic_matches_dense_oracle(self):
        # |e^{ix}|^4 integrates to 2*pi; the dense-quadrature oracle pins it.
        f = field_from_modes(1, {1: 1.0})
        oracle = dense_quadrature_lp(f, 4)
        assert_allclose(oracle, 2 * np.pi, rtol=1e-12)
        assert_allclose(lp_integral(f, 4), oracle, rtol=1e-12)

    def test_random_fields_match_dense_oracle(self):
        rng = np.random.default_rng(3)
        for real in (False, True):
            f = random_field(5, rng, real_valued=real)
            got = lp_integral(f, 4)
            assert_allclose(got, dense_quadrature_lp(f, 4), rtol=1e-11)

    def test_parseval_identity(self):
        rng = np.random.default_rng(4)
        for n_max in (0, 3, 16):
            f = random_field(n_max, rng)
            got = lp_integral(f, 2)
            assert_allclose(got, 2 * np.pi * mean_square(f), rtol=1e-12)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            lp_integral(zero_field(1), 0.5)


class TestMeanOps:
    def test_mean_square_single_mode(self):
        f = field_from_modes(4, {1: 2.0 - 1.0j})
        assert_allclose(mean_square(f), 5.0, rtol=1e-15)


class TestTruncate:
    def test_identity(self):
        f = random_field(5, np.random.default_rng(7))
        assert truncate(f, 5) is f

    def test_drops_high_mode(self):
        f = field_from_modes(5, {5: 1.0, -5: 1.0}, real_valued=True)
        assert np.all(truncate(f, 3).coeffs == 0.0)

    def test_idempotent_and_nonincreasing(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = random_field(9, rng)
            g = truncate(f, 4)
            assert np.array_equal(truncate(g, 4).coeffs, g.coeffs)
            for s in (-1.0, 0.0, 1.5):
                assert sobolev_norm(g, s) <= sobolev_norm(f, s) + 1e-12

    def test_zero_pads_upward(self):
        f = field_from_modes(2, {1: 1.0})
        g = truncate(f, 4)
        assert g.n_max == 4 and g.coeffs[5] == 1.0

    def test_symmetry_survives_linear_combinations_and_truncation(self):
        rng = np.random.default_rng(14)
        f = random_field(6, rng, real_valued=True)
        g = random_field(6, rng, real_valued=True)
        combo = TorusField(6, 0.7 * f.coeffs - 1.3 * g.coeffs, real_valued=True)
        cut = truncate(combo, 3)
        assert cut.real_valued
        assert_allclose(cut.coeffs, np.conj(cut.coeffs[::-1]), atol=1e-12)


class TestTransforms:
    """``to_physical`` against the FFT analyzers of the test helpers."""

    def test_zero_roundtrip(self):
        u = to_physical(zero_field(4), 16)
        assert np.all(analyze(u[np.newaxis, :], 4) == 0.0)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(9)
        f = random_field(16, rng)
        c = analyze(to_physical(f, 64)[np.newaxis, :], 16)[0]
        assert_allclose(c, f.coeffs, rtol=0, atol=1e-12 * np.max(np.abs(f.coeffs)))

    def test_real_input_gives_exact_symmetry(self):
        rng = np.random.default_rng(10)
        f = random_field(8, rng, real_valued=True)
        u = to_physical(f, 32).real
        c = from_half(analyze_real(u, 8))
        assert np.array_equal(c[:8], np.conj(c[9:][::-1]))
        assert_allclose(c, f.coeffs, atol=1e-13)
        # Any half rows give exact conjugate symmetry and a real mean.
        h = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
        full = from_half(h)
        assert np.array_equal(full[:, :8], np.conj(full[:, 9:][:, ::-1]))
        assert np.array_equal(full[:, 8], h[:, 0].real)
        assert np.array_equal(full[:, 9:], h[:, 1:])

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="too small"):
            to_physical(zero_field(8), 16)


def _is_5_smooth(m):
    for q in (2, 3, 5):
        while m % q == 0:
            m //= q
    return m == 1


class TestGridConfig:
    def test_grid_for_rule(self):
        for n_max in (0, 1, 2, 5, 16, 31, 32, 100):
            for degree in (1, 2, 3, 4, 6):
                m = grid_for(n_max, degree)
                assert _is_5_smooth(m)
                assert m >= degree * n_max + 1 and m >= 2 * n_max + 2
                # smallest such size
                assert not any(_is_5_smooth(k) for k in
                               range(max(degree * n_max + 1, 2 * n_max + 2), m))
        assert grid_for(0, 4) == 2
        assert grid_for(32, 3) == 100  # KdV
        assert grid_for(16, 4) == 72  # Wick-NLS
        assert grid_for(32, 4) == 135  # NLS and Wick-NLS

    def test_grid_for_against_enumerated_5_smooth_sizes(self):
        # Oracle: every 2^a 3^b 5^c up to 2*5000, listed by their exponents.
        limit = 10_000
        smooth = sorted(2 ** a * 3 ** b * 5 ** c
                        for a in range(14) for b in range(9) for c in range(6)
                        if 2 ** a * 3 ** b * 5 ** c <= limit)
        # grid_for(1, d) needs M >= max(d + 1, 4); grid_for(0, d) needs 2.
        cases = [(0, 1, 2)] + [(1, need - 1, need) for need in range(4, 5001)]
        for n_max, degree, need in cases:
            want = smooth[bisect.bisect_left(smooth, need)]
            assert grid_for(n_max, degree) == want, need


class TestBandMatrices:
    """The GEMM transforms against the FFT ``synthesize``/``analyze`` pair,
    with per-mode factors folded in on both sides."""

    # (M, band k): the data band of a projected run and the capacity band
    # (M - 1) // p of an unprojected one on each grid the solvers use.
    BANDS = [(72, 16), (72, 17), (100, 32), (100, 33), (128, 32), (128, 42),
             (135, 32), (135, 33)]

    @staticmethod
    def _factors(rng, size):
        pre = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
        post = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return pre, post

    @pytest.mark.parametrize("m,k", BANDS)
    def test_complex_matches_fft(self, m, k):
        rng = np.random.default_rng(m + k)
        c = rng.standard_normal((5, 2 * k + 1)) + 1j * rng.standard_normal((5, 2 * k + 1))
        u = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
        pre, post = self._factors(rng, 2 * k + 1)
        synthesis, analysis = band_matrices(k, m, False, pre=pre, post=post)
        want_u = synthesize(pre * c, m)
        want_c = post * analyze(u, k)
        assert_allclose(c @ synthesis, want_u, rtol=0, atol=1e-13 * np.max(np.abs(want_u)))
        assert_allclose(u @ analysis, want_c, rtol=0, atol=1e-13 * np.max(np.abs(want_c)))

    @pytest.mark.parametrize("m,k", BANDS)
    def test_real_half_spectrum_matches_fft(self, m, k):
        rng = np.random.default_rng(m * k)
        h = rng.standard_normal((5, k + 1)) + 1j * rng.standard_normal((5, k + 1))
        w = rng.standard_normal((5, m))
        pre, post = self._factors(rng, k + 1)
        synthesis, analysis = band_matrices(k, m, True, pre=pre, post=post)
        # Like irfft, the grid sees only the real part of the mean mode.
        want_u = synthesize(from_half(pre * h), m).real
        want_h = post * analyze_real(w, k)
        assert_allclose(h.view(np.float64) @ synthesis, want_u,
                        rtol=0, atol=1e-13 * np.max(np.abs(want_u)))
        got_h = (w @ analysis).view(np.complex128)
        assert_allclose(got_h, want_h, rtol=0, atol=1e-13 * np.max(np.abs(want_h)))

    def test_default_factors_are_one(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((2, 100))
        synthesis, analysis = band_matrices(32, 100, True)
        h = (u @ analysis).view(np.complex128)
        assert_allclose(h, analyze_real(u, 32), rtol=0, atol=1e-14)
        assert synthesis.shape == (66, 100) and analysis.shape == (100, 66)
        assert synthesis.flags.c_contiguous and analysis.flags.c_contiguous

    def test_refuses_unresolved_band(self):
        with pytest.raises(ValueError, match="too small"):
            band_matrices(32, 65, False)
