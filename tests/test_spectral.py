"""Tests for the Fourier-side field representation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gibbsflow.spectral import (
    GridConfig,
    TorusField,
    derivative,
    field_from_json,
    field_from_modes,
    field_to_json,
    from_physical,
    grid_for,
    lp_integral,
    mean_square,
    pointwise_product,
    sobolev_norm,
    to_physical,
    truncate,
    zero_field,
)

from helpers import brute_convolution, dense_quadrature_lp


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

    def test_homogeneous_skips_zero_mode(self):
        f = field_from_modes(2, {0: 7.0, 1: 1.0})
        assert_allclose(sobolev_norm(f, -1.0, homogeneous=True), 1.0, rtol=1e-15)

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
        assert lp_integral(zero_field(3), 4, grid_for(3, 4)) == 0.0

    def test_constant_parseval(self):
        f = field_from_modes(0, {0: 3.0})
        assert_allclose(lp_integral(f, 2, GridConfig(8)), 2 * np.pi * 9.0, rtol=1e-14)

    def test_single_mode_quartic_matches_dense_oracle(self):
        # |e^{ix}|^4 integrates to 2*pi; the dense-quadrature oracle pins it.
        f = field_from_modes(1, {1: 1.0})
        oracle = dense_quadrature_lp(f, 4)
        assert_allclose(oracle, 2 * np.pi, rtol=1e-12)
        assert_allclose(lp_integral(f, 4, grid_for(1, 4)), oracle, rtol=1e-12)

    def test_random_fields_match_dense_oracle(self):
        rng = np.random.default_rng(3)
        for real in (False, True):
            f = random_field(5, rng, real_valued=real)
            got = lp_integral(f, 4, grid_for(5, 4))
            assert_allclose(got, dense_quadrature_lp(f, 4), rtol=1e-11)

    def test_parseval_identity(self):
        rng = np.random.default_rng(4)
        for n_max in (0, 3, 16):
            f = random_field(n_max, rng)
            got = lp_integral(f, 2, grid_for(n_max, 2))
            assert_allclose(got, 2 * np.pi * mean_square(f), rtol=1e-12)

    def test_refuses_small_grid(self):
        f = random_field(8, np.random.default_rng(5))
        with pytest.raises(ValueError, match="need m_points >= 33"):
            lp_integral(f, 4, GridConfig(32))

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            lp_integral(zero_field(1), 0.5, GridConfig(8))


class TestMeanOps:
    def test_mean_square_single_mode(self):
        f = field_from_modes(4, {1: 2.0 - 1.0j})
        assert_allclose(mean_square(f), 5.0, rtol=1e-15)


class TestDerivative:
    def test_constant(self):
        f = field_from_modes(2, {0: 5.0})
        for k in (1, 2, 3):
            assert np.all(derivative(f, k).coeffs == 0.0)

    def test_multipliers(self):
        f1 = field_from_modes(2, {1: 1.0})
        assert_allclose(derivative(f1, 2).coeffs[3], -1.0, rtol=1e-15)
        f2 = field_from_modes(3, {2: 1.0})
        assert_allclose(derivative(f2, 3).coeffs[5], -8.0j, rtol=1e-15)

    def test_matches_pointwise_derivative(self):
        # d/dx sin(3x) = 3cos(3x), checked on the grid.
        f = field_from_modes(4, {3: -0.5j, -3: 0.5j}, real_valued=True)
        grid = GridConfig(32)
        got = to_physical(derivative(f, 1), grid)
        assert_allclose(got.real, 3 * np.cos(3 * grid.points), atol=1e-12)
        assert np.max(np.abs(got.imag)) < 1e-12

    def test_preserves_real_symmetry(self):
        rng = np.random.default_rng(6)
        f = random_field(6, rng, real_valued=True)
        for k in (1, 2, 3):
            g = derivative(f, k)
            assert g.real_valued
            assert_allclose(g.coeffs, np.conj(g.coeffs[::-1]), atol=1e-12)

    def test_symmetry_survives_linear_combinations_and_truncation(self):
        rng = np.random.default_rng(14)
        f = random_field(6, rng, real_valued=True)
        g = random_field(6, rng, real_valued=True)
        combo = TorusField(6, 0.7 * f.coeffs - 1.3 * g.coeffs, real_valued=True)
        cut = truncate(combo, 3)
        assert cut.real_valued
        assert_allclose(cut.coeffs, np.conj(cut.coeffs[::-1]), atol=1e-12)


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


class TestTransforms:
    def test_zero_roundtrip(self):
        f = zero_field(4)
        assert np.all(from_physical(to_physical(f, GridConfig(16)), 4).coeffs == 0.0)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(9)
        f = random_field(16, rng)
        g = from_physical(to_physical(f, GridConfig(64)), 16)
        assert_allclose(g.coeffs, f.coeffs, rtol=0, atol=1e-12 * np.max(np.abs(f.coeffs)))

    def test_real_input_gives_exact_symmetry(self):
        rng = np.random.default_rng(10)
        f = random_field(8, rng, real_valued=True)
        u = to_physical(f, GridConfig(32)).real
        g = from_physical(u, 8)
        assert g.real_valued
        assert np.array_equal(g.coeffs[:8], np.conj(g.coeffs[9:][::-1]))
        assert_allclose(g.coeffs, f.coeffs, atol=1e-13)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="cannot resolve"):
            from_physical(np.zeros(16), 8)
        with pytest.raises(ValueError, match="too small"):
            to_physical(zero_field(8), GridConfig(16))


class TestDealiasedProduct:
    def test_matches_brute_convolution(self):
        rng = np.random.default_rng(11)
        for n_max in range(1, 9):
            f = random_field(n_max, rng)
            g = random_field(n_max, rng)
            prod = pointwise_product(f, g)
            oracle = brute_convolution(f, g)
            assert_allclose(prod.coeffs, oracle, rtol=0,
                            atol=1e-12 * np.max(np.abs(oracle)))

    def test_truncated_output_band(self):
        rng = np.random.default_rng(12)
        f, g = random_field(4, rng), random_field(4, rng)
        prod = pointwise_product(f, g, n_out=3)
        oracle = brute_convolution(f, g)
        assert_allclose(prod.coeffs, oracle[5:12], rtol=0,
                        atol=1e-12 * np.max(np.abs(oracle)))

    def test_real_times_real_stays_real(self):
        rng = np.random.default_rng(13)
        f = random_field(4, rng, real_valued=True)
        prod = pointwise_product(f, f)
        assert prod.real_valued


def _is_5_smooth(m):
    for q in (2, 3, 5):
        while m % q == 0:
            m //= q
    return m == 1


class TestGridConfig:
    def test_m_points_positive(self):
        with pytest.raises(ValueError, match="m_points must be >= 1"):
            GridConfig(0)
        assert GridConfig(48).m_points == 48  # any size, not only powers of two

    def test_grid_for_rule(self):
        for n_max in (0, 1, 2, 5, 16, 31, 32, 100):
            for degree in (1, 2, 3, 4, 6):
                m = grid_for(n_max, degree).m_points
                assert _is_5_smooth(m)
                assert m >= degree * n_max + 1 and m >= 2 * n_max + 2
                # smallest such size
                assert not any(_is_5_smooth(k) for k in
                               range(max(degree * n_max + 1, 2 * n_max + 2), m))
        assert grid_for(0, 4).m_points == 2
        assert grid_for(32, 3).m_points == 100  # KdV
        assert grid_for(16, 4).m_points == 72  # Wick-NLS
        assert grid_for(32, 4).m_points == 135  # NLS and Wick-NLS
