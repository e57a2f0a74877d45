"""Tests for densities, weights, and dichotomy criteria."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gibbsflow.fields import GaussianFieldSpec, sample_ensemble
from gibbsflow.measures import (
    GibbsSpec,
    SingularShiftError,
    cameron_martin_log_density,
    cameron_martin_log_density_matrix,
    cameron_martin_norm_sq,
    cm_criterion_power_law,
    covariance_eigenvalues,
    entropy_check_finite_dim,
    feldman_hajek_statistic,
    gibbs_ensemble,
    gibbs_log_weight_matrix,
    grid_entropy,
    hellinger_mode,
    kakutani_power_law,
    kakutani_test,
    normalized_weights,
)
from gibbsflow.rng import RandomSeed, generator
from gibbsflow.spectral import field_from_modes, zero_field

from helpers import dense_quadrature_lp, rejection_sample_gibbs


class TestCovarianceEigenvalues:
    def test_direct_values(self):
        assert_allclose(covariance_eigenvalues(1.0, 0.0, [1]), [1.0])
        assert_allclose(covariance_eigenvalues(2.0, 0.0, [2]), [1.0 / 8.0])

    def test_beta_homogeneity(self):
        n = np.array([1, 2, 5, -7])
        assert_allclose(
            covariance_eigenvalues(2.0, 0.3, n),
            covariance_eigenvalues(1.0, 0.3, n) / 2.0,
            rtol=1e-15,
        )

    def test_mode_zero_rejected(self):
        with pytest.raises(ValueError, match="mode 0"):
            covariance_eigenvalues(1.0, 0.0, [0, 1])

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_nonpositive_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be > 0"):
            covariance_eigenvalues(beta, 0.0, [1])


class TestFeldmanHajek:
    def test_equal_temperatures_equivalent(self):
        v = feldman_hajek_statistic(1.3, 1.3)
        assert v.verdict == "equivalent" and v.statistic == 0.0

    def test_partial_sums_match_eigenvalue_route(self):
        # Independent route: per-mode terms summed from the eigenvalues.
        beta, gamma, s = 1.0, 2.0, 0.25
        v = feldman_hajek_statistic(beta, gamma, s, n_max=512)
        for n_chk, total in zip(v.partial_ns, v.partial_sums):
            n = np.arange(1, n_chk + 1)
            lb = covariance_eigenvalues(beta, s, n)
            lg = covariance_eigenvalues(gamma, s, n)
            brute = 2.0 * np.sum(((lb - lg) / (lb + lg)) ** 2)
            assert_allclose(total, brute, rtol=1e-12)
        assert_allclose(v.partial_sums[-1], 2 * 512 / 9, rtol=1e-12)
        assert v.verdict == "singular"

    def test_verdict_depends_only_on_equality(self):
        pairs = [(0.5, 0.5), (1.0, 2.0), (3.7, 3.7), (0.1, 9.0)]
        for beta, gamma in pairs:
            v = feldman_hajek_statistic(beta, gamma, s=1.7, n_max=64)
            assert (v.verdict == "equivalent") == (beta == gamma)

    def test_positive_temperatures_required(self):
        with pytest.raises(ValueError, match="beta and gamma"):
            feldman_hajek_statistic(0.0, 1.0)

    def test_checkpoints_shared_with_kakutani(self):
        # Doubling checkpoints 1, 2, 4, ... below n_max, then n_max itself.
        expected = {2: (1, 2), 5: (1, 2, 4, 5), 64: (1, 2, 4, 8, 16, 32, 64),
                    100: (1, 2, 4, 8, 16, 32, 64, 100)}
        for n_max, ns in expected.items():
            assert feldman_hajek_statistic(1.0, 2.0, n_max=n_max).partial_ns == ns
            assert kakutani_power_law(1.0, 1.4, n_max=n_max).partial_ns == ns


class TestHellinger:
    def test_no_shift(self):
        assert hellinger_mode(2.0 + 1.0j, 0.0) == 1.0

    def test_equal_magnitudes(self):
        assert_allclose(hellinger_mode(1.0, 1.0), math.exp(-0.125), rtol=1e-15)
        assert_allclose(hellinger_mode(2.0j, -2.0), math.exp(-0.125), rtol=1e-15)

    def test_dead_direction(self):
        assert hellinger_mode(0.0, 1.0) == 0.0
        assert hellinger_mode(0.0, 0.0) == 1.0

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = rng.standard_normal() + 1j * rng.standard_normal()
            v = rng.standard_normal() + 1j * rng.standard_normal()
            h = hellinger_mode(u, v)
            assert 0.0 < h <= 1.0
            assert (h == 1.0) == (v == 0.0)

    def test_product_sum_identity(self):
        # -8 sum log H_n equals the shift statistic, sequence by sequence.
        # Base magnitudes are kept away from 0 so exp(-ratio/8) stays
        # representable; the identity itself carries no tolerance.
        rng = np.random.default_rng(1)
        for _ in range(1000):
            k = int(rng.integers(1, 30))
            phase = np.exp(2j * np.pi * rng.random(k))
            u = (0.2 + np.abs(rng.standard_normal(k))) * phase
            v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            lhs = -8.0 * sum(math.log(hellinger_mode(a, b)) for a, b in zip(u, v))
            rhs = float(np.sum(np.abs(v) ** 2 / np.abs(u) ** 2))
            assert_allclose(lhs, rhs, rtol=1e-12)


class TestKakutani:
    def test_zero_shift(self):
        u = np.ones(10)
        v = kakutani_test(u, np.zeros(10))
        assert v.verdict == "equivalent" and v.statistic == 0.0

    def test_dead_mode_is_singular(self):
        u = np.array([1.0, 0.0, 1.0])
        v = kakutani_test(u, np.array([0.0, 0.5, 0.0]))
        assert v.verdict == "singular" and math.isinf(v.statistic)

    def test_free_field_thresholds_power_law(self):
        # Shift admissible iff 2(v_decay - 1) > 1, i.e. decay > 3/2.
        for decay, expected in [(1.0, "singular"), (1.4, "singular"),
                                (1.8, "equivalent"), (2.5, "equivalent")]:
            v = kakutani_power_law(1.0, decay, n_max=100000)
            assert v.verdict == expected, decay

    def test_raw_sequences_clear_cases(self):
        n = np.arange(-2000, 2001)
        n = n[n != 0]
        u = np.abs(n) ** -1.0
        assert kakutani_test(u, np.abs(n) ** -1.0, modes=n).verdict == "singular"
        assert kakutani_test(u, np.abs(n) ** -2.5, modes=n).verdict == "equivalent"

    @pytest.mark.parametrize("u, v", [(np.ones(3), np.ones(4)),
                                      (np.ones((2, 2)), np.ones((2, 2)))])
    def test_shape_refused(self, u, v):
        with pytest.raises(ValueError, match="1-d sequences of equal length"):
            kakutani_test(u, v)

    def test_empty_head_is_undecided(self):
        # All of the statistic sits above half the largest mode, so the
        # tail-growth ratio has no head to compare with.
        v = kakutani_test(np.ones(4), np.array([0.0, 0.0, 0.0, 1.0]))
        assert v.verdict == "undecided" and v.statistic == 1.0

    def test_partial_sums_track_brute_force(self):
        v = kakutani_power_law(1.0, 1.4, n_max=64)
        n = np.arange(1, 65, dtype=float)
        brute = 2.0 * np.cumsum(n ** (2.0 * (1.0 - 1.4)))
        assert_allclose(v.partial_sums[-1], brute[-1], rtol=1e-12)


class TestGibbsSpec:
    def test_focusing_bounds(self):
        base = GaussianFieldSpec("fwb", 4, alpha=1.0)
        with pytest.raises(ValueError, match="p > 6"):
            GibbsSpec(p=8, sign="focusing", beta=1.0, base=base, cutoff_B=1.0)
        with pytest.raises(ValueError, match="cutoff"):
            GibbsSpec(p=4, sign="focusing", beta=1.0, base=base)
        GibbsSpec(p=6, sign="focusing", beta=1.0, base=base, cutoff_B=0.1)

    def test_defocusing_needs_no_cutoff(self):
        base = GaussianFieldSpec("fwb", 4, alpha=1.0)
        GibbsSpec(p=4, sign="defocusing", beta=1.0, base=base)

    @pytest.mark.parametrize("kwargs, message", [
        ({"p": 2}, "p must be an integer >= 3"),
        ({"sign": "repulsive"}, "bad sign 'repulsive'"),
        ({"beta": 0.0}, "beta must be > 0"),
        ({"cutoff_B": 0.0}, "cutoff_B must be > 0"),
        ({"sign": "focusing", "cutoff_B": -1.0}, "cutoff_B must be > 0"),
    ])
    def test_bad_parameters_refused(self, kwargs, message):
        args = {"p": 4, "sign": "defocusing", "beta": 1.0,
                "base": GaussianFieldSpec("fwb", 4, alpha=1.0), **kwargs}
        with pytest.raises(ValueError, match=message):
            GibbsSpec(**args)


class TestGibbsLogWeight:
    def base_spec(self, n_max=4, cutoff=None, sign="defocusing"):
        base = GaussianFieldSpec("fwb", n_max, alpha=1.0)
        return GibbsSpec(p=4, sign=sign, beta=1.0, base=base, cutoff_B=cutoff)

    def log_weight(self, f, spec):
        """(log weight, cutoff indicator) of one field, as a one-row batch;
        the cutoff is a -inf log weight."""
        lw = float(gibbs_log_weight_matrix(f.coeffs[np.newaxis, :], spec)[0])
        return lw, not np.isneginf(lw)

    def test_zero_field(self):
        spec = self.base_spec(cutoff=2.0)
        lw, within = self.log_weight(zero_field(4), spec)
        assert lw == 0.0 and within

    def test_single_mode_matches_quadrature_oracle(self):
        spec = self.base_spec(n_max=1)
        f = field_from_modes(1, {1: 1.0})
        oracle = dense_quadrature_lp(f, 4)  # = 2*pi for a single unit mode
        lw, _ = self.log_weight(f, spec)
        assert_allclose(lw, -0.25 * oracle, rtol=1e-12)

    def test_cutoff_indicator(self):
        b = 1.0
        spec = self.base_spec(cutoff=b)
        # ||f||_L2 = sqrt(2 pi) |c_0|; put it just above the radius
        amp = (b + 0.1) / math.sqrt(2 * math.pi)
        f = field_from_modes(4, {0: amp})
        _, within = self.log_weight(f, spec)
        assert not within
        amp_in = (b - 0.1) / math.sqrt(2 * math.pi)
        _, within_in = self.log_weight(field_from_modes(4, {0: amp_in}), spec)
        assert within_in

    def test_defocusing_always_nonpositive(self):
        spec = self.base_spec()
        for i in range(20):
            c = sample_ensemble(spec.base, 1, RandomSeed(20, i))[0]
            from gibbsflow.spectral import TorusField
            lw, _ = self.log_weight(TorusField(4, c), spec)
            assert lw <= 0.0

    def test_focusing_flips_sign(self):
        f = field_from_modes(1, {1: 1.0})
        d = self.base_spec(n_max=1)
        foc = self.base_spec(n_max=1, cutoff=100.0, sign="focusing")
        lw_d, _ = self.log_weight(f, d)
        lw_f, _ = self.log_weight(f, foc)
        assert_allclose(lw_f, -lw_d, rtol=1e-14)


class TestGibbsEnsemble:
    def spec(self, n_max=8):
        return GibbsSpec(p=4, sign="defocusing", beta=1.0,
                         base=GaussianFieldSpec("fwb", n_max, alpha=1.0))

    def test_uniform_weights_when_flat(self):
        w, ess = normalized_weights(np.zeros(500))
        assert_allclose(w, np.full(500, 1 / 500), rtol=1e-14)
        assert_allclose(ess, 500.0, rtol=1e-12)

    def test_all_weights_vanish_refused(self):
        with pytest.raises(ValueError, match="all weights vanish"):
            normalized_weights(np.full(5, -np.inf))

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError, match="m_samples"):
            gibbs_ensemble(self.spec(), 50, RandomSeed(0))

    @pytest.mark.parametrize("levels, pcn_steps", [(0, 3), (-5, 3), (96, -1)])
    def test_no_annealing_schedule_refused_before_drawing(self, levels, pcn_steps,
                                                          monkeypatch):
        # With levels <= 0 nothing is annealed: the Gaussian base draws
        # would pass, unflagged, as a Gibbs ensemble with ESS = m.
        import gibbsflow.measures as ms

        def refuse(*args, **kwargs):
            raise AssertionError("drew before the schedule was checked")

        monkeypatch.setattr(ms, "sample_matrix", refuse)
        with pytest.raises(ValueError, match="levels must be >= 1 and pcn_steps >= 0"):
            gibbs_ensemble(self.spec(), 200, RandomSeed(0), levels=levels,
                           pcn_steps=pcn_steps)

    def test_reweighting_pushes_quartic_down(self):
        spec = self.spec(n_max=16)
        ens = gibbs_ensemble(spec, 2000, RandomSeed(3), levels=1, pcn_steps=0)
        lw = gibbs_log_weight_matrix(ens.coeffs, spec)
        quartic = -4.0 * lw  # int |u|^4 per sample
        weighted_mean = float(np.sum(ens.weights * quartic))
        assert weighted_mean < np.mean(quartic)

    def test_snis_and_ais_match_rejection_oracle(self):
        spec = self.spec(n_max=4)
        exact = rejection_sample_gibbs(spec, 4000, np.random.default_rng(99))
        target = np.mean(np.abs(exact[:, 5]) ** 2)  # E|c_1|^2 under Gibbs
        se_oracle = np.std(np.abs(exact[:, 5]) ** 2, ddof=1) / np.sqrt(4000)
        # SNIS is AIS with one level and no moves.
        for levels, pcn_steps in ((1, 0), (40, 2)):
            ens = gibbs_ensemble(spec, 4000, RandomSeed(31), levels=levels,
                                 pcn_steps=pcn_steps)
            est = float(np.sum(ens.weights * np.abs(ens.coeffs[:, 5]) ** 2))
            se = np.sqrt(np.sum(ens.weights ** 2
                                * (np.abs(ens.coeffs[:, 5]) ** 2 - est) ** 2))
            assert abs(est - target) < 4 * math.hypot(se, se_oracle), levels

    def test_ais_beats_snis_ess(self):
        spec = self.spec(n_max=16)
        snis = gibbs_ensemble(spec, 500, RandomSeed(5), levels=1, pcn_steps=0)
        ais = gibbs_ensemble(spec, 500, RandomSeed(5), levels=60, pcn_steps=2)
        assert ais.ess > snis.ess
        assert not ais.flagged

    def test_degenerate_weights_flagged(self):
        spec = GibbsSpec(p=4, sign="defocusing", beta=60.0,
                         base=GaussianFieldSpec("fwb", 16, alpha=1.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ens = gibbs_ensemble(spec, 200, RandomSeed(6), levels=1, pcn_steps=0)
        assert ens.flagged
        assert any("degeneracy" in str(w.message) for w in caught)

    # sha256 of the coeffs and log_weights bytes of a 300-row ensemble (two
    # chunks, 256 + 44 rows), pinned before the AIS sweep reused its work
    # buffers: a defocusing complex base, a focusing one whose L2 cutoff
    # excludes rows, a real base with odd p, and SNIS (one level, no moves),
    # pinned when SNIS was a separate path.  Values: (spec, (levels,
    # pcn_steps), coeffs digest, log_weights digest).
    PINNED = {
        "defocusing-complex": (
            GibbsSpec(p=4, sign="defocusing", beta=1.0,
                      base=GaussianFieldSpec("fwb", 8, alpha=1.0)), (12, 2),
            "dfe612a90536712815a8b5918240f9cc07e6744d12f4bc16045768e7ae674a57",
            "ba21c1ac50286b2174f992a128746c869b0df8b48b555a66c7a5eed7a993a3fd"),
        "focusing-cutoff": (
            GibbsSpec(p=4, sign="focusing", beta=0.1, cutoff_B=4.5,
                      base=GaussianFieldSpec("fwb", 8, alpha=1.0)), (12, 2),
            "e21a8c11edcac112f493a6e1fc7eefb6df0aa8dd77273e600bfae1f38ae924b8",
            "9170491df207b179bce16f446e3505ec7c7ce90278677c96aabc43b1c3e8fadb"),
        "defocusing-real": (
            GibbsSpec(p=3, sign="defocusing", beta=2.0,
                      base=GaussianFieldSpec("fwa", 8, alpha=0.75, real_valued=True)),
            (12, 2),
            "6da621951cf66d0166e94d8566a99f400ca38c432ed7f947a80a0e5d0d72d64d",
            "b29ca5982b250e22b22457a6d9cf866fd4be0f6c3ab6d9e94a21d63a0c0c3252"),
        "snis": (
            GibbsSpec(p=4, sign="defocusing", beta=1.0,
                      base=GaussianFieldSpec("fwb", 8, alpha=1.0)), (1, 0),
            "a23c29683f9222f4b06faf47fe57cb018a411a550a02a62c4e3dd3290542e724",
            "90705bc1eb98d1f5e1ee0fc4bbdc95520117340128cbf6f47a4db25022c9d112"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_ensemble_bytes_pinned(self, case):
        spec, (levels, pcn_steps), coeffs_digest, log_w_digest = self.PINNED[case]
        ens = gibbs_ensemble(spec, 300, RandomSeed(11, 2), levels=levels,
                             pcn_steps=pcn_steps, lane_index=1)
        assert hashlib.sha256(ens.coeffs.tobytes()).hexdigest() == coeffs_digest
        assert hashlib.sha256(ens.log_weights.tobytes()).hexdigest() == log_w_digest

    def test_thread_count_irrelevant(self):
        spec = self.spec(n_max=4)
        a = gibbs_ensemble(spec, 600, RandomSeed(7), levels=20, pcn_steps=1,
                           n_threads=1)
        b = gibbs_ensemble(spec, 600, RandomSeed(7), levels=20, pcn_steps=1,
                           n_threads=8)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert np.array_equal(a.log_weights, b.log_weights)


class TestShiftDensity:
    def complex_base(self, n_max=8):
        return GaussianFieldSpec("fwb", n_max, alpha=1.0)

    def test_zero_shift(self):
        base = self.complex_base()
        x = sample_ensemble(base, 5, RandomSeed(1))
        from gibbsflow.spectral import TorusField
        for row in x:
            assert cameron_martin_log_density(
                zero_field(8), TorusField(8, row), base) == 0.0

    def test_normalization_identity(self):
        base = self.complex_base()
        v0 = field_from_modes(8, {0: 0.3, 1: 0.2 + 0.1j, 2: 0.1})
        x = sample_ensemble(base, 20000, RandomSeed(2))
        w = np.exp(cameron_martin_log_density_matrix(v0, x, base))
        se = np.std(w, ddof=1) / np.sqrt(len(w))
        assert abs(np.mean(w) - 1.0) < 4 * se

    def test_second_moment_identity(self):
        base = self.complex_base()
        v0 = field_from_modes(8, {1: 0.3, -2: 0.2j})
        x = sample_ensemble(base, 20000, RandomSeed(3))
        w2 = np.exp(2.0 * cameron_martin_log_density_matrix(v0, x, base))
        expected = math.exp(cameron_martin_norm_sq(v0, base))
        se = np.std(w2, ddof=1) / np.sqrt(len(w2))
        assert abs(np.mean(w2) - expected) < 4 * se

    def test_real_base_normalization(self):
        base = GaussianFieldSpec("white", 6, real_valued=True)
        v0 = field_from_modes(6, {1: 0.3 + 0.1j, -1: 0.3 - 0.1j},
                              real_valued=True)
        x = sample_ensemble(base, 20000, RandomSeed(4))
        w = np.exp(cameron_martin_log_density_matrix(v0, x, base))
        se = np.std(w, ddof=1) / np.sqrt(len(w))
        assert abs(np.mean(w) - 1.0) < 4 * se

    def test_value_at_own_shift(self):
        base = self.complex_base()
        v0 = field_from_modes(8, {0: 0.5, 3: 0.25j})
        got = cameron_martin_log_density(v0, v0, base)
        assert_allclose(got, 0.5 * cameron_martin_norm_sq(v0, base), rtol=1e-12)

    def test_additive_under_composition(self):
        base = self.complex_base()
        rng = np.random.default_rng(5)
        h1 = field_from_modes(8, {1: 0.4, 2: 0.1j})
        h2 = field_from_modes(8, {0: 0.3, -1: 0.2})
        from gibbsflow.spectral import TorusField
        x = TorusField(8, rng.standard_normal(17) + 1j * rng.standard_normal(17))
        joint = TorusField(8, h1.coeffs + h2.coeffs)
        x_minus = TorusField(8, x.coeffs - h1.coeffs)
        lhs = cameron_martin_log_density(joint, x, base)
        rhs = (cameron_martin_log_density(h1, x, base)
               + cameron_martin_log_density(h2, x_minus, base))
        assert_allclose(lhs, rhs, rtol=1e-10)

    def test_singular_direction_raises(self):
        base = GaussianFieldSpec("white", 4, real_valued=True)  # no mode 0
        v0 = field_from_modes(4, {0: 1.0}, real_valued=True)
        x = zero_field(4, real_valued=True)
        with pytest.raises(SingularShiftError, match="zero base variance"):
            cameron_martin_log_density(v0, x, base)
        with pytest.raises(SingularShiftError):
            cameron_martin_norm_sq(v0, base)

    def test_positive_density(self):
        base = self.complex_base()
        v0 = field_from_modes(8, {1: 2.0})
        x = sample_ensemble(base, 100, RandomSeed(6))
        w = np.exp(cameron_martin_log_density_matrix(v0, x, base))
        assert np.all(w > 0.0)

    def test_power_law_admissibility(self):
        fwb = GaussianFieldSpec("fwb", 4, alpha=1.0)
        assert cm_criterion_power_law(2.0, fwb) is True    # H^1-type shift
        assert cm_criterion_power_law(1.2, fwb) is False
        white = GaussianFieldSpec("white", 4, real_valued=True)
        assert cm_criterion_power_law(0.6, white) is True  # L^2 shift
        assert cm_criterion_power_law(0.4, white) is False


class TestEntropyCheck:
    def grid(self, cells=4096, span=8.0):
        q = np.linspace(-span, span, cells, endpoint=False) + span / cells
        return q, 2.0 * span / cells

    def test_gaussian_entropy_value(self):
        # Closed-form oracle: differential entropy of N(0,1) is log(2 pi e)/2.
        q, vol = self.grid()
        rep = entropy_check_finite_dim(q ** 2 / 2.0, 1.0, vol, seed=RandomSeed(1))
        assert abs(rep.entropy - 0.5 * math.log(2 * math.pi * math.e)) < 1e-3
        assert rep.all_nonincreasing and rep.strict_decrease

    def test_null_direction_exact_equality(self):
        q, vol = self.grid(cells=1024)
        rep = entropy_check_finite_dim(q ** 2 / 2.0, 1.0, vol,
                                       directions=[np.zeros(1024)])
        assert rep.max_perturbed_entropy == rep.entropy

    def test_quartic_strict_decrease(self):
        q, vol = self.grid()
        rep = entropy_check_finite_dim(q ** 4, 1.0, vol, n_directions=20,
                                       seed=RandomSeed(2))
        assert rep.directions_tested == 20
        assert rep.strict_decrease and rep.min_entropy_drop > 0.0

    @pytest.mark.parametrize("count", [0, -2])
    def test_needs_a_direction(self, count):
        q, vol = self.grid(cells=64)
        with pytest.raises(ValueError, match="n_directions must be >= 1"):
            entropy_check_finite_dim(q ** 2 / 2.0, 1.0, vol, n_directions=count)

    def test_positivity_violation_skipped_with_note(self):
        q, vol = self.grid(cells=512)
        h = q ** 2 / 2.0
        spike = np.zeros(512)
        spike[0] = 1.0  # mass where exp(-H) is ~0: any lambda goes negative
        rep = entropy_check_finite_dim(h, 1.0, vol, directions=[spike])
        assert rep.directions_skipped == 1
        assert any("positivity" in note for note in rep.notes)

    def test_energy_is_matched(self):
        q, vol = self.grid(cells=1024)
        h = q ** 2 / 2.0
        f_star = np.exp(-h)
        f_star /= np.sum(f_star) * vol
        energy = np.sum(h * f_star) * vol
        rng = generator(RandomSeed(3))
        g = rng.standard_normal(1024) * f_star
        from gibbsflow.measures import _project_direction
        g_proj = _project_direction(g, f_star, h, vol)
        assert abs(np.sum(g_proj) * vol) < 1e-12
        assert abs(np.sum(h * g_proj) * vol) < 1e-12 * max(1.0, energy)

    def test_grid_size_cap(self):
        with pytest.raises(ValueError, match="grid too large"):
            entropy_check_finite_dim(np.zeros(2_000_000), 1.0, 1e-3)

    def test_entropy_convention(self):
        # 0 log 0 cells contribute nothing.
        f = np.array([0.0, 2.0, 0.0])
        assert_allclose(grid_entropy(f, 0.5), -2.0 * math.log(2.0) * 0.5)
