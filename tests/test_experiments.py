"""Tests for the experiment drivers."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats as sps

from gibbsflow.fields import GaussianFieldSpec, sample_ensemble, sample_matrix
from gibbsflow.integrators import EquationSpec
from gibbsflow.measures import GibbsSpec, SingularShiftError
from gibbsflow.experiments import (
    calibration_uniformity,
    cameron_martin_experiment,
    invariance_experiment,
    ldp_mc,
    ldp_rate_infimum,
    observable_panel,
)
from gibbsflow.presets import cm_preset, invariance_preset, smooth_shift_field
from gibbsflow.rng import RandomSeed
from gibbsflow.spectral import TorusField, field_from_modes, zero_field

from helpers import slsqp_ball_minimum


class TestObservablePanel:
    def test_complex_panel_modes(self):
        names = observable_panel(16, real_valued=False)[0]
        assert "re_c[-8]" in names and "re_c[8]" in names and "im_c[0]" in names
        assert names[-2:] == ["sobolev_s0", "sobolev_s-1"]

    def test_real_panel_skips_conjugates(self):
        names = observable_panel(16, real_valued=True)[0]
        assert "re_c[-1]" not in names and "re_c[1]" in names

    def test_small_truncation_dedupe(self):
        names = observable_panel(2, real_valued=True)[0]
        assert names.count("re_c[1]") == 1

    @pytest.mark.parametrize("real_valued", [True, False])
    @pytest.mark.parametrize("n_max", [0, 1, 16])
    def test_values_match_definitions(self, n_max, real_valued):
        modes = {(0, True): [0], (1, True): [0, 1], (16, True): [0, 1, 2, 5, 8],
                 (0, False): [0], (1, False): [-1, 0, 1],
                 (16, False): [-8, -5, -2, -1, 0, 1, 2, 5, 8]}[n_max, real_valued]
        spec = GaussianFieldSpec("fwb", n_max, alpha=1.0, real_valued=real_valued)
        c = sample_ensemble(spec, 7, RandomSeed(4))
        names, values = observable_panel(n_max, real_valued)
        assert names == [f"{kind}_c[{n}]" for n in modes for kind in ("re", "im", "abs2")] \
            + ["sobolev_s0", "sobolev_s-1"]
        table = values(c)
        assert table.shape == (len(names), 7) and table.dtype == np.float64
        n = np.arange(-n_max, n_max + 1, dtype=np.float64)
        for name, row in zip(names, table):
            if name.startswith("sobolev"):
                s = 0.0 if name == "sobolev_s0" else -1.0
                want = np.sqrt(np.sum((1.0 + n * n) ** s * np.abs(c) ** 2, axis=1))
            else:
                kind, mode = name[:-1].split("_c[")
                col = c[:, int(mode) + n_max]
                want = {"re": col.real, "im": col.imag,
                        "abs2": col.real ** 2 + col.imag ** 2}[kind]
            assert_allclose(row, want, rtol=1e-13, atol=0, err_msg=name)


class TestInvarianceExperiment:
    def test_null_run_needs_no_equation(self):
        spec = GaussianFieldSpec("white", 8, real_valued=True)
        rep = invariance_experiment(spec, None, 0.0, 400, RandomSeed(1))
        assert not rep.any_rejection
        assert rep.equation == "none"
        assert rep.scope == "finite_truncation"
        # mode 0 observables are constant zero in both ensembles
        assert "re_c[0]" in rep.skipped_observables

    def test_compatibility_checks(self):
        eq = EquationSpec("gkdv", p=3, sign="plus")
        complex_spec = GaussianFieldSpec("fwb", 8, alpha=1.0)
        with pytest.raises(ValueError, match="real-valued mean-zero"):
            invariance_experiment(complex_spec, eq, 1.0, 400, RandomSeed(1), dt=1e-3)
        eq_nls = EquationSpec("wick_nls", sign="plus")
        real_spec = GaussianFieldSpec("white", 8, real_valued=True)
        with pytest.raises(ValueError, match="complex fields"):
            invariance_experiment(real_spec, eq_nls, 1.0, 400, RandomSeed(1), dt=1e-3)

    def test_small_kdv_white_noise_run(self):
        spec = GaussianFieldSpec("white", 16, real_valued=True)
        eq = EquationSpec("gkdv", p=3, sign="plus")
        rep = invariance_experiment(spec, eq, 0.5, 500, RandomSeed(7), dt=4e-4)
        assert not rep.any_rejection
        assert rep.blowup_count == 0
        assert not rep.weighted

    def test_gibbs_run_reports_ess(self):
        base = GaussianFieldSpec("fwb", 8, alpha=1.0)
        gibbs = GibbsSpec(p=4, sign="defocusing", beta=1.0, base=base)
        eq = EquationSpec("wick_nls", sign="plus")
        rep = invariance_experiment(gibbs, eq, 0.2, 400, RandomSeed(9), dt=2e-3,
                                    ais_levels=40, ais_pcn_steps=2,
                                    bootstrap_reps=400)
        assert rep.weighted
        assert rep.ess_a > 80 and rep.ess_b > 80
        assert not rep.any_rejection

    @pytest.mark.parametrize("t_final", [0.0, 0.05])
    def test_sextic_gibbs_measure(self, t_final):
        # The AIS potential of |u|^6 needs M >= 6N + 1, whatever the flow's
        # degree: here a null run and a projected cubic flow.
        base = GaussianFieldSpec("fwb", 4, alpha=1.0)
        gibbs = GibbsSpec(p=6, sign="defocusing", beta=1.0, base=base)
        eq = EquationSpec("nls", p=4, sign="plus")
        rep = invariance_experiment(gibbs, eq if t_final else None, t_final, 200,
                                    RandomSeed(4), dt=1e-3, ais_levels=4,
                                    ais_pcn_steps=1, bootstrap_reps=50)
        assert rep.weighted and rep.observables
        assert rep.blowup_count == 0

    @pytest.mark.parametrize("preset, dt, message", [
        ("wick-nls-gibbs", 0.0, "dt must be > 0"),
        ("wick-nls-gibbs", 0.5, "strang guard"),
        ("kdv-white-noise", 0.05, "if_rk4 guard"),
        ("wick-nls-gibbs", None, "dt is required when evolving"),
    ])
    def test_bad_step_fails_before_drawing(self, preset, dt, message, monkeypatch):
        import gibbsflow.experiments as ex

        def refuse(*args, **kwargs):
            raise AssertionError("an ensemble was drawn before the step was checked")

        monkeypatch.setattr(ex, "sample_ensemble", refuse)
        monkeypatch.setattr(ex, "gibbs_ensemble", refuse)
        p = invariance_preset(preset, n_max=8)
        with pytest.raises(ValueError, match=message):
            invariance_experiment(p["measure"], p["eq"], 0.1, 400, RandomSeed(0), dt=dt)

    def test_missing_equation_fails_before_drawing(self, monkeypatch):
        import gibbsflow.experiments as ex

        def refuse(*args, **kwargs):
            raise AssertionError("an ensemble was drawn before the flow was checked")

        monkeypatch.setattr(ex, "sample_ensemble", refuse)
        spec = GaussianFieldSpec("fwb", 8, alpha=1.0)
        with pytest.raises(ValueError, match="an equation is required"):
            invariance_experiment(spec, None, 0.1, 400, RandomSeed(0), dt=1e-3)

    def test_deterministic_across_threads(self):
        base = GaussianFieldSpec("fwb", 8, alpha=1.0)
        gibbs = GibbsSpec(p=4, sign="defocusing", beta=1.0, base=base)
        eq = EquationSpec("wick_nls", sign="plus")
        kwargs = dict(dt=2e-3, ais_levels=20, ais_pcn_steps=1, bootstrap_reps=200)
        rep1 = invariance_experiment(gibbs, eq, 0.1, 400, RandomSeed(3),
                                     n_threads=1, **kwargs)
        rep8 = invariance_experiment(gibbs, eq, 0.1, 400, RandomSeed(3),
                                     n_threads=8, **kwargs)
        assert rep1 == rep8

    def test_calibration_uniformity(self):
        spec = GaussianFieldSpec("white", 8, real_valued=True)
        rep = calibration_uniformity(spec, 300, 40, RandomSeed(21))
        assert rep.passed
        assert rep.n_pvalues == 40 * len(
            [o for o in invariance_experiment(
                spec, None, 0.0, 300, RandomSeed(21)).observables]
        )

    @pytest.mark.parametrize("broken", ["b_variance_1.1", "b_equals_a"])
    def test_calibration_fails_a_broken_harness(self, broken, monkeypatch):
        # The randomized p-values must not buy calibration with power:
        # ensembles that differ, or that coincide, both fail the check.
        import gibbsflow.experiments as ex

        def sample_broken(spec, m, seed, lane_index=0):
            if broken == "b_equals_a":
                return sample_ensemble(spec, m, seed, 0)
            rows = sample_ensemble(spec, m, seed, lane_index)
            return rows * math.sqrt(1.1) if lane_index == 1 else rows

        monkeypatch.setattr(ex, "sample_ensemble", sample_broken)
        spec = GaussianFieldSpec("white", 8, real_valued=True)
        rep = calibration_uniformity(spec, 300, 40, RandomSeed(21))
        assert not rep.passed

    def test_every_observable_skipped(self):
        # Zero-band white noise is mean-zero: both ensembles are all zero,
        # so every panel observable is constant and equal, and skipped.
        spec = GaussianFieldSpec("white", 0)
        rep = invariance_experiment(spec, None, 0.0, 50, RandomSeed(0))
        assert rep.observables == ()
        assert rep.skipped_observables == tuple(
            observable_panel(0, False)[0])
        assert not rep.any_rejection and not rep.flagged

    def test_calibration_refuses_gibbs(self):
        gibbs = GibbsSpec(p=4, sign="defocusing", beta=1.0,
                          base=GaussianFieldSpec("fwb", 4, alpha=1.0))
        with pytest.raises(ValueError, match="Gaussian measure"):
            calibration_uniformity(gibbs, 300, 2, RandomSeed(0))


class TestCameronMartinExperiment:
    def test_negative_evolve_samples_rejected(self):
        base = GaussianFieldSpec("fwb", 4, alpha=1.0)
        with pytest.raises(ValueError, match="evolve_samples must be >= 0"):
            cameron_martin_experiment(zero_field(4), base, m_samples=100,
                                      seed=RandomSeed(2), evolve_samples=-3)

    def test_more_evolve_samples_than_samples_rejected(self):
        p = cm_preset("theorem-1", n_max=4)
        with pytest.raises(ValueError, match="<= m_samples = 100, got 500"):
            cameron_martin_experiment(p["v0"], p["base"], p["eq"], t_final=0.05,
                                      m_samples=100, seed=RandomSeed(2), dt=p["dt"],
                                      evolve_samples=500)

    @pytest.mark.parametrize("preset, dt, message", [
        ("theorem-1", 0.0, "dt must be > 0"),
        ("theorem-1", 0.5, "strang guard"),
        ("theorem-2", 0.05, "if_rk4 guard"),
        ("theorem-2", None, "dt is required when evolving"),
    ])
    def test_bad_step_fails_before_drawing(self, preset, dt, message, monkeypatch):
        import gibbsflow.experiments as ex

        def refuse(*args, **kwargs):
            raise AssertionError("a shift ensemble was drawn before the step was checked")

        monkeypatch.setattr(ex, "sample_matrix", refuse)
        p = cm_preset(preset, n_max=8)
        with pytest.raises(ValueError, match=message):
            cameron_martin_experiment(p["v0"], p["base"], p["eq"], t_final=0.1,
                                      m_samples=100, seed=RandomSeed(2), dt=dt,
                                      evolve_samples=4)

    def test_negative_t_fails_before_drawing(self, monkeypatch):
        # A negative horizon used to skip part (b) silently.
        import gibbsflow.experiments as ex

        def refuse(*args, **kwargs):
            raise AssertionError("a shift ensemble was drawn before t_final was checked")

        monkeypatch.setattr(ex, "sample_matrix", refuse)
        p = cm_preset("theorem-2", n_max=8)
        with pytest.raises(ValueError, match="t_final must be >= 0"):
            cameron_martin_experiment(p["v0"], p["base"], p["eq"], t_final=-0.01,
                                      m_samples=200, seed=RandomSeed(2), dt=p["dt"],
                                      evolve_samples=4)

    @pytest.mark.parametrize("flow, t_final", [(True, 0.0), (False, 0.1)])
    def test_evolve_samples_without_part_b_fail_before_drawing(self, flow, t_final,
                                                               monkeypatch):
        # Without a horizon or a flow part (b) does not run, so the report
        # would count evolve_samples rows that were never evolved.
        import gibbsflow.experiments as ex

        def refuse(*args, **kwargs):
            raise AssertionError("a shift ensemble was drawn before part (b) was checked")

        monkeypatch.setattr(ex, "sample_matrix", refuse)
        p = cm_preset("theorem-2", n_max=8)
        with pytest.raises(ValueError, match=r"evolve_samples must be 0 \(--evolve-samples 0\)"):
            cameron_martin_experiment(p["v0"], p["base"], p["eq"] if flow else None,
                                      t_final=t_final, m_samples=200, seed=RandomSeed(2),
                                      dt=p["dt"], evolve_samples=64)

    def test_gkdv_on_complex_base_fails_before_drawing(self, monkeypatch):
        import gibbsflow.experiments as ex

        def refuse(*args, **kwargs):
            raise AssertionError("a shift ensemble was drawn before the flow was checked")

        monkeypatch.setattr(ex, "sample_matrix", refuse)
        base = GaussianFieldSpec("fwb", 16, alpha=1.0)  # complex fields
        eq = EquationSpec("gkdv", p=3)
        with pytest.raises(ValueError, match="real_valued fields only"):
            cameron_martin_experiment(smooth_shift_field(16, 0.5), base, eq,
                                      t_final=0.01, m_samples=20000, seed=RandomSeed(2),
                                      dt=1e-4, evolve_samples=4)

    @pytest.mark.parametrize("v0, mean_zero, error, message", [
        (field_from_modes(9, {9: 0.1}), False, ValueError, "truncation mismatch"),
        (field_from_modes(8, {0: 0.1}), True, SingularShiftError, "zero base variance"),
    ])
    def test_bad_shift_fails_before_drawing(self, v0, mean_zero, error, message,
                                            monkeypatch):
        # The shift was once checked only in part (a)'s first chunk body,
        # after that chunk had drawn both its ensembles.
        import gibbsflow.experiments as ex
        draws = []

        def counting(*args, **kwargs):
            draws.append(args)
            return sample_matrix(*args, **kwargs)

        monkeypatch.setattr(ex, "sample_matrix", counting)
        base = GaussianFieldSpec("fwb", 8, alpha=1.0, mean_zero=mean_zero)
        with pytest.raises(error, match=message):
            cameron_martin_experiment(v0, base, m_samples=100, seed=RandomSeed(2))
        assert draws == []

    def test_traced_peak_below_one_ensemble(self):
        # Part (a) keeps per-row values only: its traced peak stays below
        # the bytes of one whole m x (2N+1) complex ensemble (19.8 MiB).
        p = cm_preset("theorem-1")
        m = 20000
        tracemalloc.start()
        try:
            cameron_martin_experiment(p["v0"], p["base"], m_samples=m,
                                      seed=RandomSeed(1), n_threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * (2 * 32 + 1) * 16

    def test_zero_shift_gives_unit_weights(self):
        base = GaussianFieldSpec("fwb", 8, alpha=1.0)
        rep = cameron_martin_experiment(zero_field(8), base, m_samples=2000,
                                        seed=RandomSeed(2))
        assert rep.weight_mean == 1.0
        assert rep.weight_mean_se == 0.0
        assert rep.shift_norm_sq == 0.0
        assert rep.identities_pass

    def test_identity_checks_pass(self):
        base = GaussianFieldSpec("fwb", 16, alpha=1.0)
        v0 = smooth_shift_field(16, 0.5)
        rep = cameron_martin_experiment(v0, base, m_samples=20000,
                                        seed=RandomSeed(3), v0_decay=3.0)
        assert rep.identities_pass
        assert rep.weight_mean_z <= 4.0
        assert rep.weight_second_moment_z <= 4.0
        assert rep.admissible_at_infinity is True
        assert all(c.passed for c in rep.functionals)

    def test_weight_residual_shrinks_like_sqrt_m(self):
        base = GaussianFieldSpec("fwb", 8, alpha=1.0)
        v0 = smooth_shift_field(8, 0.5)
        ses = []
        for m in (1000, 4000, 16000):
            rep = cameron_martin_experiment(v0, base, m_samples=m,
                                            seed=RandomSeed(4))
            assert rep.weight_mean_z <= 4.0
            ses.append(rep.weight_mean_se)
        for a, b in zip(ses, ses[1:]):
            assert 1.5 < a / b < 2.7  # expect 2.0 for 4x the samples

    def test_second_moment_uses_exact_null_se(self):
        # Under the null log w ~ N(-s/2, s), so Var(w^2) = e^{6s} - e^{2s}.
        base = GaussianFieldSpec("fwb", 8, alpha=1.0)
        rep = cameron_martin_experiment(smooth_shift_field(8, 0.5), base,
                                        m_samples=1000, seed=RandomSeed(4))
        s = rep.shift_norm_sq
        se = math.sqrt((math.exp(6 * s) - math.exp(2 * s)) / 1000)
        assert rep.weight_second_moment_expected == math.exp(s)
        assert rep.weight_second_moment_z == pytest.approx(
            abs(rep.weight_second_moment - math.exp(s)) / se, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 1])
    def test_needs_two_samples(self, m):
        base = GaussianFieldSpec("fwb", 4, alpha=1.0)
        with pytest.raises(ValueError, match="m_samples must be >= 2"):
            cameron_martin_experiment(smooth_shift_field(4, 0.5), base, m_samples=m)

    def test_evolution_part_records_proxies(self):
        p = cm_preset("theorem-3", n_max=16)
        rep = cameron_martin_experiment(
            p["v0"], p["base"], p["eq"], t_final=0.25, m_samples=500,
            seed=RandomSeed(5), dt=p["dt"], evolve_samples=16,
            v0_decay=p["v0_decay"],
        )
        assert rep.blowup_count == 0
        assert rep.max_mass_ratio < 1.5
        assert rep.nonlinear_part_l2_median is not None
        assert rep.nonlinear_part_l2_median > 0.0

    def test_theorem_2_preset_runs(self):
        p = cm_preset("theorem-2", n_max=16)
        rep = cameron_martin_experiment(
            p["v0"], p["base"], p["eq"], t_final=0.05, m_samples=500,
            seed=RandomSeed(6), dt=p["dt"], evolve_samples=8,
            v0_decay=p["v0_decay"],
        )
        assert rep.identities_pass
        assert rep.blowup_count == 0
        # gkdv runs have no linear-vs-nonlinear split recorded
        assert rep.nonlinear_part_l2_median is None


class TestRateInfimum:
    def test_center_containing_v0(self):
        v0 = field_from_modes(4, {1: 0.1})
        center = zero_field(4)
        res = ldp_rate_infimum(center, 1.0, 0.0, v0)
        assert res.value == 0.0
        assert_allclose(res.argmin.coeffs, v0.coeffs)

    def test_single_mode_closed_form(self):
        # One real coordinate: infimum is (|d| - r)^2 / 2 outside the ball.
        d, r = 2.0, 0.5
        v0 = zero_field(0, real_valued=True)
        center = field_from_modes(0, {0: d}, real_valued=True)
        res = ldp_rate_infimum(center, r, 0.0, v0)
        assert_allclose(res.value, 0.5 * (d - r) ** 2, rtol=1e-12)
        assert_allclose(abs(res.argmin.coeffs[0] - d), r, rtol=1e-10)

    def test_matches_slsqp_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            n = int(rng.integers(1, 5))
            v0 = TorusField(n, rng.standard_normal(2 * n + 1)
                            + 1j * rng.standard_normal(2 * n + 1))
            center = TorusField(n, rng.standard_normal(2 * n + 1)
                                + 1j * rng.standard_normal(2 * n + 1))
            s = float(rng.uniform(-1.0, 1.0))
            r = float(rng.uniform(0.2, 1.5))
            mine = ldp_rate_infimum(center, r, s, v0)
            oracle = slsqp_ball_minimum(center, r, s, v0)
            assert abs(mine.value - oracle) < 1e-8, trial
            assert mine.constraint_residual < 1e-10

    @pytest.mark.parametrize("d, r, s", [(2.0, 0.5, 0.0), (1.3, 1.2, -0.7),
                                         (-3.0, 0.25, 0.9)])
    def test_slsqp_oracle_single_mode_closed_form(self, d, r, s):
        # Checks the oracle alone: one real mode, centre at distance |d| > r
        # from v0 = 0, so the minimum is (|d| - r)^2 / 2 for every s.
        center = TorusField(0, np.array([d], dtype=np.complex128))
        v0 = TorusField(0, np.zeros(1, dtype=np.complex128))
        exact = 0.5 * (abs(d) - r) ** 2
        oracle = slsqp_ball_minimum(center, r, s, v0)
        # Evaluated at a feasible point, the oracle never undercuts the
        # minimum beyond rounding.
        assert exact - 1e-12 <= oracle < exact + 1e-8

    def test_certificate_feasibility(self):
        rng = np.random.default_rng(9)
        v0 = TorusField(3, rng.standard_normal(7) + 1j * rng.standard_normal(7))
        center = zero_field(3)
        res = ldp_rate_infimum(center, 0.3, 0.5, v0)
        n = np.arange(-3, 4, dtype=float)
        omega = (1.0 + n * n) ** 0.5
        dist_sq = float(np.sum(omega * np.abs(res.argmin.coeffs) ** 2))
        assert dist_sq <= 0.3 ** 2 + 1e-10
        half = 0.5 * float(np.sum(np.abs(res.argmin.coeffs - v0.coeffs) ** 2))
        assert abs(half - res.value) < 1e-10

    def test_pinned_modes_can_make_ball_unreachable(self):
        base = GaussianFieldSpec("white", 2, real_valued=True)
        v0 = zero_field(2, real_valued=True)
        center = field_from_modes(2, {0: 5.0}, real_valued=True)
        with pytest.raises(ValueError, match="unreachable"):
            ldp_rate_infimum(center, 0.5, 0.0, v0, base=base)


class TestLdpMc:
    def one_mode(self):
        base = GaussianFieldSpec("fwb", 0, alpha=1.0, real_valued=True)
        v0 = zero_field(0, real_valued=True)
        center = field_from_modes(0, {0: 1.0}, real_valued=True)
        return base, v0, center

    def test_matches_gaussian_tail_oracle(self):
        base, v0, center = self.one_mode()
        rep = ldp_mc(v0, base, center, 0.3, 0.0, (0.5, 0.35, 0.25),
                     200000, RandomSeed(11))
        assert_allclose(rep.oracle, -0.5 * (1.0 - 0.3) ** 2, rtol=1e-12)
        for pt in rep.points:
            exact = (sps.norm.cdf(1.3 / pt.epsilon)
                     - sps.norm.cdf(0.7 / pt.epsilon))
            assert pt.ci_lo <= exact <= pt.ci_hi
        assert rep.trend_ok

    def test_ball_containing_v0(self):
        base, v0, _ = self.one_mode()
        center = field_from_modes(0, {0: 0.1}, real_valued=True)
        rep = ldp_mc(v0, base, center, 0.5, 0.0, (0.5, 0.25), 20000,
                     RandomSeed(12))
        assert rep.oracle == 0.0
        for pt in rep.points:
            assert pt.p_hat > 0.5
        # eps^2 log p_hat climbs to 0 = -inf I
        assert rep.points[-1].eps2_log > rep.points[0].eps2_log

    def test_too_rare_flagging(self):
        base, v0, center = self.one_mode()
        rep = ldp_mc(v0, base, center, 0.3, 0.0, (0.5, 0.05), (5000, 5000),
                     RandomSeed(13))
        assert rep.points[-1].too_rare
        assert rep.points[-1].eps2_log == -math.inf

    def test_chunked_hits_match_sequential_paths(self):
        # 10000 samples per epsilon are chunks of 4096, 4096 and 1808; chunk
        # i of epsilon e draws from path (lane 10 + e, sample i) on any
        # number of threads, as the sequential loop below does.
        from gibbsflow.fields import sample_matrix
        from gibbsflow.rng import generator
        base, v0, center = self.one_mode()
        seed, eps_list = RandomSeed(15), (0.5, 0.35)
        expected = []
        for e_idx, eps in enumerate(eps_list):
            hits = 0
            for c_idx, size in enumerate((4096, 4096, 1808)):
                phi = sample_matrix(base, size, generator(seed, lane=10 + e_idx,
                                                          sample=c_idx))
                hits += int(np.sum(np.abs(eps * phi[:, 0] - 1.0) ** 2 <= 0.3 ** 2))
            expected.append(hits)
        for n_threads in (1, 2):
            rep = ldp_mc(v0, base, center, 0.3, 0.0, eps_list, 10000, seed,
                         n_threads=n_threads)
            assert [pt.hits for pt in rep.points] == expected

    def test_epsilons_must_decrease(self):
        base, v0, center = self.one_mode()
        with pytest.raises(ValueError, match="decreasing"):
            ldp_mc(v0, base, center, 0.3, 0.0, (0.25, 0.5), 1000, RandomSeed(0))

    def test_counts_must_match_epsilons(self):
        base, v0, center = self.one_mode()
        with pytest.raises(ValueError, match="m_per_eps must match"):
            ldp_mc(v0, base, center, 0.3, 0.0, (0.5, 0.25), (1000, 1000, 1000),
                   RandomSeed(0))

    def test_equal_epsilons_refused(self):
        # A repeated epsilon is not strictly decreasing.
        base, v0, center = self.one_mode()
        with pytest.raises(ValueError, match="strictly decreasing"):
            ldp_mc(v0, base, center, 0.3, 0.0, (0.5, 0.5), 1000, RandomSeed(0))

    def test_complex_mode_rate_doubles(self):
        # Complex coefficients carry two real coordinates, so the decay
        # rate for |eps c_1 - a| <= r doubles relative to one coordinate.
        base = GaussianFieldSpec("white", 1)
        v0 = zero_field(1)
        center = field_from_modes(1, {1: 1.0})
        rep = ldp_mc(v0, base, center, 0.3, 0.0, (0.6, 0.45, 0.35),
                     400000, RandomSeed(14))
        assert_allclose(rep.oracle, -((1.0 - 0.3) ** 2), rtol=1e-12)
        # MC check against the noncentral-chi-square closed form: the ball
        # constrains both complex modes (+-1), four real coordinates of
        # variance 1/2 with noncentrality from the mode-1 displacement.
        for pt in rep.points:
            lam = 2.0 * (1.0 / pt.epsilon) ** 2
            exact = sps.ncx2.cdf(2.0 * (0.3 / pt.epsilon) ** 2, 4, lam)
            assert pt.ci_lo <= exact <= pt.ci_hi
