"""Tests for the pseudospectral integrators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gibbsflow.fields import GaussianFieldSpec, sample, sample_ensemble
from gibbsflow.integrators import (
    _GEMM_BLOCK_MACS,
    MAX_STEPS,
    EquationSpec,
    SolverConfig,
    _batched_matmul,
    _step_plan,
    evolve,
    evolve_ensemble,
    gauge_check,
    hamiltonian,
    mass,
)
from gibbsflow.presets import cm_preset
from gibbsflow.rng import RandomSeed
from gibbsflow.spectral import TorusField, field_from_modes, grid_for, zero_field

from helpers import dense_quadrature_lp, fft_evolve


def smooth_complex_field(n_max=16, amp=0.5, seed=0):
    rng = np.random.default_rng(seed)
    n = np.arange(-n_max, n_max + 1)
    c = (rng.standard_normal(2 * n_max + 1)
         + 1j * rng.standard_normal(2 * n_max + 1)) * amp * np.exp(-np.abs(n) / 2.0)
    return TorusField(n_max, c)


class TestEquationSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown family"):
            EquationSpec("heat")
        with pytest.raises(ValueError, match="cubic by definition"):
            EquationSpec("wick_nls", p=6)
        with pytest.raises(ValueError, match="sign"):
            EquationSpec("nls", sign="up")

    def test_gkdv_needs_real(self):
        eq = EquationSpec("gkdv", p=3)
        f = field_from_modes(4, {1: 1.0})
        with pytest.raises(ValueError, match="real_valued"):
            evolve(f, eq, SolverConfig(dt=1e-3, t_final=0.1))


class TestPlaneWaves:
    # Single-mode data reduces the flows to scalar ODEs with closed-form
    # phases: the classic solver oracle.

    @pytest.mark.parametrize("sign,s", [("plus", 1.0), ("minus", -1.0)])
    def test_cubic_nls_plane_wave(self, sign, s):
        amp = 0.7
        f = field_from_modes(1, {1: amp})
        eq = EquationSpec("nls", p=4, sign=sign)
        traj = evolve(f, eq, SolverConfig(dt=1e-3, t_final=1.0))
        exact = amp * np.exp(1j * (1.0 + s * amp ** 2))
        got = traj.fields[-1]
        assert abs(got.coeffs[got.n_max + 1] - exact) < 1e-10

    def test_wick_flips_nonlinear_phase(self):
        # avg|u|^2 = A^2 for a single mode, so the cubic term becomes
        # u (A^2 - 2A^2) = -A^2 u.
        amp = 0.7
        f = field_from_modes(1, {1: amp})
        eq = EquationSpec("wick_nls", sign="plus")
        traj = evolve(f, eq, SolverConfig(dt=1e-3, t_final=1.0))
        exact = amp * np.exp(1j * (1.0 - amp ** 2))
        got = traj.fields[-1]
        assert abs(got.coeffs[got.n_max + 1] - exact) < 1e-10

    def test_zero_data_stays_zero(self):
        for fam, real in (("nls", False), ("wick_nls", False), ("gkdv", True)):
            f = zero_field(4, real_valued=real)
            traj = evolve(f, EquationSpec(fam, p=4 if fam != "gkdv" else 3),
                          SolverConfig(dt=1e-3, t_final=0.2))
            assert np.all(traj.fields[-1].coeffs == 0.0)
            assert not traj.blowup


class TestConservation:
    def test_mass_and_energy_drift_smooth_runs(self):
        u0 = smooth_complex_field(16, amp=0.5)
        kdv0 = field_from_modes(
            16, {1: 0.5, -1: 0.5, 2: 0.25, -2: 0.25}, real_valued=True)
        cases = [
            (EquationSpec("nls", p=4, sign="plus"), u0, 2e-4),
            (EquationSpec("wick_nls", sign="plus"), u0, 2e-4),
            (EquationSpec("gkdv", p=3, sign="plus"), kdv0, 1e-4),
        ]
        for eq, f, dt in cases:
            traj = evolve(f, eq, SolverConfig(dt=dt, t_final=1.0, record_every=500))
            m0, h0 = traj.mass_series[0], traj.hamiltonian_series[0]
            assert np.max(np.abs(traj.mass_series - m0)) / m0 < 1e-8, eq.family
            assert np.max(np.abs(traj.hamiltonian_series - h0)) / abs(h0) < 1e-6, eq.family

    def test_kdv_cosine_energy_value(self):
        # u = cos x: (1/2) int u_x^2 = pi/2 and int u^3 = 0 (odd), both
        # confirmed against the dense quadrature oracle.
        f = field_from_modes(2, {1: 0.5, -1: 0.5}, real_valued=True)
        eq = EquationSpec("gkdv", p=3, sign="plus")
        fx_sq = dense_quadrature_lp(field_from_modes(2, {1: 0.5j, -1: -0.5j},
                                                     real_valued=True), 2)
        assert_allclose(fx_sq / 2.0, np.pi / 2.0, rtol=1e-12)
        assert_allclose(hamiltonian(f, eq), np.pi / 2.0, rtol=1e-12)
        eq_minus = EquationSpec("gkdv", p=3, sign="minus")
        assert_allclose(hamiltonian(f, eq_minus), np.pi / 2.0, rtol=1e-12)

    def test_nls_single_mode_energy(self):
        # (1/2) int |u_x|^2 = pi and (1/p) int |u|^4 = (1/4) 2 pi.
        f = field_from_modes(1, {1: 1.0})
        eq = EquationSpec("nls", p=4, sign="plus")
        oracle = dense_quadrature_lp(f, 4)
        assert_allclose(hamiltonian(f, eq),
                        np.pi + oracle / 4.0, rtol=1e-12)

    def test_gkdv_mean_exactly_constant(self):
        f = field_from_modes(8, {0: 0.3, 1: 0.25, -1: 0.25}, real_valued=True)
        eq = EquationSpec("gkdv", p=3, sign="plus", galerkin_projected=True)
        traj = evolve(f, eq, SolverConfig(dt=1e-3, t_final=1.0, record_every=100))
        for snap in traj.fields:
            assert snap.coeffs[snap.n_max] == 0.3

    def test_gkdv_records_conjugate_symmetric_fields(self):
        # Real fields are recorded as exactly conjugate-symmetric rows.
        for spec in (GaussianFieldSpec("white", 16, real_valued=True),
                     GaussianFieldSpec("fwb", 16, alpha=1.0, real_valued=True)):
            f = sample(spec, RandomSeed(4))
            eq = EquationSpec("gkdv", p=3, sign="plus", galerkin_projected=True)
            traj = evolve(f, eq, SolverConfig(dt=1e-3, t_final=0.01, record_every=2))
            assert len(traj.fields) == 6
            for snap in traj.fields:
                c = snap.coeffs
                assert np.array_equal(c, np.conj(c[::-1]))

    def test_galerkin_mass_exact_per_step(self):
        spec = GaussianFieldSpec("white", 16, real_valued=True)
        f = sample(spec, RandomSeed(2))
        eq = EquationSpec("gkdv", p=3, sign="plus", galerkin_projected=True)
        traj = evolve(f, eq, SolverConfig(dt=1e-4, t_final=0.002, record_every=1))
        m0 = traj.mass_series[0]
        assert np.max(np.abs(traj.mass_series - m0)) / m0 < 1e-13

        u0 = sample(GaussianFieldSpec("fwb", 16, alpha=1.0), RandomSeed(3))
        eqw = EquationSpec("wick_nls", sign="plus", galerkin_projected=True)
        trajw = evolve(u0, eqw, SolverConfig(dt=2e-3, t_final=0.02, record_every=1))
        m0 = trajw.mass_series[0]
        assert np.max(np.abs(trajw.mass_series - m0)) / m0 < 1e-13

    @pytest.mark.parametrize("preset, t_final", [
        ("theorem-1", 0.25), ("theorem-2", 0.25), ("theorem-3", 0.5)])
    def test_projected_mass_does_not_drift(self, preset, t_final):
        # 64 shifted rows at N=32, the shift-theorems horizons: each step is
        # projected onto the row's mass at the start, not a re-measured one.
        p = cm_preset(preset)
        base = p["base"]
        rows = sample_ensemble(base, 64, RandomSeed(21)) + p["v0"].coeffs
        res = evolve_ensemble(rows, p["eq"], SolverConfig(dt=p["dt"], t_final=t_final))
        assert not np.any(res.blowup)
        ratio = np.sum(np.abs(res.coeffs) ** 2, axis=1) / np.sum(np.abs(rows) ** 2, axis=1)
        assert np.max(np.abs(ratio - 1.0)) <= 5e-15

    def test_mass_formula(self):
        f = field_from_modes(3, {1: 2.0, -2: 1.0})
        assert_allclose(mass(f), 2 * np.pi * 5.0, rtol=1e-14)


class TestAccuracy:
    def test_kdv_self_convergence_order_four(self):
        f = field_from_modes(16, {1: 1.0, -1: 1.0}, real_valued=True)
        eq = EquationSpec("gkdv", p=3, sign="plus", galerkin_projected=True)

        def final(dt):
            traj = evolve(f, eq, SolverConfig(dt=dt, t_final=1.0))
            return traj.fields[-1].coeffs

        ref = final(1e-3 / 16.0)
        errs = [np.max(np.abs(final(dt) - ref)) for dt in (1e-3, 5e-4)]
        order = np.log2(errs[0] / errs[1])
        assert order >= 3.8, (errs, order)

    def test_kdv_spectral_in_n(self):
        eq = EquationSpec("gkdv", p=3, sign="plus", galerkin_projected=True)
        outs = {}
        for n in (8, 16, 32):
            f = field_from_modes(n, {1: 0.75, -1: 0.75}, real_valued=True)
            traj = evolve(f, eq, SolverConfig(dt=1e-4, t_final=0.5))
            outs[n] = np.pad(traj.fields[-1].coeffs, 32 - n)
        e8 = np.max(np.abs(outs[8] - outs[32]))
        e16 = np.max(np.abs(outs[16] - outs[32]))
        assert e8 / max(e16, 1e-300) > 1e3

    def test_time_reversibility(self):
        u0 = smooth_complex_field(16, amp=0.5, seed=4)
        eq = EquationSpec("wick_nls", sign="plus")
        fwd = evolve(u0, eq, SolverConfig(dt=1e-3, t_final=1.0))
        back = evolve(fwd.fields[-1], eq, SolverConfig(dt=1e-3, t_final=-1.0))
        k = back.fields[-1].n_max
        emb = np.zeros(2 * k + 1, dtype=complex)
        emb[k - 16: k + 17] = u0.coeffs
        assert np.max(np.abs(back.fields[-1].coeffs - emb)) < 1e-6


class TestGaugeLink:
    def test_plane_wave_exact(self):
        f = field_from_modes(1, {1: 0.8})
        rep = gauge_check(f, 1.0, SolverConfig(dt=1e-3, t_final=1.0))
        assert rep.modulus_discrepancy < 1e-10
        assert rep.phase_residual < 1e-9
        assert_allclose(rep.gamma, -2 * 0.64, rtol=1e-12)

    def test_random_smooth_data(self):
        u0 = smooth_complex_field(16, amp=0.4, seed=5)
        rep = gauge_check(u0, 1.0, SolverConfig(dt=1e-3, t_final=1.0))
        assert rep.modulus_discrepancy < 1e-6
        assert rep.phase_residual < 1e-6
        assert not rep.blowup

    def test_wick_mean_is_the_initial_mass(self):
        # Criterion 7's data: with the Wick mean 2 m taken from the initial
        # mass, the Wick flow is the gauge-transformed cubic flow to roundoff.
        rep = gauge_check(smooth_complex_field(16, amp=0.5), 1.0,
                          SolverConfig(dt=1e-4, t_final=1.0))
        assert rep.phase_residual <= 1e-12

    def test_step_count_overflow_is_refused(self):
        with pytest.raises(ValueError, match="exceeds the limit"):
            gauge_check(field_from_modes(2, {1: 0.5}), 1e308,
                        SolverConfig(dt=1e-308, t_final=1.0))

    def test_zero_data_identical_flows(self):
        rep = gauge_check(zero_field(4), 0.5, SolverConfig(dt=1e-3, t_final=0.5))
        assert rep.gamma == 0.0
        assert rep.modulus_discrepancy == 0.0
        assert rep.phase_residual == 0.0


class TestBlowupHandling:
    def test_unstable_run_is_flagged_not_raised(self):
        big = field_from_modes(16, {1: 40.0, -1: 40.0, 2: 30.0, -2: 30.0},
                               real_valued=True)
        eq = EquationSpec("gkdv", p=5, sign="minus", galerkin_projected=True)
        traj = evolve(big, eq, SolverConfig(dt=1e-3, t_final=1.0))
        assert traj.blowup
        assert traj.last_valid_time < 1.0
        assert np.all(np.isfinite(traj.fields[-1].coeffs))

    def test_ensemble_isolates_blown_rows(self):
        good = field_from_modes(16, {1: 0.5, -1: 0.5}, real_valued=True).coeffs
        bad = field_from_modes(16, {1: 45.0, -1: 45.0, 2: 31.0, -2: 31.0},
                               real_valued=True).coeffs
        batch = np.stack([good, bad])
        eq = EquationSpec("gkdv", p=5, sign="minus", galerkin_projected=True)
        res = evolve_ensemble(batch, eq, SolverConfig(dt=1e-3, t_final=0.5))
        assert list(res.blowup) == [False, True]
        assert np.all(np.isfinite(res.coeffs))

    def test_blown_row_keeps_its_last_valid_state(self):
        good = field_from_modes(16, {1: 0.5, -1: 0.5}, real_valued=True).coeffs
        bad = field_from_modes(16, {1: 45.0, -1: 45.0, 2: 31.0, -2: 31.0},
                               real_valued=True).coeffs
        eq = EquationSpec("gkdv", p=5, sign="minus", galerkin_projected=True)
        seen = {}

        def on_record(_rows, t, full, _active):
            seen[t] = full.copy()

        res = evolve_ensemble(np.stack([good, bad]), eq,
                              SolverConfig(dt=1e-3, t_final=0.5, record_every=1),
                              on_record=on_record)
        assert res.blowup[1] and res.last_valid_time[1] < 0.5
        assert np.array_equal(res.coeffs[1], seen[res.last_valid_time[1]][1])
        assert np.array_equal(res.coeffs[0], seen[max(seen)][0])

    # case: (sha256 of the (coeffs, blowup, last_valid_time) bytes, blown
    # rows, their last valid steps), at any thread count; healthy steps and
    # the row-by-row redo of unhealthy ones must both leave them as they are.
    # The digests were renewed, and the rows and steps kept, when the mass
    # target became each row's mass at the start of its chunk.
    PINNED = {
        "_staggered_gkdv": ("9d415ff8643ca2350ed7bf9dc42ad7078aaca05e93261ad800b6f81395cf8285",
                            [40, 300, 511, 520, 900, 1023], [2, 16, 5, 2, 13, 5]),
        "_bad_input_wick": ("fdbb600c0c8be0dd5318a1bc86a8be0594fd283c6ec34f749f1e4dc6614f1302",
                            [100, 550], [0, 0]),
    }

    def _staggered_gkdv(self):
        # 1024 rows: two 512-row chunks, each with rows that blow up at
        # different steps among rows that do not, two of them upside down.
        spec = GaussianFieldSpec("fwb", 16, alpha=1.0, real_valued=True)
        rows = 0.3 * sample_ensemble(spec, 1024, RandomSeed(13))
        bad = field_from_modes(16, {1: 1.0, -1: 1.0, 2: 0.7, -2: 0.7},
                               real_valued=True).coeffs
        for row, amp in ((40, 2.15), (300, -2.0), (511, 1.95),
                         (520, 2.2), (900, -2.1), (1023, 1.95)):
            rows[row] = amp * bad
        eq = EquationSpec("gkdv", p=5, sign="minus", galerkin_projected=True)
        return rows, 16, eq, SolverConfig(dt=1e-3, t_final=0.05), True

    def _bad_input_wick(self):
        # A NaN input row in the first chunk, an inf input row in the second.
        rows = sample_ensemble(GaussianFieldSpec("fwb", 8, alpha=1.0), 600, RandomSeed(14))
        rows[100, 3] = np.nan
        rows[550, 9] = np.inf
        eq = EquationSpec("wick_nls", p=4, sign="plus", galerkin_projected=True)
        return rows, 8, eq, SolverConfig(dt=1e-3, t_final=0.05), False

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_blowup_bits_pinned(self, case):
        import hashlib
        digest, blown, steps = self.PINNED[case]
        rows, n_max, eq, cfg, real = getattr(self, case)()
        for n_threads in (1, 2):
            res = evolve_ensemble(rows, eq, cfg, n_threads=n_threads)
            assert np.flatnonzero(res.blowup).tolist() == blown
            assert res.last_valid_time[blown].tolist() == [
                s * res.dt_effective for s in steps]
            got = hashlib.sha256(b"".join(getattr(res, name).tobytes() for name in
                                          ("coeffs", "blowup", "last_valid_time")))
            assert got.hexdigest() == digest, n_threads

    def test_per_row_steps_only_where_a_row_blows_up(self, monkeypatch):
        # A blown row is parked and zeroed, so a chunk redoes a step row by
        # row only where a new row blows up, not at every later step.
        from gibbsflow import integrators
        counts = []
        bind = integrators._KdvStepper.bind

        def counting_bind(stepper, a, b, work):
            step, chunk = bind(stepper, a, b, work), len(counts)
            counts.append(0)

            def counted(c, out, per_row=False):
                counts[chunk] += per_row
                return step(c, out, per_row)

            return counted

        monkeypatch.setattr(integrators._KdvStepper, "bind", counting_bind)
        rows, n_max, eq, cfg, real = self._staggered_gkdv()
        res = evolve_ensemble(rows, eq, cfg, n_threads=1)
        halves = np.split(res.last_valid_time[res.blowup], [3])
        assert np.flatnonzero(res.blowup).tolist() == self.PINNED["_staggered_gkdv"][1]
        assert counts == [len(set(h)) for h in halves] == [3, 3]

    @pytest.mark.parametrize("family", ["gkdv", "nls"])
    def test_zero_row_stays_zero(self, family):
        # A zero row takes the mass projection's zero-row branch: it stays
        # zero, and the other rows get the bits they get next to a live row.
        real = family == "gkdv"
        spec = GaussianFieldSpec("fwb", 16, alpha=1.0, real_valued=real)
        rows = 0.5 * sample_ensemble(spec, 40, RandomSeed(15))
        eq = EquationSpec(family, p=3 if real else 4, sign="plus", galerkin_projected=True)
        cfg = SolverConfig(dt=1e-3, t_final=0.02)
        live = evolve_ensemble(rows, eq, cfg)
        rows[7] = 0.0
        res = evolve_ensemble(rows, eq, cfg)
        assert not np.any(res.coeffs[7]) and not np.any(res.blowup)
        others = np.arange(len(rows)) != 7
        assert np.array_equal(res.coeffs[others], live.coeffs[others])


class TestGuards:
    def test_strang_step_guard(self):
        f = smooth_complex_field(32)
        eq = EquationSpec("nls", p=4, sign="plus", galerkin_projected=True)
        with pytest.raises(ValueError, match="strang guard"):
            evolve(f, eq, SolverConfig(dt=2e-3, t_final=0.1))

    @pytest.mark.parametrize("dt, t_final", [(1e-308, 1e308), (1e-300, 1.0)])
    def test_step_plan_refuses_unrunnable_step_count(self, dt, t_final):
        # The first quotient overflows to inf; the second asks for 1e300 steps.
        eq = EquationSpec("nls", p=4, galerkin_projected=True)
        with pytest.raises(ValueError, match="steps exceeds the limit"):
            _step_plan(4, eq, SolverConfig(dt=dt, t_final=t_final))

    def test_step_plan_accepts_the_step_limit(self):
        eq = EquationSpec("nls", p=4, galerkin_projected=True)
        cfg = SolverConfig(dt=2.0 ** -10, t_final=2.0 ** -10 * MAX_STEPS)  # exact
        assert _step_plan(4, eq, cfg)[2] == MAX_STEPS

    def test_airy_step_guard(self):
        f = field_from_modes(32, {1: 0.5, -1: 0.5}, real_valued=True)
        eq = EquationSpec("gkdv", p=3, sign="plus", galerkin_projected=True)
        with pytest.raises(ValueError, match="if_rk4 guard"):
            evolve(f, eq, SolverConfig(dt=1e-3, t_final=0.1))


class TestGridIndependence:
    def test_galerkin_kdv_agrees_on_any_alias_free_grid(self):
        # Projected KdV's quadratic nonlinearity is dealiased exactly on the
        # rule's M = 100 and on M = 128 alike; only roundoff may differ.
        rows = sample_ensemble(GaussianFieldSpec("white", 32, real_valued=True),
                               8, RandomSeed(5))
        eq = EquationSpec("gkdv", p=3, sign="plus", galerkin_projected=True)
        assert grid_for(32, 3) == 100
        a = evolve_ensemble(rows, eq, SolverConfig(dt=1e-4, t_final=0.02)).coeffs
        b = fft_evolve(rows, 32, eq, 128, 1e-4, 200, real_valued=True)
        assert_allclose(a, b, rtol=0, atol=1e-13 * np.max(np.abs(b)))


class TestMatrixSteppers:
    """The GEMM steppers against the FFT round-trip reference steppers of
    ``helpers``: roundoff apart after one step and after 1000."""

    # (equation, initial measure, amplitude, dt); the last case is an
    # unprojected run on the capacity band with the phase |u|^4.
    CASES = {
        "gkdv-p3": (EquationSpec("gkdv", p=3, sign="plus", galerkin_projected=True),
                    GaussianFieldSpec("white", 32, real_valued=True), 0.5, 1e-4),
        "gkdv-p5": (EquationSpec("gkdv", p=5, sign="minus", galerkin_projected=True),
                    GaussianFieldSpec("fwb", 16, alpha=1.0, real_valued=True), 0.5, 1e-3),
        "nls": (EquationSpec("nls", p=4, sign="plus", galerkin_projected=True),
                GaussianFieldSpec("fwb", 32, alpha=1.0), 1.0, 2.0 ** -11),
        "wick": (EquationSpec("wick_nls", p=4, sign="plus", galerkin_projected=True),
                 GaussianFieldSpec("fwb", 16, alpha=1.0), 1.0, 2e-3),
        "nls-p6-unprojected": (EquationSpec("nls", p=6, sign="minus"),
                               GaussianFieldSpec("fwb", 8, alpha=1.0), 0.5, 1e-3),
    }

    @pytest.mark.parametrize("steps,tol", [(1, 1e-14), (1000, 1e-11)])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_fft_reference(self, name, steps, tol):
        eq, spec, amp, dt = self.CASES[name]
        rows = amp * sample_ensemble(spec, 16, RandomSeed(3))
        cfg = SolverConfig(dt=dt, t_final=steps * dt)
        got = evolve_ensemble(rows, eq, cfg)
        want = fft_evolve(rows, spec.n_max, eq, grid_for(spec.n_max, eq.p), dt, steps,
                          spec.real_valued)
        assert not np.any(got.blowup)
        assert_allclose(got.coeffs, want, rtol=0, atol=tol * np.max(np.abs(want)))


class TestBatchedMatmul:
    """The steppers' blocked product against a plain ``np.matmul``, on the
    (K x N) transform shapes of the benchmark workloads: real KdV at N=32
    and complex Schroedinger at N=32 and N=16."""

    SHAPES = [((66, 100), np.float64), ((100, 66), np.float64),
              ((65, 135), np.complex128), ((33, 72), np.complex128)]

    @staticmethod
    def _draw(rng, shape, dtype):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if dtype is np.complex128 else z

    @pytest.mark.parametrize("shape,dtype", SHAPES)
    def test_matches_matmul_in_bound_buffers(self, shape, dtype):
        k, n = shape
        block = max(1, _GEMM_BLOCK_MACS // (k * n))
        rng = np.random.default_rng(0)
        m = self._draw(rng, shape, dtype)
        for rows in sorted({1, block - 1, block, block + 1, 3 * block + 7, 512} - {0}):
            # Real products run on float views of complex buffers, as the
            # KdV stepper's do; the result must land in the caller's buffer.
            if dtype is np.float64:
                x_own = np.empty((rows, k // 2), dtype=np.complex128)
                out_own = np.zeros((rows, n // 2), dtype=np.complex128)
                x, out = x_own.view(np.float64), out_own.view(np.float64)
            else:
                x_own = x = np.empty((rows, k), dtype=dtype)
                out_own = out = np.zeros((rows, n), dtype=dtype)
            product = _batched_matmul(x, out)
            split = rows - rows % block
            for _ in range(2):  # refilled after binding: no copy of x was taken
                x[...] = self._draw(rng, (rows, k), dtype)
                product(m)
                ref = np.matmul(x, m)
                got = out_own.view(out.dtype)
                assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
                # The split is B-row blocks plus the remainder, B from the
                # shape alone: the same bits as that plan issued by hand.
                plan = [np.matmul(x[split:], m)]
                if split:
                    plan.insert(0, np.matmul(x[:split].reshape(-1, block, k), m)
                                .reshape(split, n))
                assert np.array_equal(got, np.concatenate(plan)), rows


class TestChunkedEngine:
    """600 rows run as the fixed 512-row chunks [0, 512) and [512, 600);
    row 550, in the last chunk, blows up."""

    BLOWN = 550

    def _gkdv(self):
        spec = GaussianFieldSpec("fwb", 16, alpha=1.0, real_valued=True)
        rows = 0.3 * sample_ensemble(spec, 600, RandomSeed(11))
        rows[self.BLOWN] = field_from_modes(16, {1: 2.0, -1: 2.0, 2: 1.4, -2: 1.4},
                                            real_valued=True).coeffs
        eq = EquationSpec("gkdv", p=5, sign="minus", galerkin_projected=True)
        return rows, 16, eq, SolverConfig(dt=1e-3, t_final=0.05), True

    def _wick(self):
        rows = sample_ensemble(GaussianFieldSpec("fwb", 8, alpha=1.0), 600, RandomSeed(12))
        rows[self.BLOWN, 9] = 1e7  # |u|^2 above the 1e12 blowup threshold
        eq = EquationSpec("wick_nls", p=4, sign="plus", galerkin_projected=True)
        return rows, 8, eq, SolverConfig(dt=1e-3, t_final=0.05), False

    @pytest.mark.parametrize("case", ["_gkdv", "_wick"])
    def test_threads_and_chunk_slices_agree(self, case):
        rows, n_max, eq, cfg, real = getattr(self, case)()
        one, two = (evolve_ensemble(rows, eq, cfg, n_threads=n) for n in (1, 2))
        parts = [evolve_ensemble(rows[a:b], eq, cfg)
                 for a, b in ((0, 512), (512, 600))]
        reference = [np.concatenate([getattr(p, name) for p in parts])
                     for name in ("coeffs", "blowup", "last_valid_time")]
        for res in (one, two):
            for name, ref in zip(("coeffs", "blowup", "last_valid_time"), reference):
                assert np.array_equal(getattr(res, name), ref), name
        assert np.flatnonzero(one.blowup).tolist() == [self.BLOWN]
        assert 0.0 <= one.last_valid_time[self.BLOWN] < cfg.t_final

    @pytest.mark.parametrize("family, real", [("gkdv", True), ("nls", False)])
    def test_empty_batch(self, family, real):
        eq = EquationSpec(family, p=4, galerkin_projected=True)
        cfg = SolverConfig(dt=1e-3, t_final=0.01)
        res = evolve_ensemble(np.zeros((0, 17), dtype=np.complex128), eq, cfg)
        assert res.coeffs.shape == (0, 2 * _step_plan(8, eq, cfg)[1] + 1)
        assert res.blowup.shape == res.last_valid_time.shape == (0,)
        assert res.blowup.dtype == bool

    def test_on_record_sees_its_chunk(self):
        rows, n_max, eq, cfg, real = self._wick()
        seen = []

        def on_record(chunk_rows, t, full, active):
            if t == 0.0:
                seen.append((chunk_rows.start, chunk_rows.stop,
                             full.shape[0], active.size))

        evolve_ensemble(rows, eq, cfg, on_record=on_record, n_threads=2)
        assert sorted(seen) == [(0, 512, 512, 512), (512, 600, 88, 88)]

    def test_blas_threads_do_not_move_bits(self):
        # A child with OpenBLAS held to one thread and a child left to its
        # default thread count must evolve the same bytes.  The gkdv chunks
        # multiply blocks of (217 x 34) by (34 x 81) matrices, large enough
        # for OpenBLAS to split a product over its threads.
        import hashlib
        import os
        import subprocess
        import sys
        script = (
            "import hashlib, sys\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "from test_integrators import TestChunkedEngine\n"
            "from gibbsflow.integrators import evolve_ensemble\n"
            "case = TestChunkedEngine()\n"
            "for name in ('_gkdv', '_wick'):\n"
            "    rows, n_max, eq, cfg, real = getattr(case, name)()\n"
            "    res = evolve_ensemble(rows, eq, cfg, n_threads=2)\n"
            "    print(hashlib.sha256(res.coeffs.tobytes()).hexdigest())\n"
        )
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        digests = [subprocess.run([sys.executable, "-c", script, here, src],
                                  env=e, capture_output=True, text=True, check=True,
                                  timeout=300).stdout
                   for e in (env, dict(env, OPENBLAS_NUM_THREADS="1"))]
        assert digests[0] == digests[1] and len(digests[0].split()) == 2
        rows, n_max, eq, cfg, real = self._gkdv()
        here_digest = hashlib.sha256(
            evolve_ensemble(rows, eq, cfg).coeffs.tobytes()).hexdigest()
        assert digests[0].split()[0] == here_digest

    def test_cameron_martin_evolution_thread_invariant(self):
        # 700 evolved rows: two chunks, so two threads run them at once.
        from gibbsflow.experiments import cameron_martin_experiment
        from gibbsflow.presets import cm_preset
        p = cm_preset("theorem-1", n_max=8)
        reps = [cameron_martin_experiment(
            p["v0"], p["base"], p["eq"], t_final=0.05, m_samples=800,
            seed=RandomSeed(8), dt=p["dt"], evolve_samples=700, n_threads=n)
            for n in (1, 2)]
        assert reps[0].max_mass_ratio == reps[1].max_mass_ratio
        assert reps[0].global_proxy_fraction == reps[1].global_proxy_fraction == 1.0
