"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; seeds are fixed so each run is a
deterministic re-execution of the calibrated experiments.  Run with
``pytest tests/test_acceptance.py -s`` to watch the criterion lines; the
statistical runs (criteria 5 and 6) take a few minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from gibbsflow.experiments import (
    calibration_uniformity,
    cameron_martin_experiment,
    invariance_experiment,
    ldp_mc,
    ldp_rate_infimum,
)
from gibbsflow.fields import GaussianFieldSpec
from gibbsflow.integrators import (
    EquationSpec,
    SolverConfig,
    evolve,
    gauge_check,
)
from gibbsflow.measures import (
    covariance_eigenvalues,
    entropy_check_finite_dim,
    feldman_hajek_statistic,
    hellinger_mode,
    kakutani_power_law,
)
from gibbsflow.presets import invariance_preset, smooth_shift_field
from gibbsflow.rng import RandomSeed
from gibbsflow.serialize import canonical_dumps, to_jsonable
from gibbsflow.spectral import TorusField, field_from_modes, zero_field

SEED = RandomSeed(2026)


def gate(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number:2d}] {status}  {description}  {detail}", flush=True)
    assert ok, f"criterion {number}: {description} -- {detail}"


def test_criterion_1_kakutani_dichotomy():
    t0 = time.monotonic()
    verdicts = {a: kakutani_power_law(1.0, a, n_max=100_000).verdict
                for a in (1.0, 1.4, 1.8, 2.5)}
    elapsed = time.monotonic() - t0
    ok = (verdicts[1.0] == "singular" and verdicts[1.4] == "singular"
          and verdicts[1.8] == "equivalent" and verdicts[2.5] == "equivalent"
          and elapsed < 1.0)
    gate(1, "free-field shift dichotomy at N=1e5",
         ok, f"verdicts={verdicts} elapsed={elapsed:.2f}s")


def test_criterion_2_hellinger_values():
    equal_mag = hellinger_mode(1.0 + 0.0j, 0.0 + 1.0j)
    value_ok = abs(equal_mag - math.exp(-0.125)) < 1e-15

    rng = np.random.default_rng(2)
    identity_ok = True
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 25))
        phase = np.exp(2j * np.pi * rng.random(k))
        u = (0.2 + np.abs(rng.standard_normal(k))) * phase
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        lhs = -8.0 * sum(math.log(hellinger_mode(a, b)) for a, b in zip(u, v))
        rhs = float(np.sum(np.abs(v) ** 2 / np.abs(u) ** 2))
        rel = abs(lhs - rhs) / max(rhs, 1e-300)
        worst = max(worst, rel)
        identity_ok &= rel < 1e-12
    gate(2, "per-mode overlap e^{-1/8} and product-sum identity",
         value_ok and identity_ok, f"worst rel={worst:.2e}")


def test_criterion_3_feldman_hajek():
    ok = True
    details = []
    for beta, gamma in [(1.0, 2.0), (0.5, 0.7), (3.0, 0.2), (1.0, 1.0),
                        (2.5, 2.5)]:
        verdict = feldman_hajek_statistic(beta, gamma, s=0.4, n_max=4096)
        ok &= (verdict.verdict == "equivalent") == (beta == gamma)
        term = ((gamma - beta) / (gamma + beta)) ** 2
        for n_chk, total in zip(verdict.partial_ns, verdict.partial_sums):
            closed = 2.0 * n_chk * term
            if closed > 0:
                ok &= abs(total - closed) <= 1e-12 * closed
            n = np.arange(1, n_chk + 1)
            lb = covariance_eigenvalues(beta, 0.4, n)
            lg = covariance_eigenvalues(gamma, 0.4, n)
            brute = 2.0 * float(np.sum(((lb - lg) / (lb + lg)) ** 2))
            ok &= abs(total - brute) <= 1e-12 * max(brute, 1e-300)
        details.append(f"({beta},{gamma})->{verdict.verdict}")
    gate(3, "scaled-Gaussian dichotomy with exact partial sums",
         ok, " ".join(details))


def test_criterion_4_cameron_martin_identity():
    t0 = time.monotonic()
    base = GaussianFieldSpec("fwb", 16, alpha=1.0)
    v0 = smooth_shift_field(16, 0.5)
    rep = cameron_martin_experiment(v0, base, m_samples=20000, seed=SEED,
                                    v0_decay=3.0)
    elapsed = time.monotonic() - t0
    ok = (rep.weight_mean_z <= 4.0
          and rep.weight_second_moment_z <= 4.0
          and all(c.passed for c in rep.functionals)
          and elapsed < 30.0)
    gate(4, "shift-density identities at N=16, M=20000",
         ok, f"E[w]={rep.weight_mean:.4f} (z={rep.weight_mean_z:.2f}) "
             f"max functional z={max(c.z for c in rep.functionals):.2f} "
             f"elapsed={elapsed:.1f}s")


def test_criterion_5_white_noise_kdv_invariance():
    p = invariance_preset("kdv-white-noise")
    rep = invariance_experiment(p["measure"], p["eq"], p["t_final"],
                                p["m_samples"], SEED, dt=p["dt"],
                                alpha=p["alpha"])
    main_ok = not rep.any_rejection and rep.blowup_count == 0
    min_holm = min(o.p_holm for o in rep.observables)

    cal = calibration_uniformity(p["measure"], p["m_samples"], 100,
                                 RandomSeed(512))
    cal_ok = cal.passed

    neg = invariance_preset("negative-control")
    rep_neg = invariance_experiment(neg["measure"], neg["eq"], neg["t_final"],
                                    neg["m_samples"], SEED, dt=neg["dt"],
                                    alpha=neg["alpha"])
    neg_ok = rep_neg.any_rejection
    neg_min = min(o.p_holm for o in rep_neg.observables)

    gate(5, "white noise + truncated KdV invariance (N=32, M=2000, T=1)",
         main_ok and cal_ok and neg_ok,
         f"min holm p={min_holm:.3f}; calibration p={cal.p_value:.3f}; "
         f"negative control min holm p={neg_min:.2e}")


def test_criterion_6_gibbs_wick_invariance():
    p = invariance_preset("wick-nls-gibbs")
    rep = invariance_experiment(p["measure"], p["eq"], p["t_final"],
                                p["m_samples"], SEED, dt=p["dt"],
                                alpha=p["alpha"],
                                ais_levels=p["ais_levels"],
                                ais_pcn_steps=p["ais_pcn_steps"])
    ess_floor = 0.2 * p["m_samples"]
    ok = (not rep.any_rejection and rep.blowup_count == 0
          and rep.ess_a >= ess_floor and rep.ess_b >= ess_floor)
    gate(6, "defocusing Gibbs + truncated Wick flow (N=16, M=4000)",
         ok, f"ESS={rep.ess_a:.0f}/{rep.ess_b:.0f} (floor {ess_floor:.0f}); "
             f"min holm p={min(o.p_holm for o in rep.observables):.3f}")


def test_criterion_7_solver_correctness():
    details = []

    # Plane waves: closed-form single-mode phases at dt=1e-4, t=1.
    amp = 0.7
    pw = field_from_modes(1, {1: amp})
    cfg = SolverConfig(dt=1e-4, t_final=1.0)
    nls = evolve(pw, EquationSpec("nls", p=4, sign="plus"), cfg).fields[-1]
    err_nls = abs(nls.coeffs[nls.n_max + 1] - amp * np.exp(1j * (1 + amp ** 2)))
    wick = evolve(pw, EquationSpec("wick_nls", sign="plus"), cfg).fields[-1]
    err_wick = abs(wick.coeffs[wick.n_max + 1] - amp * np.exp(1j * (1 - amp ** 2)))
    plane_ok = err_nls < 1e-8 and err_wick < 1e-8
    details.append(f"plane-wave err {err_nls:.1e}/{err_wick:.1e}")

    # Conserved quantities on smooth data for all three families.
    rng = np.random.default_rng(0)
    n = np.arange(-16, 17)
    c = (rng.standard_normal(33) + 1j * rng.standard_normal(33)) \
        * 0.5 * np.exp(-np.abs(n) / 2.0)
    u0 = TorusField(16, c)
    kdv0 = field_from_modes(16, {1: 0.5, -1: 0.5, 2: 0.25, -2: 0.25},
                            real_valued=True)
    drift_ok = True
    for eq, f in [(EquationSpec("nls", p=4, sign="plus"), u0),
                  (EquationSpec("wick_nls", sign="plus"), u0),
                  (EquationSpec("gkdv", p=3, sign="plus"), kdv0)]:
        traj = evolve(f, eq, SolverConfig(dt=1e-4, t_final=1.0,
                                          record_every=1000))
        m_drift = np.max(np.abs(traj.mass_series - traj.mass_series[0])) \
            / traj.mass_series[0]
        h_drift = np.max(np.abs(traj.hamiltonian_series
                                - traj.hamiltonian_series[0])) \
            / abs(traj.hamiltonian_series[0])
        drift_ok &= m_drift < 1e-8 and h_drift < 1e-6
        details.append(f"{eq.family}: mass {m_drift:.1e} H {h_drift:.1e}")

    # KdV self-convergence order in dt.
    f = field_from_modes(16, {1: 1.0, -1: 1.0}, real_valued=True)
    eq = EquationSpec("gkdv", p=3, sign="plus")

    def final(dt):
        return evolve(f, eq, SolverConfig(dt=dt, t_final=1.0)).fields[-1].coeffs

    ref = final(1e-3 / 16.0)
    errs = [np.max(np.abs(final(dt) - ref)) for dt in (1e-3, 5e-4)]
    order = float(np.log2(errs[0] / errs[1]))
    order_ok = order >= 3.8
    details.append(f"kdv order {order:.2f}")

    # Gauge link between the plain and Wick-ordered cubic flows.
    gauge = gauge_check(u0, 1.0, SolverConfig(dt=1e-4, t_final=1.0),
                        sign="plus")
    gauge_ok = gauge.modulus_discrepancy < 1e-6 and not gauge.blowup
    details.append(f"gauge modulus {gauge.modulus_discrepancy:.1e}")

    gate(7, "solver correctness (plane waves, drifts, order, gauge)",
         plane_ok and drift_ok and order_ok and gauge_ok, "; ".join(details))


def test_criterion_8_large_deviations():
    base = GaussianFieldSpec("fwb", 0, alpha=1.0, real_valued=True)
    v0 = zero_field(0, real_valued=True)
    center = field_from_modes(0, {0: 1.0}, real_valued=True)
    radius = 0.3
    epsilons = (0.5, 0.35, 0.25, 0.15)
    m_counts = (200_000, 200_000, 2_000_000, 32_000_000)
    rep = ldp_mc(v0, base, center, radius, 0.0, epsilons, m_counts, SEED)

    ci_ok = True
    for pt in rep.points:
        exact = (sps.norm.cdf((1.0 + radius) / pt.epsilon)
                 - sps.norm.cdf((1.0 - radius) / pt.epsilon))
        ci_ok &= pt.ci_lo <= exact <= pt.ci_hi and pt.hits >= 25
    gap_ok = rep.final_gap_fraction is not None and rep.final_gap_fraction <= 0.25

    rng = np.random.default_rng(77)
    from helpers import slsqp_ball_minimum
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        v = TorusField(n, rng.standard_normal(2 * n + 1)
                       + 1j * rng.standard_normal(2 * n + 1))
        w = TorusField(n, rng.standard_normal(2 * n + 1)
                       + 1j * rng.standard_normal(2 * n + 1))
        s = float(rng.uniform(-1.0, 1.0))
        r = float(rng.uniform(0.2, 1.5))
        mine = ldp_rate_infimum(w, r, s, v)
        worst = max(worst, abs(mine.value - slsqp_ball_minimum(w, r, s, v)))
    inf_ok = worst < 1e-8

    gate(8, "small-noise hit probabilities and rate infimum",
         ci_ok and gap_ok and inf_ok and rep.trend_ok,
         f"final gap {rep.final_gap_fraction:.3f}; "
         f"infimum worst diff {worst:.1e}")


def test_criterion_9_entropy_maximization():
    cells, span = 4096, 8.0
    q = np.linspace(-span, span, cells, endpoint=False) + span / cells
    vol = 2.0 * span / cells
    gauss = entropy_check_finite_dim(q ** 2 / 2.0, 1.0, vol, seed=SEED)
    value_err = abs(gauss.entropy - 0.5 * math.log(2 * math.pi * math.e))
    quartic = entropy_check_finite_dim(q ** 4, 1.0, vol, n_directions=20,
                                       seed=SEED)
    ok = (value_err < 1e-3 and gauss.all_nonincreasing
          and quartic.directions_tested == 20 and quartic.strict_decrease)
    gate(9, "entropy maximization on the grid",
         ok, f"gaussian entropy err {value_err:.1e}; "
             f"quartic min drop {quartic.min_entropy_drop:.2e}")


def test_criterion_10_determinism(tmp_path):
    from gibbsflow.cli import main
    from gibbsflow.measures import GibbsSpec

    base = GaussianFieldSpec("fwb", 8, alpha=1.0)
    gibbs = GibbsSpec(p=4, sign="defocusing", beta=1.0, base=base)
    eq = EquationSpec("wick_nls", sign="plus")
    kwargs = dict(dt=2e-3, ais_levels=20, ais_pcn_steps=2, bootstrap_reps=400)
    rep1 = invariance_experiment(gibbs, eq, 0.1, 400, SEED, n_threads=1,
                                 **kwargs)
    rep8 = invariance_experiment(gibbs, eq, 0.1, 400, SEED, n_threads=8,
                                 **kwargs)
    library_ok = canonical_dumps(to_jsonable(rep1)) == \
        canonical_dumps(to_jsonable(rep8))

    cli_ok = True
    for threads in ("1", "8"):
        for tag in ("x", "y"):
            out = tmp_path / f"run{threads}{tag}.json"
            code = main(["invariance", "--preset", "wick-nls-gibbs",
                         "--nmax", "8", "--samples", "200", "--t", "0.05",
                         "--dt", "2e-3", "--seed", "9",
                         "--threads", threads, "--out", str(out)])
            cli_ok &= code == 0
    blobs = [(tmp_path / f"run{t}{g}.json").read_bytes()
             for t in ("1", "8") for g in ("x", "y")]
    cli_ok &= all(b == blobs[0] for b in blobs)

    gate(10, "byte-identical reports under 1 and 8 threads",
         library_ok and cli_ok, "library and CLI reruns compared")
