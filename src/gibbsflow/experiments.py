"""Experiment drivers: invariance testing, shift verification, large
deviations, and the singularity-vs-distinguishability demo.

All experiments are pure functions of (configuration, seed): ensembles
draw from fixed random-path lanes, statistical reductions run in a fixed
order, and repeated runs reproduce every statistic bit for bit.  Reports
carry the scope label "finite_truncation": every conclusion is a
statement about the truncated systems, not the limiting measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import GaussianFieldSpec, mode_std, sample_ensemble, sample_matrix
from .integrators import EquationSpec, SolverConfig, evolve_ensemble
from .measures import (
    GibbsSpec,
    cameron_martin_log_density_matrix,
    cameron_martin_norm_sq,
    cm_criterion_power_law,
    gibbs_ensemble,
    kakutani_power_law,
)
from .parallel import map_chunks
from .rng import RandomSeed, generator
from .spectral import GridConfig, TorusField, grid_for, truncate
from .stats import (
    holm_adjust,
    ks_exact_tail,
    ks_two_sample,
    spearman_rho,
    standard_error,
    uniformity_ks,
    weighted_ks_bootstrap,
    wilson_interval,
)

__all__ = [
    "ObservableResult",
    "InvarianceReport",
    "invariance_experiment",
    "CalibrationReport",
    "calibration_uniformity",
    "CMFunctionalCheck",
    "CMReport",
    "cameron_martin_experiment",
    "LdpInfimum",
    "ldp_rate_infimum",
    "LdpPoint",
    "LDPReport",
    "ldp_mc",
    "DistinguishabilityPoint",
    "DistinguishabilityReport",
    "distinguishability_demo",
    "observable_panel",
]

SCOPE_LABEL = "finite_truncation"

# Fixed random-path lanes within an experiment's seed.
_LANE_A = 0
_LANE_B = 1
_LANE_COMPARE = 2  # one bootstrap stream, shared by the whole panel
_LANE_CALIBRATION = 3  # randomization of calibration_uniformity's p-values
_LANE_LDP0 = 10
_LANE_DEMO0 = 40

# Monte Carlo rows per ldp_mc chunk; chunk i of epsilon e draws from path
# (_LANE_LDP0 + e, sample i), so the plan fixes the hit counts.
_LDP_CHUNK = 4096


# ---------------------------------------------------------------------------
# Observable panel
# ---------------------------------------------------------------------------

def observable_panel(n_max: int, real_valued: bool):
    """Fixed panel: Re/Im/|.|^2 of modes {0, +-1, +-2, +-5, +-N/2} plus two
    Sobolev norms (s = 0 and s = -1).

    For real fields the negative modes are conjugate duplicates and are
    omitted.  Returns [(name, fn)] with fn mapping a coefficient matrix to
    one scalar per row.
    """
    mags = sorted({0, 1, 2, 5, n_max // 2})
    mags = [m for m in mags if m <= n_max]
    modes = mags if real_valued else sorted({x for m in mags for x in (m, -m)})

    panel = []
    for n in modes:
        idx = n + n_max

        def re_fn(c, i=idx):
            return c[:, i].real

        def im_fn(c, i=idx):
            return c[:, i].imag

        def abs2_fn(c, i=idx):
            return np.abs(c[:, i]) ** 2

        panel.append((f"re_c[{n}]", re_fn))
        panel.append((f"im_c[{n}]", im_fn))
        panel.append((f"abs2_c[{n}]", abs2_fn))

    weights0 = np.ones(2 * n_max + 1)
    n_arr = np.arange(-n_max, n_max + 1, dtype=np.float64)
    weights_m1 = (1.0 + n_arr * n_arr) ** (-1.0)

    def norm_s0(c):
        return np.sqrt(np.abs(c) ** 2 @ weights0)

    def norm_sm1(c):
        return np.sqrt(np.abs(c) ** 2 @ weights_m1)

    panel.append(("sobolev_s0", norm_s0))
    panel.append(("sobolev_s-1", norm_sm1))
    return panel


# ---------------------------------------------------------------------------
# Invariance experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservableResult:
    name: str
    statistic: float
    p_value: float
    p_holm: float
    reject: bool


@dataclass(frozen=True)
class InvarianceReport:
    measure: str
    equation: str
    t_final: float
    m_samples: int
    base_seed: int
    stream_index: int
    alpha: float
    weighted: bool
    ess_a: float | None
    ess_b: float | None
    blowup_count: int
    observables: tuple
    skipped_observables: tuple
    any_rejection: bool
    flagged: bool
    scope: str = SCOPE_LABEL


def _measure_ensembles(measure, m_samples, seed, grid, ais_levels, ais_pcn_steps,
                       n_threads):
    """Two independent ensembles of the measure, as (rows, weights) pairs.

    Gaussian measures are exact iid draws (weights None); Gibbs measures
    come back as annealed-importance ensembles whose weights travel with
    the rows through evolution and into the weighted comparison.
    """
    if isinstance(measure, GibbsSpec):
        ens_a = gibbs_ensemble(measure, m_samples, seed, grid=grid,
                               levels=ais_levels, pcn_steps=ais_pcn_steps,
                               lane_index=_LANE_A, n_threads=n_threads)
        ens_b = gibbs_ensemble(measure, m_samples, seed, grid=grid,
                               levels=ais_levels, pcn_steps=ais_pcn_steps,
                               lane_index=_LANE_B, n_threads=n_threads)
        flagged = ens_a.flagged or ens_b.flagged
        label = (f"gibbs(p={measure.p},{measure.sign},beta={measure.beta},"
                 f"base={measure.base.family},n={measure.base.n_max})")
        return (ens_a.coeffs, ens_a.weights, ens_b.coeffs, ens_b.weights,
                ens_a.ess, ens_b.ess, flagged, label)
    spec = measure
    a = sample_ensemble(spec, m_samples, seed, _LANE_A)
    b = sample_ensemble(spec, m_samples, seed, _LANE_B)
    label = f"gaussian({spec.family},n={spec.n_max})"
    return a, None, b, None, None, None, False, label


def _base_spec(measure) -> GaussianFieldSpec:
    return measure.base if isinstance(measure, GibbsSpec) else measure


def invariance_experiment(
    measure,
    eq: EquationSpec | None,
    t_final: float,
    m_samples: int,
    seed: RandomSeed,
    dt: float | None = None,
    grid: GridConfig | None = None,
    alpha: float = 0.01,
    ais_levels: int = 96,
    ais_pcn_steps: int = 3,
    bootstrap_reps: int = 2000,
    n_threads: int = 1,
) -> InvarianceReport:
    """Compare a fresh ensemble with an evolved one, observable by observable.

    Ensemble A is drawn fresh; ensemble B is drawn from a disjoint stream
    lane and pushed to time t_final under the truncated flow.  Each panel
    observable gets a two-sample KS test; the Holm-corrected p-values
    decide rejections at the given level.  Gibbs measures are sampled by
    annealed importance sampling; their comparison uses the weighted KS
    statistic calibrated by resampling (value, weight) pairs within each
    ensemble (ESS is reported so the power loss is visible).  With
    t_final = 0 the run is a null calibration and needs no equation.
    """
    base = _base_spec(measure)
    if t_final != 0.0:
        if eq is None:
            raise ValueError("an equation is required when t_final != 0")
        if not eq.galerkin_projected:
            raise ValueError(
                "invariance experiments require galerkin_projected flows; the"
                " truncated measure is only invariant for the projected system"
            )
        if eq.family == "gkdv" and not (base.real_valued and base.mean_zero):
            raise ValueError("gkdv invariance requires a real-valued mean-zero measure")
        if eq.family != "gkdv" and base.real_valued:
            raise ValueError("Schroedinger-family invariance requires complex fields")
        if dt is None:
            raise ValueError("dt is required when evolving")
    if grid is None:
        grid = grid_for(base.n_max, eq.p if eq is not None else 4)

    a, wa, b, wb, ess_a, ess_b, flagged, measure_label = _measure_ensembles(
        measure, m_samples, seed, grid, ais_levels, ais_pcn_steps, n_threads
    )
    weighted = wa is not None

    blowups = 0
    if t_final != 0.0:
        cfg = SolverConfig(dt=dt, t_final=t_final, grid=grid)
        result = evolve_ensemble(b, base.n_max, eq, cfg,
                                 real_valued=base.real_valued, n_threads=n_threads)
        blowups = int(np.sum(result.blowup))
        flagged = flagged or blowups > 0
        k = result.n_max
        b = result.coeffs[:, k - base.n_max: k + base.n_max + 1]

    names, xs_a, xs_b, skipped = [], [], [], []
    for name, fn in observable_panel(base.n_max, base.real_valued):
        xa, xb = fn(a), fn(b)
        if np.std(xa) == 0.0 and np.std(xb) == 0.0 and np.all(xa[0] == xb):
            skipped.append(name)
            continue
        names.append(name)
        xs_a.append(xa)
        xs_b.append(xb)
    if weighted and names:
        tests = weighted_ks_bootstrap(np.array(xs_a), wa, np.array(xs_b), wb,
                                      generator(seed, lane=_LANE_COMPARE),
                                      reps=bootstrap_reps)
    else:
        tests = [ks_two_sample(xa, xb) for xa, xb in zip(xs_a, xs_b)]

    adjusted = holm_adjust([p for _, p in tests])
    observables = tuple(
        ObservableResult(name, stat, p, float(adj), bool(adj < alpha))
        for name, (stat, p), adj in zip(names, tests, adjusted)
    )
    eq_label = "none" if eq is None else \
        f"{eq.family}(p={eq.p},{eq.sign},galerkin={eq.galerkin_projected})"
    return InvarianceReport(
        measure=measure_label,
        equation=eq_label,
        t_final=t_final,
        m_samples=m_samples,
        base_seed=seed.base_seed,
        stream_index=seed.stream_index,
        alpha=alpha,
        weighted=weighted,
        ess_a=ess_a,
        ess_b=ess_b,
        blowup_count=blowups,
        observables=observables,
        skipped_observables=tuple(skipped),
        any_rejection=any(o.reject for o in observables),
        flagged=flagged,
    )


@dataclass(frozen=True)
class CalibrationReport:
    repetitions: int
    m_samples: int
    n_pvalues: int
    ks_statistic: float
    p_value: float
    passed: bool


def calibration_uniformity(
    measure: GaussianFieldSpec,
    m_samples: int,
    repetitions: int,
    seed: RandomSeed,
    alpha: float = 0.01,
) -> CalibrationReport:
    """Null calibration: pooled T=0 KS p-values must look uniform.

    Each repetition draws two independent ensembles of m_samples rows from
    a fresh stream (consecutive stream indices) and pools one p-value per
    panel observable; a one-sample KS test against Uniform(0,1) at the
    given level validates the harness.

    The equal-size two-sample distance D lives on the lattice h/m, so its
    exact p-value P(D >= h/m) is discrete and a correct harness would fail
    a continuous uniformity test.  Each pooled value is therefore the
    randomized exact p-value

        P(D >= (h+1)/m) + U * (P(D >= h/m) - P(D >= (h+1)/m)),

    which is exactly Uniform(0,1) under the null.  The U draws come from a
    fixed lane of the repetition's stream.  Gibbs measures are refused:
    their weighted comparison's bootstrap p-values are not on this lattice.
    """
    if isinstance(measure, GibbsSpec):
        raise ValueError("calibration_uniformity needs a Gaussian measure;"
                         " bootstrap p-values of Gibbs ensembles are not"
                         " lattice-valued")
    hs, us = [], []
    for r in range(repetitions):
        rep_seed = seed.bumped(r)
        rep = invariance_experiment(measure, None, 0.0, m_samples, rep_seed)
        hs.extend(round(o.statistic * m_samples) for o in rep.observables)
        us.extend(generator(rep_seed, lane=_LANE_CALIBRATION).random(len(rep.observables)))
    tail = {h: ks_exact_tail(h, m_samples) for h in set(hs) | {h + 1 for h in hs}}
    pooled = [tail[h + 1] + u * (tail[h] - tail[h + 1]) for h, u in zip(hs, us)]
    stat, p = uniformity_ks(pooled)
    return CalibrationReport(
        repetitions=repetitions,
        m_samples=m_samples,
        n_pvalues=len(pooled),
        ks_statistic=stat,
        p_value=p,
        passed=p >= alpha,
    )


# ---------------------------------------------------------------------------
# Shift (Cameron-Martin direction) experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMFunctionalCheck:
    name: str
    direct: float
    direct_se: float
    weighted: float
    weighted_se: float
    z: float
    passed: bool


@dataclass(frozen=True)
class CMReport:
    m_samples: int
    base_seed: int
    stream_index: int
    shift_norm_sq: float
    weight_mean: float
    weight_mean_se: float
    weight_mean_z: float
    weight_second_moment: float
    weight_second_moment_expected: float
    weight_second_moment_z: float
    functionals: tuple
    admissible_at_infinity: bool | None
    identities_pass: bool
    evolve_samples: int
    t_final: float
    blowup_count: int
    global_proxy_fraction: float | None
    max_mass_ratio: float | None
    nonlinear_part_l2_median: float | None
    nonlinear_part_l2_max: float | None
    scope: str = SCOPE_LABEL


def cameron_martin_experiment(
    v0: TorusField,
    base: GaussianFieldSpec,
    eq: EquationSpec | None = None,
    t_final: float = 0.0,
    m_samples: int = 20000,
    seed: RandomSeed = RandomSeed(0),
    dt: float | None = None,
    grid: GridConfig | None = None,
    evolve_samples: int = 0,
    v0_decay: float | None = None,
    z_threshold: float = 4.0,
    n_threads: int = 1,
) -> CMReport:
    """Verify the shift identity and (optionally) evolve the shifted data.

    Part (a): with w = exp(log shift density at v0), checks E[w] = 1,
    E[w^2] = exp(||v0||_H^2), and E_shifted[F] = E_base[F w] for the panel
    functionals, all within z_threshold standard errors.  Part (b) evolves
    a subset of the shifted ensemble and records mass histories and blowup
    counts; "no blowup and sup_t mass within 10x initial" is reported as a
    global-existence proxy, not as a proof of anything.  The evolution
    runs in row chunks on up to n_threads threads; the report does not
    depend on the thread count.
    """
    x = sample_ensemble(base, m_samples, seed, _LANE_A)
    y_noise = sample_ensemble(base, m_samples, seed, _LANE_B)
    v0_emb = truncate(v0, base.n_max)
    y = v0_emb.coeffs[np.newaxis, :] + y_noise

    log_w = cameron_martin_log_density_matrix(v0, x, base)
    w = np.exp(log_w)
    w_mean = float(np.mean(w))
    w_se = standard_error(w)
    norm_sq = cameron_martin_norm_sq(v0, base)
    w2 = w * w
    w2_mean = float(np.mean(w2))
    w2_expected = float(np.exp(norm_sq))
    w2_se = standard_error(w2)

    checks = []
    panel = [(name, fn) for name, fn in observable_panel(base.n_max, base.real_valued)
             if name.startswith("re_c")]

    def mass_sq(c):
        return 2.0 * np.pi * np.sum(np.abs(c) ** 2, axis=1)

    panel.append(("l2_mass", mass_sq))
    for name, fn in panel:
        fx, fy = fn(x), fn(y)
        direct = float(np.mean(fy))
        direct_se = standard_error(fy)
        weighted_vals = fx * w
        weighted = float(np.mean(weighted_vals))
        weighted_se = standard_error(weighted_vals)
        denom = math.hypot(direct_se, weighted_se)
        z = abs(direct - weighted) / denom if denom > 0 else 0.0
        checks.append(CMFunctionalCheck(
            name, direct, direct_se, weighted, weighted_se, z, z <= z_threshold
        ))

    w_z = abs(w_mean - 1.0) / w_se if w_se > 0 else 0.0
    w2_z = abs(w2_mean - w2_expected) / w2_se if w2_se > 0 else 0.0
    identities_pass = (w_z <= z_threshold and w2_z <= z_threshold
                       and all(c.passed for c in checks))

    blowups = 0
    proxy_fraction = None
    max_mass_ratio = None
    nl_median = None
    nl_max = None
    if eq is not None and t_final > 0.0 and evolve_samples > 0:
        if dt is None:
            raise ValueError("dt is required for the evolution part")
        subset = y[:evolve_samples]
        grid_run = grid or grid_for(base.n_max, eq.p)
        n_steps = max(1, int(round(t_final / dt)))
        cfg = SolverConfig(dt=dt, t_final=t_final, grid=grid_run,
                           record_every=max(1, n_steps // 8))
        mass0 = 2.0 * np.pi * np.sum(np.abs(subset) ** 2, axis=1)
        sup_mass = np.zeros_like(mass0)

        def on_record(rows, t, full, active):
            m = 2.0 * np.pi * np.sum(np.abs(full) ** 2, axis=1)
            np.maximum(sup_mass[rows], np.where(active, m, 0.0), out=sup_mass[rows])

        result = evolve_ensemble(subset, base.n_max, eq, cfg,
                                 real_valued=base.real_valued,
                                 on_record=on_record, n_threads=n_threads)
        blowups = int(np.sum(result.blowup))
        ratios = sup_mass / np.maximum(mass0, 1e-300)
        max_mass_ratio = float(np.max(ratios))
        proxy_ok = (~result.blowup) & (ratios <= 10.0)
        proxy_fraction = float(np.mean(proxy_ok))
        if eq.family in ("nls", "wick_nls"):
            k = result.n_max
            n = np.arange(-k, k + 1, dtype=np.float64)
            phase = np.exp(1j * n ** 2 * t_final)
            full0 = np.zeros((subset.shape[0], 2 * k + 1), dtype=np.complex128)
            full0[:, k - base.n_max: k + base.n_max + 1] = subset
            nl = result.coeffs - phase[np.newaxis, :] * full0
            nl_l2 = np.sqrt(np.sum(np.abs(nl) ** 2, axis=1))
            nl_median = float(np.median(nl_l2))
            nl_max = float(np.max(nl_l2))

    return CMReport(
        m_samples=m_samples,
        base_seed=seed.base_seed,
        stream_index=seed.stream_index,
        shift_norm_sq=norm_sq,
        weight_mean=w_mean,
        weight_mean_se=w_se,
        weight_mean_z=w_z,
        weight_second_moment=w2_mean,
        weight_second_moment_expected=w2_expected,
        weight_second_moment_z=w2_z,
        functionals=tuple(checks),
        admissible_at_infinity=(
            cm_criterion_power_law(v0_decay, base) if v0_decay is not None else None
        ),
        identities_pass=identities_pass,
        evolve_samples=evolve_samples,
        t_final=t_final,
        blowup_count=blowups,
        global_proxy_fraction=proxy_fraction,
        max_mass_ratio=max_mass_ratio,
        nonlinear_part_l2_median=nl_median,
        nonlinear_part_l2_max=nl_max,
    )


# ---------------------------------------------------------------------------
# Large deviations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LdpInfimum:
    value: float
    argmin: TorusField
    multiplier: float
    constraint_residual: float


def _embed(f: TorusField, n_max: int) -> np.ndarray:
    return truncate(f, n_max).coeffs


def ldp_rate_infimum(
    center: TorusField,
    radius: float,
    s: float,
    v0: TorusField,
    weights: np.ndarray | None = None,
    pinned: np.ndarray | None = None,
    complex_modes: bool = False,
    n_max: int | None = None,
) -> LdpInfimum:
    """Minimize (1/2) sum w_n |f_n - v0_n|^2 over the H^s ball around center.

    Solved mode by mode through a scalar Lagrange multiplier: with
    g = f - center and d = v0 - center, the minimizer is
    g_n = w_n d_n / (w_n + 2 lam <n>^{2s}) and lam >= 0 is the root of the
    ball constraint, bracketed by doubling and bisected to convergence.
    ``pinned`` marks modes the underlying noise cannot move (f_n = v0_n
    there); ``complex_modes`` doubles the value (two real coordinates per
    mode), making the result the exact decay rate for complex ensembles.
    """
    from scipy.optimize import brentq

    if radius <= 0:
        raise ValueError("radius must be > 0")
    n_max = n_max if n_max is not None else max(center.n_max, v0.n_max)
    wc = _embed(center, n_max)
    vc = _embed(v0, n_max)
    n = np.arange(-n_max, n_max + 1, dtype=np.float64)
    omega = (1.0 + n * n) ** s
    w = np.ones_like(omega) if weights is None else np.asarray(weights, float)
    if w.shape != omega.shape or np.any(w <= 0):
        raise ValueError("weights must be positive and match the mode count")
    pin = np.zeros_like(omega, dtype=bool) if pinned is None \
        else np.asarray(pinned, dtype=bool)

    d = vc - wc
    factor = 2.0 if complex_modes else 1.0
    fixed_budget = float(np.sum(omega[pin] * np.abs(d[pin]) ** 2))
    if fixed_budget > radius ** 2:
        raise ValueError(
            "ball is unreachable: pinned modes alone exceed the radius"
        )
    live = ~pin
    budget_sq = radius ** 2 - fixed_budget

    def constraint(lam: float) -> float:
        g = w[live] * d[live] / (w[live] + 2.0 * lam * omega[live])
        return float(np.sum(omega[live] * np.abs(g) ** 2)) - budget_sq

    if constraint(0.0) <= 0.0:
        return LdpInfimum(0.0, TorusField(n_max, vc, v0.real_valued and
                                          center.real_valued), 0.0, 0.0)

    hi = 1.0
    for _ in range(200):
        if constraint(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the Lagrange multiplier")
    lam = brentq(constraint, 0.0, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)

    g = np.zeros_like(d)
    g[live] = w[live] * d[live] / (w[live] + 2.0 * lam * omega[live])
    f_hat = wc + g
    f_hat[pin] = vc[pin]
    value = factor * 0.5 * float(np.sum(w[live] * np.abs(f_hat[live] - vc[live]) ** 2))
    residual = float(np.sum(omega * np.abs(f_hat - wc) ** 2)) - radius ** 2
    argmin = TorusField(n_max, f_hat, v0.real_valued and center.real_valued)
    return LdpInfimum(value, argmin, float(lam), residual)


def base_rate_weights(base: GaussianFieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(w_n, pinned) for the rate tied to a Gaussian base: w_n = sigma_n^-2
    on live modes, pinned where sigma_n = 0."""
    sig = mode_std(base)
    pinned = sig == 0.0
    w = np.ones_like(sig)
    w[~pinned] = sig[~pinned] ** (-2.0)
    return w, pinned


@dataclass(frozen=True)
class LdpPoint:
    epsilon: float
    m_samples: int
    hits: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    eps2_log: float
    eps2_log_lo: float
    eps2_log_hi: float
    too_rare: bool
    below_floor: bool


@dataclass(frozen=True)
class LDPReport:
    epsilons: tuple
    points: tuple
    oracle: float  # -inf_F I
    rate_infimum: float
    spearman_gap_trend: float
    trend_ok: bool
    final_gap_fraction: float | None
    scope: str = SCOPE_LABEL


RARE_EVENT_FLOOR = 25


def ldp_mc(
    v0: TorusField,
    base: GaussianFieldSpec,
    center: TorusField,
    radius: float,
    s: float,
    epsilons,
    m_per_eps,
    seed: RandomSeed,
    n_threads: int = 1,
) -> LDPReport:
    """Estimate hit probabilities of the H^s ball under v0 + eps*phi.

    Per epsilon, the Monte Carlo fraction of samples landing in the ball
    is reported with a Wilson interval, and eps^2 log p_hat is compared
    with the rate-function oracle -inf_F I computed from the base's exact
    shift weights.  m_per_eps may be a single count or one count per
    epsilon (rarer events need more samples to stay above the hits
    floor).  Epsilons with zero hits are flagged too_rare and excluded
    from the trend diagnostic (Spearman correlation of the oracle gap
    against epsilon; shrinking gap means positive rho).  Samples are drawn
    in fixed chunks of 4096 on up to n_threads threads; hit counts do not
    depend on the thread count.
    """
    epsilons = tuple(float(e) for e in epsilons)
    if any(e <= 0 for e in epsilons):
        raise ValueError("epsilons must be > 0")
    if list(epsilons) != sorted(epsilons, reverse=True):
        raise ValueError("epsilons must be strictly decreasing")
    if np.isscalar(m_per_eps):
        m_counts = [int(m_per_eps)] * len(epsilons)
    else:
        m_counts = [int(m) for m in m_per_eps]
        if len(m_counts) != len(epsilons):
            raise ValueError("m_per_eps must match the number of epsilons")
    n_max = base.n_max
    weights, pinned = base_rate_weights(base)
    vc = _embed(v0, n_max)
    inf = ldp_rate_infimum(center, radius, s, v0, weights=weights,
                           pinned=pinned, complex_modes=not base.real_valued,
                           n_max=n_max)
    oracle = -inf.value

    wc = _embed(center, n_max)
    n = np.arange(-n_max, n_max + 1, dtype=np.float64)
    omega = (1.0 + n * n) ** s

    points = []
    for e_idx, (eps, m_eps) in enumerate(zip(epsilons, m_counts)):
        def count_hits(c_idx: int, start: int, stop: int) -> int:
            rng = generator(seed, lane=_LANE_LDP0 + e_idx, sample=c_idx)
            phi = sample_matrix(base, stop - start, rng)
            u = vc[np.newaxis, :] + eps * phi
            dist_sq = np.abs(u - wc[np.newaxis, :]) ** 2 @ omega
            return int(np.sum(dist_sq <= radius ** 2))

        hits = sum(map_chunks(count_hits, m_eps, n_threads, _LDP_CHUNK))
        p_hat = hits / m_eps
        ci_lo, ci_hi = wilson_interval(hits, m_eps)
        too_rare = hits == 0
        e2 = eps * eps
        points.append(LdpPoint(
            epsilon=eps,
            m_samples=m_eps,
            hits=hits,
            p_hat=p_hat,
            ci_lo=ci_lo,
            ci_hi=ci_hi,
            eps2_log=e2 * math.log(p_hat) if not too_rare else -math.inf,
            eps2_log_lo=e2 * math.log(ci_lo) if ci_lo > 0 else -math.inf,
            eps2_log_hi=e2 * math.log(ci_hi) if ci_hi > 0 else -math.inf,
            too_rare=too_rare,
            below_floor=hits < RARE_EVENT_FLOOR,
        ))

    valid = [pt for pt in points if not pt.too_rare]
    gaps = [abs(pt.eps2_log - oracle) for pt in valid]
    eps_v = [pt.epsilon for pt in valid]
    rho = spearman_rho(eps_v, gaps) if len(valid) >= 3 else float("nan")
    if len(valid) >= 3:
        trend_ok = rho >= 0.0
    elif len(valid) == 2:
        trend_ok = gaps[1] <= gaps[0]
    else:
        trend_ok = False
    final_gap = None
    if valid and oracle != 0.0:
        final_gap = abs(valid[-1].eps2_log - oracle) / abs(oracle)
    elif valid:
        final_gap = abs(valid[-1].eps2_log)
    return LDPReport(
        epsilons=epsilons,
        points=tuple(points),
        oracle=oracle,
        rate_infimum=inf.value,
        spearman_gap_trend=rho,
        trend_ok=trend_ok,
        final_gap_fraction=final_gap,
    )


# ---------------------------------------------------------------------------
# Distinguishability demo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistinguishabilityPoint:
    n_max: int
    accuracy: float
    threshold: float


@dataclass(frozen=True)
class DistinguishabilityReport:
    u_decay: float
    v_decay: float
    kakutani_verdict: str
    points: tuple
    accuracy_increasing: bool
    scope: str = SCOPE_LABEL


def distinguishability_demo(
    u_decay: float,
    v_decay: float | None,
    n_values=(64, 256, 1024),
    m_samples: int = 2000,
    seed: RandomSeed = RandomSeed(0),
    v_amplitude: float = 1.0,
) -> DistinguishabilityReport:
    """Link the product-measure verdict to statistical distinguishability.

    For each truncation, draws noise-only and shifted ensembles, scores
    each sample by its shift log-density (the per-mode contributions whose
    tail sum is the dichotomy statistic), fits a threshold on a training
    half, and reports held-out accuracy.  Singular pairs drive accuracy
    toward 1 as the truncation grows; equivalent pairs plateau below 1;
    v = 0 stays at chance.
    """
    points = []
    for j, n_max in enumerate(n_values):
        n = np.arange(-n_max, n_max + 1, dtype=np.float64)
        profile = np.zeros(2 * n_max + 1, dtype=np.complex128)
        nz = n != 0
        profile[nz] = np.abs(n[nz]) ** (-u_decay)
        base = GaussianFieldSpec("general", n_max, base_coeffs=profile,
                                 mean_zero=True)
        v_coeffs = np.zeros(2 * n_max + 1, dtype=np.complex128)
        if v_decay is not None:
            v_coeffs[nz] = v_amplitude * np.abs(n[nz]) ** (-v_decay)
        v_field = TorusField(n_max, v_coeffs)

        x0 = sample_ensemble(base, m_samples, seed, _LANE_DEMO0 + 2 * j)
        x1 = v_coeffs[np.newaxis, :] + sample_ensemble(
            base, m_samples, seed, _LANE_DEMO0 + 2 * j + 1
        )
        llr0 = cameron_martin_log_density_matrix(v_field, x0, base)
        llr1 = cameron_martin_log_density_matrix(v_field, x1, base)

        half = m_samples // 2
        thr = 0.5 * (np.median(llr0[:half]) + np.median(llr1[:half]))
        correct = int(np.sum(llr0[half:] <= thr)) + int(np.sum(llr1[half:] > thr))
        accuracy = correct / (2.0 * (m_samples - half))
        points.append(DistinguishabilityPoint(n_max, float(accuracy), float(thr)))

    if v_decay is None:
        verdict = "equivalent"
    else:
        verdict = kakutani_power_law(u_decay, v_decay, max(n_values)).verdict
    accs = [pt.accuracy for pt in points]
    increasing = all(b >= a for a, b in zip(accs, accs[1:]))
    return DistinguishabilityReport(
        u_decay=u_decay,
        v_decay=v_decay if v_decay is not None else float("nan"),
        kakutani_verdict=verdict,
        points=tuple(points),
        accuracy_increasing=increasing,
    )
