"""Experiment drivers: invariance testing, shift verification and large
deviations.

All experiments are pure functions of (configuration, seed): ensembles
draw from fixed random-path lanes, statistical reductions run in a fixed
order, and repeated runs reproduce every statistic bit for bit.  Reports
carry the scope label "finite_truncation": every conclusion is a
statement about the truncated systems, not the limiting measures.  A
preset (``presets``) is a dict of keyword arguments of its driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import GaussianFieldSpec, mode_std, sample_buffers, sample_ensemble, sample_matrix
from .integrators import EquationSpec, SolverConfig, _step_plan, evolve_ensemble
from .measures import (
    AIS_LEVELS,
    AIS_PCN_STEPS,
    GibbsSpec,
    cameron_martin_log_density_matrix,
    cameron_martin_norm_sq,
    cm_criterion_power_law,
    gibbs_ensemble,
)
from .parallel import map_chunks
from .rng import RandomSeed, generator
from .spectral import TorusField, truncate
from .stats import (
    holm_adjust,
    ks_exact_tails,
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
    "observable_panel",
]

SCOPE_LABEL = "finite_truncation"
# Standard errors within which each shift identity must hold.
CM_Z_THRESHOLD = 4.0

# Fixed random-path lanes within an experiment's seed.
_LANE_A = 0
_LANE_B = 1
_LANE_COMPARE = 2  # one bootstrap stream, shared by the whole panel
_LANE_CALIBRATION = 3  # randomization of calibration_uniformity's p-values
_LANE_LDP0 = 10

# Monte Carlo rows per ldp_mc chunk; chunk i of epsilon e draws from path
# (_LANE_LDP0 + e, sample i), so the plan fixes the hit counts.
_LDP_CHUNK = 4096


# ---------------------------------------------------------------------------
# Observable panel
# ---------------------------------------------------------------------------

def _panel_modes(n_max: int, real_valued: bool) -> list:
    """Modes {0, +-1, +-2, +-5, +-N/2} within the band, without duplicates;
    for real fields the negative modes are conjugate duplicates and omitted."""
    mags = sorted({m for m in (0, 1, 2, 5, n_max // 2) if m <= n_max})
    return mags if real_valued else sorted({x for m in mags for x in (m, -m)})


def observable_panel(n_max: int, real_valued: bool):
    """Fixed panel: Re/Im/|.|^2 of the ``_panel_modes`` plus two Sobolev
    norms (s = 0 and s = -1).

    Returns (names, values): values(c) maps a coefficient matrix to one
    (observables x rows) float matrix, row i holding observable names[i].
    """
    modes = _panel_modes(n_max, real_valued)
    names = [f"{kind}_c[{n}]" for n in modes for kind in ("re", "im", "abs2")]
    names += ["sobolev_s0", "sobolev_s-1"]
    n_arr = np.arange(-n_max, n_max + 1, dtype=np.float64)
    weights = (np.ones(2 * n_max + 1), (1.0 + n_arr * n_arr) ** (-1.0))

    def values(c):
        out = np.empty((len(names), c.shape[0]))
        for j, n in enumerate(modes):
            col = c[:, n + n_max]
            out[3 * j], out[3 * j + 1], out[3 * j + 2] = col.real, col.imag, np.abs(col) ** 2
        abs2 = np.abs(c)
        abs2 **= 2  # in place: one temporary the size of c
        for row, w in zip(out[-2:], weights):
            np.sqrt(abs2 @ w, out=row)
        return out

    return names, values


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


def _evolution_config(eq, dt, t_final, base) -> SolverConfig:
    """The config of an experiment's evolution of ``base`` rows to t_final,
    recording about eight times (part (b) of the shift experiment keeps its
    mass history).  A missing flow, a missing dt, gkdv on complex fields
    and a step the scheme's guard refuses fail here, before anything is
    drawn."""
    if eq is None:
        raise ValueError("an equation is required when t_final != 0")
    if eq.family == "gkdv" and not base.real_valued:
        raise ValueError("gkdv evolves real_valued fields only")
    if dt is None:
        raise ValueError("dt is required when evolving")
    n_steps = _step_plan(base.n_max, eq, SolverConfig(dt=dt, t_final=t_final))[1]
    return SolverConfig(dt=dt, t_final=t_final, record_every=max(1, n_steps // 8))


def invariance_experiment(
    measure,
    eq: EquationSpec | None,
    t_final: float,
    m_samples: int,
    seed: RandomSeed,
    dt: float | None = None,
    alpha: float = 0.01,
    ais_levels: int = AIS_LEVELS,
    ais_pcn_steps: int = AIS_PCN_STEPS,
    bootstrap_reps: int = 2000,
    n_threads: int | None = None,
) -> InvarianceReport:
    """Compare a fresh ensemble with an evolved one, observable by observable.

    Ensemble A is drawn fresh; ensemble B is drawn from a disjoint stream
    lane and pushed to time t_final under the truncated flow.  One panel
    call per ensemble evaluates every observable; each one not constant and
    equal across both ensembles gets a two-sample KS test, and the
    Holm-corrected p-values decide rejections at the level alpha in (0, 1).
    Gibbs measures are sampled by annealed importance sampling; their
    comparison uses the weighted KS statistic calibrated by resampling
    (value, weight) pairs within each ensemble (ESS is reported so the
    power loss is visible).  With t_final = 0 the run is a null calibration
    and needs no equation; otherwise the flow must match the field type,
    and dt must be > 0 and within the scheme's guard, which is checked
    before any ensemble is drawn.
    """
    if m_samples < 2:
        raise ValueError(f"m_samples must be >= 2, got {m_samples}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    base = measure.base if isinstance(measure, GibbsSpec) else measure
    if t_final != 0.0:
        family = None if eq is None else eq.family
        if family == "gkdv" and not (base.real_valued and base.mean_zero):
            raise ValueError("gkdv invariance requires a real-valued mean-zero measure")
        if family not in (None, "gkdv") and base.real_valued:
            raise ValueError("Schroedinger-family invariance requires complex fields")
        cfg = _evolution_config(eq, dt, t_final, base)

    def draw(lane: int):
        """(rows, weights, ess, flagged) of one lane's ensemble: exact iid
        rows of a Gaussian measure, or an annealed-importance ensemble of a
        Gibbs measure, whose weights travel with the rows through evolution
        and into the weighted comparison."""
        if isinstance(measure, GibbsSpec):
            ens = gibbs_ensemble(measure, m_samples, seed, ais_levels, ais_pcn_steps,
                                 lane, n_threads)
            return ens.coeffs, ens.weights, ens.ess, ens.flagged
        return sample_ensemble(measure, m_samples, seed, lane), None, None, False

    a, wa, ess_a, flagged_a = draw(_LANE_A)
    b, wb, ess_b, flagged_b = draw(_LANE_B)
    flagged = flagged_a or flagged_b
    weighted = wa is not None

    blowups = 0
    if t_final != 0.0:
        result = evolve_ensemble(b, eq, cfg, n_threads=n_threads)
        blowups = int(np.sum(result.blowup))
        flagged = flagged or blowups > 0
        b = result.coeffs

    panel, values = observable_panel(base.n_max, base.real_valued)
    xs_a, xs_b = values(a), values(b)
    constant = np.array([np.std(xa) == 0.0 and np.std(xb) == 0.0 and np.all(xa[0] == xb)
                         for xa, xb in zip(xs_a, xs_b)], dtype=bool)
    names = [name for name, skip in zip(panel, constant) if not skip]
    skipped = [name for name, skip in zip(panel, constant) if skip]
    if constant.any():  # copies only when an observable is dropped
        xs_a, xs_b = xs_a[~constant], xs_b[~constant]
    if not names:
        tests = []
    elif weighted:
        tests = weighted_ks_bootstrap(xs_a, wa, xs_b, wb,
                                      generator(seed, lane=_LANE_COMPARE),
                                      reps=bootstrap_reps)
    else:
        tests = ks_two_sample(xs_a, xs_b)

    adjusted = holm_adjust([p for _, p in tests])
    observables = tuple(
        ObservableResult(name, stat, p, float(adj), bool(adj < alpha))
        for name, (stat, p), adj in zip(names, tests, adjusted)
    )
    measure_label = (
        f"gibbs(p={measure.p},{measure.sign},beta={measure.beta},"
        f"base={base.family},n={base.n_max})" if isinstance(measure, GibbsSpec)
        else f"gaussian({base.family},n={base.n_max})")
    eq_label = "none" if eq is None else f"{eq.family}(p={eq.p},{eq.sign})"
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
    lattice = sorted(set(hs) | {h + 1 for h in hs})
    tail = dict(zip(lattice, ks_exact_tails(lattice, m_samples)))
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
    evolve_samples: int = 0,
    v0_decay: float | None = None,
    n_threads: int | None = None,
) -> CMReport:
    """Verify the shift identity and (optionally) evolve the shifted data.

    Part (a): with w = exp(log shift density at v0), checks E[w] = 1,
    E[w^2] = exp(||v0||_H^2), and E_shifted[F] = E_base[F w] for F the
    panel's re_c modes and the L^2 mass, all within CM_Z_THRESHOLD standard
    errors (plug-in, except the exact null one for E[w^2]).  Needs
    m_samples >= 2.  One 256-row chunk body draws both ensembles, reduces
    them to these values and keeps the rows part (b) evolves, so neither
    ensemble is held whole.  Part (b) evolves the first evolve_samples <=
    m_samples shifted rows under the flow ``eq`` up to t_final > 0
    (0: no part (b)) and reports their blowup count, the largest ratio of
    sup_t mass to initial mass and, for the Schroedinger family, the L^2
    size of the nonlinear part (the evolved rows minus their free linear
    evolution).  Both parts run on up to n_threads threads (None: the
    default count); the report does not depend on the thread count.  A
    negative t_final, evolve_samples > 0 without a flow or horizon, part
    (b)'s missing dt, step guard and (gkdv) complex base, and a shift wider
    than the base or with mass on a zero-variance mode, are refused before
    part (a) draws anything.
    """
    if m_samples < 2:
        raise ValueError(f"m_samples must be >= 2, got {m_samples}")
    if t_final < 0.0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    if not 0 <= evolve_samples <= m_samples:
        raise ValueError(f"evolve_samples must be >= 0 and <= m_samples = {m_samples},"
                         f" got {evolve_samples}")
    if evolve_samples > 0:
        if eq is None or t_final == 0.0:
            raise ValueError("evolve_samples must be 0 (--evolve-samples 0) without a flow"
                             f" and t_final > 0, got {evolve_samples}")
        cfg = _evolution_config(eq, dt, t_final, base)
    norm_sq = cameron_martin_norm_sq(v0, base)  # refuses a bad shift
    modes = _panel_modes(base.n_max, base.real_valued)
    names = [f"re_c[{n}]" for n in modes] + ["l2_mass"]
    shift = truncate(v0, base.n_max).coeffs

    def l2_mass(c):
        return 2.0 * np.pi * np.sum(np.abs(c) ** 2, axis=1)

    def workspace(rows):
        return (*sample_buffers(base, rows), *sample_buffers(base, rows))

    def chunk(c, start, stop, ws):
        """(log w, values of F at x and at y, part (b) rows) of chunk c: its
        noise rows x and shifted rows y are drawn as ``sample_ensemble``
        draws, on paths (_LANE_A, 0, c) and (_LANE_B, 0, c), into the
        workspace, which the next chunk overwrites; part (b)'s rows are copied."""
        x, gx, y, gy = ws
        for lane, out, g in ((_LANE_A, x, gx), (_LANE_B, y, gy)):
            sample_matrix(base, stop - start, generator(seed, lane, sample=c),
                          out=out, normals=g)
        y += shift
        f = np.empty((2, len(names), stop - start))
        for fc, rows in zip(f, (x, y)):
            fc[:-1] = rows[:, np.add(modes, base.n_max)].real.T
            fc[-1] = l2_mass(rows)
        return (cameron_martin_log_density_matrix(v0, x, base), f,
                y[:max(0, evolve_samples - start)].copy())

    log_w, f, subset = zip(*map_chunks(chunk, m_samples, n_threads, workspace=workspace))
    w = np.exp(np.concatenate(log_w))
    fx, fy = np.concatenate(f, axis=-1)
    subset = np.concatenate(subset)
    w_mean = float(np.mean(w))
    w_se = standard_error(w)
    w2_mean = float(np.mean(w * w))
    w2_expected = float(np.exp(norm_sq))
    # Exact null SE: log w ~ N(-s/2, s), so Var(w^2) = e^{6s} - e^{2s}.  The
    # plug-in SE of the heavy-tailed w^2 shrinks when its tail goes unsampled.
    w2_se = math.sqrt((math.exp(6.0 * norm_sq) - math.exp(2.0 * norm_sq)) / m_samples)

    checks = []
    for name, fx_i, fy_i in zip(names, fx, fy):
        direct = float(np.mean(fy_i))
        direct_se = standard_error(fy_i)
        weighted_vals = fx_i * w
        weighted = float(np.mean(weighted_vals))
        weighted_se = standard_error(weighted_vals)
        denom = math.hypot(direct_se, weighted_se)
        z = abs(direct - weighted) / denom if denom > 0 else 0.0
        checks.append(CMFunctionalCheck(
            name, direct, direct_se, weighted, weighted_se, z, z <= CM_Z_THRESHOLD
        ))

    w_z = abs(w_mean - 1.0) / w_se if w_se > 0 else 0.0
    w2_z = abs(w2_mean - w2_expected) / w2_se if w2_se > 0 else 0.0
    identities_pass = (w_z <= CM_Z_THRESHOLD and w2_z <= CM_Z_THRESHOLD
                       and all(c.passed for c in checks))

    blowups, max_mass_ratio, nl_median, nl_max = 0, None, None, None
    if evolve_samples > 0:
        mass0 = l2_mass(subset)
        sup_mass = np.zeros_like(mass0)

        def on_record(rows, t, full, active):
            np.maximum(sup_mass[rows], np.where(active, l2_mass(full), 0.0),
                       out=sup_mass[rows])

        result = evolve_ensemble(subset, eq, cfg, on_record=on_record,
                                 n_threads=n_threads)
        blowups = int(np.sum(result.blowup))
        max_mass_ratio = float(np.max(sup_mass / np.maximum(mass0, 1e-300)))
        if eq.family in ("nls", "wick_nls"):
            n = np.arange(-base.n_max, base.n_max + 1, dtype=np.float64)
            phase = np.exp(1j * n ** 2 * t_final)
            nl = result.coeffs - phase * subset
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


def ldp_rate_infimum(
    center: TorusField,
    radius: float,
    s: float,
    v0: TorusField,
    base: GaussianFieldSpec | None = None,
) -> LdpInfimum:
    """Minimize (1/2) sum w_n |f_n - v0_n|^2 over the H^s ball around center.

    Solved mode by mode through a scalar Lagrange multiplier: with
    g = f - center and d = v0 - center, the minimizer is
    g_n = w_n d_n / (w_n + 2 lam <n>^{2s}) and lam >= 0 is the root of the
    ball constraint, bracketed by doubling and bisected to convergence.
    Without a base, w_n = 1 on the band max(center.n_max, v0.n_max).  A
    Gaussian base gives the exact decay rate of its ensembles v0 + eps*phi:
    its band, w_n = sigma_n^-2, f_n = v0_n pinned where sigma_n = 0 (the
    noise cannot move those modes), and the value doubled for complex
    fields (two real coordinates per mode).
    """
    from scipy.optimize import brentq

    if not (radius > 0 and math.isfinite(radius * radius)):
        raise ValueError(f"radius must be > 0 with a finite square, got {radius:g}")
    n_max = max(center.n_max, v0.n_max) if base is None else base.n_max
    wc = truncate(center, n_max).coeffs
    vc = truncate(v0, n_max).coeffs
    n = np.arange(-n_max, n_max + 1, dtype=np.float64)
    omega = (1.0 + n * n) ** s
    sig = np.ones_like(omega) if base is None else mode_std(base)
    pin = sig == 0.0
    w = np.ones_like(sig)
    w[~pin] = sig[~pin] ** (-2.0)

    d = vc - wc
    factor = 1.0 if base is None or base.real_valued else 2.0
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
    while not constraint(hi) < 0.0:  # a nan constraint never brackets
        hi *= 2.0
        if hi == math.inf:
            raise ValueError("failed to bracket the Lagrange multiplier: the ball"
                             " constraint overflows (check radius, s and the center)")
    lam = brentq(constraint, 0.0, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)

    g = np.zeros_like(d)
    g[live] = w[live] * d[live] / (w[live] + 2.0 * lam * omega[live])
    f_hat = wc + g
    f_hat[pin] = vc[pin]
    value = factor * 0.5 * float(np.sum(w[live] * np.abs(f_hat[live] - vc[live]) ** 2))
    residual = float(np.sum(omega * np.abs(f_hat - wc) ** 2)) - radius ** 2
    argmin = TorusField(n_max, f_hat, v0.real_valued and center.real_valued)
    return LdpInfimum(value, argmin, float(lam), residual)


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
    n_threads: int | None = None,
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
    in fixed chunks of 4096 on up to n_threads threads (None: the default
    count); hit counts do not depend on the thread count.
    """
    epsilons = tuple(float(e) for e in epsilons)
    if not all(0 < e < math.inf for e in epsilons):
        raise ValueError(f"epsilons must be finite and > 0, got {epsilons}")
    if any(a <= b for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    if np.isscalar(m_per_eps):
        m_counts = [int(m_per_eps)] * len(epsilons)
    else:
        m_counts = [int(m) for m in m_per_eps]
        if len(m_counts) != len(epsilons):
            raise ValueError("m_per_eps must match the number of epsilons")
    if any(m < 1 for m in m_counts):
        raise ValueError("m_per_eps must be >= 1")
    n_max = base.n_max
    vc = truncate(v0, n_max).coeffs
    inf = ldp_rate_infimum(center, radius, s, v0, base)
    oracle = -inf.value

    wc = truncate(center, n_max).coeffs
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
    trend_ok = rho >= 0.0 if len(valid) >= 3 else len(valid) == 2 and gaps[1] <= gaps[0]
    final_gap = None
    if valid:  # relative to the oracle, absolute when the oracle is 0
        final_gap = abs(valid[-1].eps2_log - oracle) / (abs(oracle) or 1.0)
    return LDPReport(
        epsilons=epsilons,
        points=tuple(points),
        oracle=oracle,
        rate_infimum=inf.value,
        spearman_gap_trend=rho,
        trend_ok=trend_ok,
        final_gap_fraction=final_gap,
    )
