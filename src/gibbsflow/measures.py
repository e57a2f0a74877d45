"""Densities, weights, and dichotomy criteria for Gaussian-based measures.

Covers the diagonal-covariance Gaussian dichotomy statistic, per-mode
Hellinger overlaps with the Kakutani product criterion, Gibbs reweighting
of Gaussian base measures by annealed importance sampling (one level with
no moves is plain self-normalized importance sampling), shift
log-densities for Gaussian measures, and the finite-dimensional
entropy-maximization check.

Shift densities are computed per independent real coordinate: a complex
mode with E|c_n|^2 = sigma_n^2 contributes

    (2 Re(h_n conj(x_n)) - |h_n|^2) / sigma_n^2,

a real coordinate (paired modes of a real field, or the real mode 0)
half of that.  Summing the real-field formula over n = -N..N double
counts conjugate pairs exactly as required, so both cases satisfy
E[exp(L)] = 1 and E[exp(2L)] = exp(||h||_H^2) with ||h||_H the shift norm
returned by ``cameron_martin_norm_sq``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import GaussianFieldSpec, _check_shift, mode_std, sample_matrix
from .parallel import CHUNK, map_chunks
from .rng import RandomSeed, generator
from .spectral import TorusField, grid_for, synthesize, truncate

__all__ = [
    "DichotomyVerdict",
    "GibbsSpec",
    "SingularShiftError",
    "covariance_eigenvalues",
    "feldman_hajek_statistic",
    "hellinger_mode",
    "kakutani_test",
    "kakutani_power_law",
    "gibbs_log_weight_matrix",
    "GibbsEnsemble",
    "gibbs_ensemble",
    "normalized_weights",
    "cameron_martin_log_density",
    "cameron_martin_log_density_matrix",
    "cameron_martin_norm_sq",
    "cm_criterion_power_law",
    "EntropyReport",
    "entropy_check_finite_dim",
    "grid_entropy",
]


class SingularShiftError(ValueError):
    """Shift has mass on a direction where the base measure has none."""


# ---------------------------------------------------------------------------
# Gaussian dichotomies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomyVerdict:
    """Outcome of an equivalence-vs-singularity test for two measures."""

    verdict: str  # "equivalent" | "singular" | "undecided"
    statistic: float  # may be math.inf
    partial_ns: tuple
    partial_sums: tuple
    divergence_detected: bool = False

    def __post_init__(self):
        if self.verdict not in ("equivalent", "singular", "undecided"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "equivalent" and not math.isfinite(self.statistic):
            raise ValueError("equivalent verdict requires a finite statistic")
        if self.verdict == "singular" and not (
            self.divergence_detected or math.isinf(self.statistic)
        ):
            raise ValueError("singular verdict requires detected divergence")


def covariance_eigenvalues(beta: float, s: float, n_values) -> np.ndarray:
    """Diagonal covariance spectrum lambda_n = beta^-1 |n|^(2s-2), n != 0."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    n = np.asarray(n_values, dtype=np.float64)
    if np.any(n == 0):
        raise ValueError("mode 0 has no covariance eigenvalue here")
    return np.abs(n) ** (2.0 * s - 2.0) / beta


def _doubling_checkpoints(n_max: int) -> tuple:
    """Partial-sum checkpoints 1, 2, 4, ... below n_max, then n_max."""
    ns = []
    k = 1
    while k < n_max:
        ns.append(k)
        k *= 2
    return tuple(ns) + (n_max,)


def feldman_hajek_statistic(
    beta: float, gamma: float, s: float = 0.0, n_max: int = 100_000
) -> DichotomyVerdict:
    """Dichotomy statistic for the pair of scaled Gaussian measures.

    The per-mode term ((lambda_n(beta) - lambda_n(gamma)) /
    (lambda_n(beta) + lambda_n(gamma)))^2 equals ((gamma - beta) /
    (gamma + beta))^2 independently of n and s, so the partial sums grow
    linearly and the verdict depends on beta == gamma alone.
    """
    if beta <= 0 or gamma <= 0:
        raise ValueError("beta and gamma must be > 0")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    del s  # the eigenvalue ratio is independent of the realization index
    term = ((gamma - beta) / (gamma + beta)) ** 2
    ns = _doubling_checkpoints(n_max)
    sums = tuple(2.0 * n * term for n in ns)
    if term == 0.0:
        return DichotomyVerdict("equivalent", 0.0, ns, sums)
    return DichotomyVerdict("singular", math.inf, ns, sums,
                            divergence_detected=True)


def hellinger_mode(u_hat_n: complex, v_hat_n: complex) -> float:
    """Per-mode Hellinger overlap exp(-|v_n|^2 / (8 |u_n|^2)).

    Degenerate directions: u_n = 0 forces overlap 0 unless v_n = 0 too.
    """
    au = abs(u_hat_n)
    av = abs(v_hat_n)
    if au == 0.0:
        return 1.0 if av == 0.0 else 0.0
    return float(np.exp(-(av * av) / (8.0 * au * au)))


# Heuristic: compare partial sums at half and full depth.
_GROWTH_MARGIN = 10.0


def kakutani_test(u_hat, v_hat, modes=None) -> DichotomyVerdict:
    """Product-measure dichotomy from the statistic sum |v_n|^2 / |u_n|^2.

    A zero base coefficient against a nonzero shift coefficient is an
    immediate singular verdict.  Otherwise finite sequences are classified
    by tail growth: with S(N) the partial sum over |n| <= N, a ratio
    S(2N)/S(N) > 1 + 10/N reads as divergence.  Declared power-law inputs
    should use ``kakutani_power_law`` for the closed-form verdict.
    """
    u = np.abs(np.asarray(u_hat, dtype=np.complex128))
    v = np.abs(np.asarray(v_hat, dtype=np.complex128))
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u_hat and v_hat must be 1-d sequences of equal length")
    bad = (u == 0) & (v > 0)
    order = np.argsort(np.abs(np.asarray(modes))) if modes is not None \
        else np.arange(u.size)
    mags = np.abs(np.asarray(modes))[order] if modes is not None \
        else np.arange(1, u.size + 1)
    if np.any(bad):
        return DichotomyVerdict("singular", math.inf, (), (),
                                divergence_detected=True)
    terms = np.zeros_like(u)
    nz = u > 0
    terms[nz] = (v[nz] / u[nz]) ** 2
    cum = np.cumsum(terms[order])
    statistic = float(cum[-1]) if cum.size else 0.0
    n_full = float(mags[-1]) if cum.size else 0.0
    checkpoints = max(1, cum.size // 8)
    partial_ns = tuple(float(m) for m in mags[checkpoints - 1::checkpoints])
    partial_sums = tuple(float(c) for c in cum[checkpoints - 1::checkpoints])
    if statistic == 0.0:
        return DichotomyVerdict("equivalent", 0.0, partial_ns, partial_sums)
    half = n_full / 2.0
    s_half = float(cum[np.searchsorted(mags, half, side="right") - 1]) \
        if np.any(mags <= half) else 0.0
    if s_half <= 0.0:
        return DichotomyVerdict("undecided", statistic, partial_ns, partial_sums)
    diverging = statistic / s_half > 1.0 + _GROWTH_MARGIN / half
    if diverging:
        return DichotomyVerdict("singular", statistic, partial_ns, partial_sums,
                                divergence_detected=True)
    return DichotomyVerdict("equivalent", statistic, partial_ns, partial_sums)


def kakutani_power_law(
    u_decay: float, v_decay: float, n_max: int = 100_000
) -> DichotomyVerdict:
    """Closed-form verdict for |u_n| = |n|^-u_decay, |v_n| = |n|^-v_decay.

    On the circle the statistic is sum_{n != 0} n^(2(u_decay - v_decay)),
    so the measures are equivalent iff 2 (v_decay - u_decay) > 1.  Partial
    sums up to n_max (both signs of each |n|) are reported for diagnostics.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    cum = np.cumsum(2.0 * n ** (2.0 * (u_decay - v_decay)))
    ns = _doubling_checkpoints(n_max)
    partial = tuple(float(cum[i - 1]) for i in ns)
    equivalent = 2.0 * (v_decay - u_decay) > 1
    if equivalent:
        return DichotomyVerdict("equivalent", float(cum[-1]), ns, partial)
    return DichotomyVerdict("singular", math.inf, ns, partial,
                            divergence_detected=True)


# ---------------------------------------------------------------------------
# Gibbs reweighting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GibbsSpec:
    """Reweighting of a Gaussian base by the nonlinear Hamiltonian term.

    The quadratic (mass and gradient) part of the Hamiltonian lives in the
    base spec; the weight only carries -/+ (beta/p) int |u|^p so nothing is
    double counted.
    """

    p: int
    sign: str  # "defocusing" | "focusing"
    beta: float
    base: GaussianFieldSpec
    cutoff_B: float | None = None

    def __post_init__(self):
        if self.p < 3:
            raise ValueError("nonlinearity power p must be an integer >= 3")
        if self.sign not in ("defocusing", "focusing"):
            raise ValueError(f"bad sign {self.sign!r}")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.sign == "focusing":
            if self.p > 6:
                raise ValueError("focusing weight is not normalizable for p > 6")
            if self.cutoff_B is None:
                raise ValueError(
                    "focusing weight requires an L2 cutoff radius cutoff_B"
                )
        if self.cutoff_B is not None and self.cutoff_B <= 0:
            raise ValueError("cutoff_B must be > 0")


def gibbs_log_weight_matrix(
    coeffs: np.ndarray,
    spec: GibbsSpec,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched log density factor -/+ (beta/p) int |u|^p and cutoff
    indicator for coefficient rows.

    The integral is the exact quadrature on ``grid_for(N, p)``.  Defocusing
    weights are always <= 0 (density bounded by 1), which is what licenses
    the rejection-sampling cross-check.  ``work``, a pair of (rows, M)
    complex and float buffers, holds the grid values u and |u|^p in place
    of fresh arrays.
    """
    n_max = (coeffs.shape[-1] - 1) // 2
    u_buf, power_buf = (None, None) if work is None else work
    u = synthesize(coeffs, grid_for(n_max, spec.p), out=u_buf)
    power = np.abs(u, out=power_buf)
    np.power(power, spec.p, out=power)
    integral = 2.0 * np.pi * np.mean(power, axis=-1)
    sgn = -1.0 if spec.sign == "defocusing" else 1.0
    log_w = sgn * (spec.beta / spec.p) * integral
    if spec.cutoff_B is not None:
        l2 = np.sqrt(2.0 * np.pi * np.sum(np.abs(coeffs) ** 2, axis=-1))
        within = l2 <= spec.cutoff_B
    else:
        within = np.ones(coeffs.shape[0], dtype=bool)
    return log_w, within


def normalized_weights(log_w: np.ndarray) -> tuple[np.ndarray, float]:
    """Stable self-normalized weights and effective sample size 1/sum w^2."""
    log_w = np.asarray(log_w, dtype=np.float64)
    finite = np.isfinite(log_w)
    if not np.any(finite):
        raise ValueError("all weights vanish (cutoff excluded every sample?)")
    w = np.zeros_like(log_w)
    shifted = log_w[finite] - np.max(log_w[finite])
    w[finite] = np.exp(shifted)
    w /= w.sum()
    ess = 1.0 / float(np.sum(w ** 2))
    return w, ess


@dataclass(frozen=True)
class GibbsEnsemble:
    """Weighted sample of the Gibbs measure with degeneracy diagnostics."""

    coeffs: np.ndarray  # (m, 2N+1)
    log_weights: np.ndarray
    weights: np.ndarray  # normalized
    ess: float
    flagged: bool  # ESS below the 1% reliability floor


ESS_FLOOR_FRACTION = 0.01
# The annealing schedule of every Gibbs ensemble the lab draws by default:
# tempered levels, and pCN moves per level.
AIS_LEVELS = 96
AIS_PCN_STEPS = 3
# pCN proposal c' = sqrt(1 - s^2) c + s xi with xi drawn from the base.
PCN_STEP_SIZE = 0.5


def _ais_chunk(
    spec: GibbsSpec,
    rng: np.random.Generator,
    levels: int,
    pcn_steps: int,
    ws: list,
) -> tuple[np.ndarray, np.ndarray]:
    """Anneal one chunk from the Gaussian base to the Gibbs target.

    Tempered targets are base * exp(sgn * lam * (beta/p) V) * cutoff with
    lam ramped quadratically from 0 to 1 (fine steps where the weight
    variance is largest); pCN moves keep each tempered level invariant, so
    the accumulated increments are exact importance weights for the target.
    ``ws`` holds the sweep's buffers (potential pair, c, returned as a view,
    prop, step, normals) over the chunk's rows, made once per worker by the
    calling thread: re-making a few hundred KB per pCN step costs faults.
    """
    u, power, c, prop, step, normals = ws
    m = c.shape[0]
    uniforms = np.empty(m)
    gain = np.empty(m)
    accept = np.empty(m, dtype=bool)
    finite = np.empty(m, dtype=bool)

    def potential(c):
        lw, within = gibbs_log_weight_matrix(c, spec, (u, power))
        lw[~within] = -np.inf
        return lw

    sample_matrix(spec.base, m, rng, out=c, normals=normals)
    log_v = potential(c)  # full-strength log weight, sign included
    log_w = np.zeros(m)
    lam_prev = 0.0
    root = math.sqrt(1.0 - PCN_STEP_SIZE ** 2)
    for level in range(1, levels + 1):
        lam = (level / levels) ** 2
        log_w += (lam - lam_prev) * log_v
        lam_prev = lam
        for _ in range(pcn_steps):
            np.multiply(root, c, out=prop)
            sample_matrix(spec.base, m, rng, out=step, normals=normals)
            np.multiply(PCN_STEP_SIZE, step, out=step)
            np.add(prop, step, out=prop)
            log_v_prop = potential(prop)
            np.log(rng.random(out=uniforms), out=uniforms)
            with np.errstate(invalid="ignore"):
                np.subtract(log_v_prop, log_v, out=gain)
                np.multiply(lam, gain, out=gain)
                np.less(uniforms, gain, out=accept)
            accept &= np.isfinite(log_v_prop, out=finite)
            np.copyto(c, prop, where=accept[:, np.newaxis])
            np.copyto(log_v, log_v_prop, where=accept)
    return c, log_w


def gibbs_ensemble(
    spec: GibbsSpec,
    m_samples: int,
    seed: RandomSeed,
    levels: int = AIS_LEVELS,
    pcn_steps: int = AIS_PCN_STEPS,
    lane_index: int = 0,
    n_threads: int | None = None,
) -> GibbsEnsemble:
    """Weighted ensemble targeting the truncated Gibbs measure.

    Annealed importance sampling (Neal 2001): the weight is tempered
    through ``levels`` intermediate targets with ``pcn_steps`` pCN moves
    each, which keeps the importance identity exact while pushing the
    effective sample size toward m for sharp weights (large N or beta).
    ``levels=1, pcn_steps=0`` is plain self-normalized importance sampling:
    Gaussian base draws weighted by the Gibbs density.  Fixed-size chunks
    draw from chunk-indexed random paths on up to n_threads threads (None:
    the default count), so results do not depend on thread count or chunk
    order.
    """
    if m_samples < 100:
        raise ValueError("m_samples must be >= 100")
    if levels < 1 or pcn_steps < 0:
        raise ValueError(f"levels must be >= 1 and pcn_steps >= 0, got {levels}, {pcn_steps}")
    width = 2 * spec.base.n_max + 1
    coeffs = np.empty((m_samples, width), dtype=np.complex128)
    log_w = np.empty(m_samples)

    def workspace():
        rows = min(m_samples, CHUNK)
        k = spec.base.n_max if spec.base.real_valued else width
        m_points = grid_for(spec.base.n_max, spec.p)
        return (np.empty((rows, m_points), dtype=np.complex128), np.empty((rows, m_points)),
                *np.empty((3, rows, width), dtype=np.complex128), np.empty((rows, 2, k)))

    def run_chunk(index, start, stop, ws):
        rng = generator(seed, lane=lane_index, sub=1, sample=index)
        c, lw = _ais_chunk(spec, rng, levels, pcn_steps, [w[:stop - start] for w in ws])
        coeffs[start:stop] = c
        log_w[start:stop] = lw

    map_chunks(run_chunk, m_samples, n_threads, CHUNK, workspace)
    weights, ess = normalized_weights(log_w)
    flagged = ess < ESS_FLOOR_FRACTION * m_samples
    if flagged:
        warnings.warn(
            f"gibbs_ensemble weight degeneracy: ESS={ess:.1f} "
            f"< {ESS_FLOOR_FRACTION:.0%} of m={m_samples}",
            stacklevel=2,
        )
    return GibbsEnsemble(coeffs, log_w, weights, ess, flagged)


# ---------------------------------------------------------------------------
# Shift densities (Cameron-Martin direction)
# ---------------------------------------------------------------------------

def _shift_arrays(h: TorusField, base: GaussianFieldSpec) -> tuple[np.ndarray, np.ndarray]:
    hc = _check_shift(h, base).coeffs
    sig = mode_std(base)
    dead = (sig == 0.0) & (np.abs(hc) > 0.0)
    if np.any(dead):
        modes = np.arange(-base.n_max, base.n_max + 1)[dead]
        raise SingularShiftError(
            f"shift has mass on modes {modes.tolist()} with zero base variance"
        )
    return hc, sig


def cameron_martin_log_density_matrix(
    h: TorusField, x_coeffs: np.ndarray, base: GaussianFieldSpec
) -> np.ndarray:
    """log d(rho shifted by h)/d(rho) evaluated at batched coefficient rows."""
    hc, sig = _shift_arrays(h, base)
    live = sig > 0.0
    inv_var = np.zeros_like(sig)
    inv_var[live] = sig[live] ** (-2.0)
    cross = np.real(hc[np.newaxis, :].conj() * x_coeffs) @ inv_var
    norm = float(np.sum(np.abs(hc) ** 2 * inv_var))
    if base.real_valued:
        return cross - 0.5 * norm
    return 2.0 * cross - norm


def cameron_martin_log_density(
    h: TorusField, x: TorusField, base: GaussianFieldSpec
) -> float:
    """Log shift density at a single field; additive under composed shifts."""
    xc = truncate(x, base.n_max).coeffs
    return float(cameron_martin_log_density_matrix(h, xc[np.newaxis, :], base)[0])


def cameron_martin_norm_sq(h: TorusField, base: GaussianFieldSpec) -> float:
    """Squared shift norm ||h||_H^2; exp of it is the weight second moment."""
    hc, sig = _shift_arrays(h, base)
    live = sig > 0.0
    norm = float(np.sum(np.abs(hc[live]) ** 2 / sig[live] ** 2))
    return norm if base.real_valued else 2.0 * norm


def cm_criterion_power_law(shift_decay: float, base: GaussianFieldSpec) -> bool:
    """Infinite-truncation admissibility of a power-law shift |v_n| ~ n^-q:
    whether sum |v_n|^2 / sigma_n^2 converges as N -> infinity."""
    sigma_decay = 0.0 if base.family == "white" else float(base.alpha)
    return 2.0 * (shift_decay - sigma_decay) > 1.0


# ---------------------------------------------------------------------------
# Entropy maximization on a grid
# ---------------------------------------------------------------------------

MAX_GRID_CELLS = 1_000_000
# Steps along each projected direction, in units of a quarter of max f*.
ENTROPY_LAMBDAS = (-1.0, -0.5, 0.5, 1.0)


def grid_entropy(density: np.ndarray, cell_volume: float) -> float:
    """Discrete entropy -sum f log f * vol with the 0 log 0 = 0 convention."""
    f = np.asarray(density, dtype=np.float64)
    pos = f > 0.0
    return float(-np.sum(f[pos] * np.log(f[pos])) * cell_volume)


@dataclass(frozen=True)
class EntropyReport:
    """Gibbs density against energy-matched perturbations on a grid."""

    beta: float
    entropy: float
    average_energy: float
    n_cells: int
    directions_tested: int
    directions_skipped: int
    max_perturbed_entropy: float
    min_entropy_drop: float
    all_nonincreasing: bool
    strict_decrease: bool
    notes: tuple


def _project_direction(
    g: np.ndarray, f_star: np.ndarray, h: np.ndarray, cell_volume: float
) -> np.ndarray:
    """Correct g within span{f*, H f*} so mass and mean energy are unchanged.

    The constraints are linear: sum(g + a u1 + b u2) = 0 and
    sum(H (g + a u1 + b u2)) = 0 with u1 = f*, u2 = H f*.
    """
    u1 = f_star
    u2 = h * f_star
    m = np.array(
        [[np.sum(u1), np.sum(u2)], [np.sum(h * u1), np.sum(h * u2)]]
    ) * cell_volume
    rhs = -np.array([np.sum(g), np.sum(h * g)]) * cell_volume
    if abs(np.linalg.det(m)) < 1e-30 * max(1.0, np.max(np.abs(m)) ** 2):
        # Degenerate (constant H): only the mass constraint binds.
        a = -np.sum(g) / np.sum(u1)
        return g + a * u1
    a, b = np.linalg.solve(m, rhs)
    return g + a * u1 + b * u2


def entropy_check_finite_dim(
    hamiltonian: np.ndarray,
    beta: float,
    cell_volume: float,
    n_directions: int = 20,
    seed: RandomSeed = RandomSeed(0),
    directions=None,
) -> EntropyReport:
    """Verify the Gibbs density maximizes entropy at fixed average energy.

    Works entirely with the discrete (midpoint-rule) functionals, for which
    the normalized exp(-beta H) is the exact unique maximizer, so every
    admissible energy-matched perturbation must strictly decrease the
    entropy.  Perturbations that lose positivity are skipped with a note.
    """
    h = np.asarray(hamiltonian, dtype=np.float64)
    if h.size > MAX_GRID_CELLS:
        raise ValueError(f"grid too large ({h.size} cells > {MAX_GRID_CELLS})")
    if not np.all(np.isfinite(h)):
        raise ValueError("hamiltonian values must be finite")
    if beta <= 0:
        raise ValueError("beta must be > 0")

    f_star = np.exp(-beta * (h - h.min()))
    z = np.sum(f_star) * cell_volume
    if not np.isfinite(z) or z <= 0:
        raise ValueError("exp(-beta H) is not integrable on this grid")
    f_star /= z
    s_star = grid_entropy(f_star, cell_volume)
    energy = float(np.sum(h * f_star) * cell_volume)

    rng = generator(seed)
    if directions is None:
        if n_directions < 1:
            raise ValueError(f"n_directions must be >= 1, got {n_directions}")
        directions = [rng.standard_normal(h.shape) * f_star for _ in range(n_directions)]

    notes = []
    tested = 0
    skipped = 0
    max_perturbed = -math.inf
    min_drop = math.inf
    peak = float(np.max(f_star))
    for idx, g in enumerate(directions):
        g_proj = _project_direction(np.asarray(g, dtype=np.float64), f_star, h,
                                    cell_volume)
        g_peak = float(np.max(np.abs(g_proj)))
        if g_peak == 0.0:
            # Null direction: f_lambda = f_star exactly.
            tested += 1
            max_perturbed = max(max_perturbed, s_star)
            continue
        g_proj = g_proj * (0.25 * peak / g_peak)
        used = False
        for lam in ENTROPY_LAMBDAS:
            f_lam = f_star + lam * g_proj
            if np.min(f_lam) < 0.0:
                notes.append(f"direction {idx}, lambda {lam}: positivity lost, skipped")
                continue
            used = True
            s_lam = grid_entropy(f_lam, cell_volume)
            max_perturbed = max(max_perturbed, s_lam)
            min_drop = min(min_drop, s_star - s_lam)
        if used:
            tested += 1
        else:
            skipped += 1
    return EntropyReport(
        beta=beta,
        entropy=s_star,
        average_energy=energy,
        n_cells=int(h.size),
        directions_tested=tested,
        directions_skipped=skipped,
        max_perturbed_entropy=max_perturbed,
        min_entropy_drop=min_drop,
        all_nonincreasing=max_perturbed <= s_star + 1e-12,
        strict_decrease=min_drop > 0.0,
        notes=tuple(notes),
    )
