"""Statistical machinery shared by the experiment drivers."""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as sps

__all__ = [
    "ks_two_sample",
    "ks_exact_tail",
    "holm_adjust",
    "wilson_interval",
    "spearman_rho",
    "standard_error",
    "uniformity_ks",
    "weighted_ks_bootstrap",
]


def ks_two_sample(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov distance and asymptotic p-value."""
    res = sps.ks_2samp(np.asarray(x), np.asarray(y), method="asymp")
    return float(res.statistic), float(res.pvalue)


def ks_exact_tail(h: int, m: int) -> float:
    """Exact null tail P(D >= h/m) of the two-sample KS distance D between
    two samples of m continuous values each.

    D lives on the lattice j/m; the reflection principle for the pooled
    ranks' lattice path gives

        P(D >= h/m) = 2 sum_{k>=1} (-1)^(k-1) C(2m, m - k h) / C(2m, m),

    summed here in exact integers, so only the final division rounds.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if h <= 0:
        return 1.0
    num = sum((-1) ** (k - 1) * math.comb(2 * m, m - k * h)
              for k in range(1, m // h + 1))
    return 2 * num / math.comb(2 * m, m)


def holm_adjust(p_values) -> np.ndarray:
    """Holm step-down adjusted p-values (reject when adjusted < alpha)."""
    p = np.asarray(p_values, dtype=np.float64)
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * p[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted


def wilson_interval(hits: int, n: int, z: float = 1.959963984540054
                    ) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if n <= 0:
        raise ValueError("n must be > 0")
    phat = hits / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return float(max(0.0, center - half)), float(min(1.0, center + half))


def spearman_rho(x, y) -> float:
    """Spearman rank correlation (nan for degenerate inputs)."""
    res = sps.spearmanr(np.asarray(x), np.asarray(y))
    return float(res.statistic)


def standard_error(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        return float("inf")
    return float(np.std(x, ddof=1) / np.sqrt(x.size))


def uniformity_ks(p_values) -> tuple[float, float]:
    """One-sample KS test of p-values against Uniform(0, 1)."""
    res = sps.kstest(np.asarray(p_values), "uniform")
    return float(res.statistic), float(res.pvalue)


def weighted_ks_bootstrap(
    xs_a: np.ndarray,
    wa: np.ndarray,
    xs_b: np.ndarray,
    wb: np.ndarray,
    rng: np.random.Generator,
    reps: int = 2000,
    batch: int = 250,
) -> list[tuple[float, float]]:
    """Two-sample KS for self-normalized weighted ensembles, per observable.

    ``xs_a`` (n_obs, na) and ``xs_b`` (n_obs, nb) hold one row per panel
    observable, evaluated on the members of ensembles A and B, whose
    weights are ``wa`` (na,) and ``wb`` (nb,).  Returns [(statistic, p)]
    in panel order.

    The statistic is the sup difference of the weighted ECDFs over the
    pooled sample points.  Its null distribution is calibrated by the
    pair bootstrap: resample (value, weight) pairs within each ensemble,
    recenter at the observed ECDFs, and count recentered sup differences
    at least as large as the observed one.  This stays valid when weights
    correlate with the observable, where resampling to nominally
    unweighted ensembles of the same size does not (duplicates halve the
    effective size and inflate the false-positive rate).

    The resampled weights depend on the ensembles, not on the observable,
    so each bootstrap replicate is drawn once and shared by the whole
    panel; only the pooled sort order differs between observables.  The
    counts come from ``integers`` plus one offset ``bincount``, which has
    the distribution of a multinomial over equal cells.  Sharing makes the
    panel's p-values dependent; Holm's step-down correction controls the
    family-wise error under any dependence, so it stays valid.  At most
    ``batch`` replicates are held in memory at once.
    """
    xs_a = np.asarray(xs_a, dtype=np.float64)
    xs_b = np.asarray(xs_b, dtype=np.float64)
    n_obs, na = xs_a.shape
    n_obs_b, nb = xs_b.shape
    if n_obs_b != n_obs:
        raise ValueError(f"xs_a has {n_obs} observables, xs_b {n_obs_b}")
    wa = np.asarray(wa, dtype=np.float64)
    wb = np.asarray(wb, dtype=np.float64)
    if wa.shape != (na,) or wb.shape != (nb,):
        raise ValueError(f"weights of shapes {wa.shape}, {wb.shape} do not match"
                         f" ensembles of {na} and {nb} members")
    wta = wa / np.sum(wa)
    wtb = wb / np.sum(wb)

    orders = np.argsort(np.concatenate([xs_a, xs_b], axis=1), axis=1,
                        kind="stable")
    signed = np.concatenate([wta, -wtb])
    d_obs = np.max(np.abs(np.cumsum(signed[orders], axis=1)), axis=1)

    exceed = np.zeros(n_obs, dtype=np.int64)
    done = 0
    while done < reps:
        size = min(batch, reps - done)
        wsa = _uniform_counts(rng, size, na) * wta
        wsa /= wsa.sum(axis=1, keepdims=True)
        wsb = _uniform_counts(rng, size, nb) * wtb
        wsb /= wsb.sum(axis=1, keepdims=True)
        delta = np.concatenate([wsa - wta, wtb - wsb], axis=1)
        for k, order in enumerate(orders):
            g = np.take(delta, order, axis=1)
            np.cumsum(g, axis=1, out=g)
            np.abs(g, out=g)
            exceed[k] += np.count_nonzero(g.max(axis=1) >= d_obs[k] - 1e-12)
        done += size
    p = (1.0 + exceed) / (reps + 1.0)
    return [(float(d), float(pk)) for d, pk in zip(d_obs, p)]


def _uniform_counts(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """(size, n) counts of n uniform draws from n cells per row."""
    flat = rng.integers(0, n, size=(size, n))
    flat += np.arange(size)[:, np.newaxis] * n
    return np.bincount(flat.ravel(), minlength=size * n).reshape(size, n)
