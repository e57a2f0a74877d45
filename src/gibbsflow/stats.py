"""Statistical machinery shared by the experiment drivers.

The weighted-KS bootstrap takes its replicates' running sums by a blocked
scan (one small triangular GEMM per block), not numpy's serial ``cumsum``.
Its sums round in another order, so a replicate's sup moves by about 1e-16,
far inside the 1e-12 slack of the exceedance test: the draws, weights and
observed statistics keep their bits, and so do the counts and p-values.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ks_two_sample",
    "ks_exact_tails",
    "holm_adjust",
    "wilson_interval",
    "spearman_rho",
    "standard_error",
    "uniformity_ks",
    "weighted_ks_bootstrap",
]

# Bootstrap replicates held at once, replicates per block of the scan,
# and pooled positions per run of its in-block running sums.
_BOOTSTRAP_BATCH = 250
_BOOTSTRAP_BLOCK = 50
_SCAN_BLOCK = 16


def ks_two_sample(xs_a: np.ndarray, xs_b: np.ndarray) -> list[tuple[float, float]]:
    """Two-sample Kolmogorov-Smirnov distance and exact p-value, per observable.

    ``xs_a`` and ``xs_b`` (n_obs, m) hold one row per panel observable,
    evaluated on two ensembles of m members each.  Returns
    [(statistic, p)] in panel order.  With equal sizes the distance lives
    on the lattice h/m; h is the largest gap between the two samples'
    counts at or below a pooled point (so ties are handled as by the
    ECDFs), and p is the exact null tail P(D >= h/m) of ``ks_exact_tails``,
    evaluated for the whole panel in one pass.
    """
    xs_a = np.asarray(xs_a, dtype=np.float64)
    xs_b = np.asarray(xs_b, dtype=np.float64)
    if xs_a.ndim != 2 or xs_a.shape != xs_b.shape:
        raise ValueError(f"need two (n_obs, m) panels of equal size, got"
                         f" shapes {xs_a.shape} and {xs_b.shape}")
    m = xs_a.shape[1]
    hs = []
    for xa, xb in zip(xs_a, xs_b):
        sa, sb = np.sort(xa), np.sort(xb)
        both = np.concatenate([sa, sb])  # runs of sorted queries search fast
        gap = (np.searchsorted(sa, both, side="right")
               - np.searchsorted(sb, both, side="right"))
        hs.append(int(np.max(np.abs(gap))))
    return [(h / m, p) for h, p in zip(hs, ks_exact_tails(hs, m))]


def ks_exact_tails(hs, m: int) -> list[float]:
    """Exact null tails P(D >= h/m), for each h in ``hs``, of the two-sample
    KS distance D between two samples of m continuous values each.

    D lives on the lattice j/m; the reflection principle for the pooled
    ranks' lattice path gives

        P(D >= h/m) = 2 sum_{k>=1} (-1)^(k-1) C(2m, m - k h) / C(2m, m),

    summed here in exact integers, so only the final division rounds.  One
    pass of the recurrence C(2m, m-j-1) = C(2m, m-j) (m-j) / (m+j+1), exact
    at every step, yields each C(2m, m - j) that any of the sums needs.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    hs = [int(h) for h in hs]
    terms = {}  # j -> [(h, (-1)^(k-1))] for every h with j = k*h <= m
    for h in {h for h in hs if h > 0}:
        for j in range(h, m + 1, h):
            terms.setdefault(j, []).append((h, 1 if j // h % 2 else -1))
    num = dict.fromkeys(hs, 0)
    central = binom = math.comb(2 * m, m)
    for j in range(1, max(terms, default=0) + 1):
        binom = binom * (m - j + 1) // (m + j)  # C(2m, m - j)
        for h, sign in terms.get(j, ()):
            num[h] += sign * binom
    return [1.0 if h <= 0 else 2 * num[h] / central for h in hs]


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
    from scipy import stats as sps

    res = sps.spearmanr(np.asarray(x), np.asarray(y))
    return float(res.statistic)


def standard_error(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        return float("inf")
    return float(np.std(x, ddof=1) / np.sqrt(x.size))


def uniformity_ks(p_values) -> tuple[float, float]:
    """One-sample KS test of p-values against Uniform(0, 1)."""
    from scipy import stats as sps

    res = sps.kstest(np.asarray(p_values), "uniform")
    return float(res.statistic), float(res.pvalue)


def weighted_ks_bootstrap(
    xs_a: np.ndarray,
    wa: np.ndarray,
    xs_b: np.ndarray,
    wb: np.ndarray,
    rng: np.random.Generator,
    reps: int = 2000,
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
    ``_BOOTSTRAP_BATCH`` replicates are held, in one buffer filled in place
    and scanned by ``_count_exceedances``, whose counts are those of one
    sequential ``cumsum`` per replicate (see the module docstring).
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

    # Observable k's pooled position q*b + t moves to row t*nblk + q of its
    # gather; the padding positions past the end read a zero row.
    b = _SCAN_BLOCK
    nblk = -(-(na + nb) // b)
    orders = np.pad(orders, ((0, 0), (0, nblk * b - na - nb)), constant_values=na + nb)
    orders = orders.reshape(n_obs, nblk, b).transpose(0, 2, 1).reshape(n_obs, -1)

    exceed = np.zeros(n_obs, dtype=np.int64)
    batch = np.empty((min(_BOOTSTRAP_BATCH, reps), na + nb))
    done = 0
    while done < reps:
        size = min(_BOOTSTRAP_BATCH, reps - done)
        delta = batch[:size]
        wsa, wsb = delta[:, :na], delta[:, na:]
        _resample_weights(rng, wta, wsa)
        wsa /= wsa.sum(axis=1, keepdims=True)
        _resample_weights(rng, wtb, wsb)
        wsb /= wsb.sum(axis=1, keepdims=True)
        np.subtract(wsa, wta, out=wsa)
        np.subtract(wtb, wsb, out=wsb)
        _count_exceedances(delta, orders, d_obs - 1e-12, exceed)
        done += size
    p = (1.0 + exceed) / (reps + 1.0)
    return [(float(d), float(pk)) for d, pk in zip(d_obs, p)]


def _count_exceedances(delta: np.ndarray, orders: np.ndarray, floor: np.ndarray,
                       exceed: np.ndarray) -> None:
    """Add to ``exceed[k]`` the replicates (rows of ``delta``) whose sup
    |running sum| over observable k's pooled order is >= ``floor[k]``;
    ``orders`` holds the padded orders in strided-block order.

    Per ``_BOOTSTRAP_BLOCK`` replicates the block is laid out member-major,
    with a zero row for the padding; per observable one gather puts each
    ``_SCAN_BLOCK`` run of pooled positions down a column, one triangular
    GEMM takes every running sum within a run, and the running sum of the
    run totals is added through each run's max and min.  The buffers are
    made here, after the batch's draws are gone.
    """
    b, (size, n), padded = _SCAN_BLOCK, delta.shape, orders.shape[1]
    width = min(_BOOTSTRAP_BLOCK, size)
    members, gathered, sums = (np.empty(k * width) for k in (n + 1, padded, padded))
    tri = np.tril(np.ones((b, b)))
    for lo in range(0, size, width):
        r = min(width, size - lo)
        block = members[:(n + 1) * r].reshape(n + 1, r)
        block[:n], block[n] = delta[lo:lo + r].T, 0.0
        g, s = (x[:padded * r].reshape(b, -1) for x in (gathered, sums))
        for k, order in enumerate(orders):
            np.take(block, order, axis=0, out=g.reshape(padded, r), mode="clip")
            runs = np.matmul(tri, g, out=s).reshape(b, -1, r)
            offset = np.cumsum(runs[-1, :-1], axis=0)  # sum before run q + 1
            top, bottom = runs.max(axis=0), runs.min(axis=0)
            top[1:] += offset
            bottom[1:] += offset
            # max |off + s| over a run is max(off + max s, -(off + min s)),
            # exactly, as rounding is monotone.
            np.maximum(top, np.negative(bottom, out=bottom), out=top)
            exceed[k] += np.count_nonzero(top.max(axis=0) >= floor[k])


def _resample_weights(rng: np.random.Generator, w: np.ndarray, out: np.ndarray) -> None:
    """Each row of ``out`` gets ``w`` times the counts of n uniform draws
    from n cells, n = w.size; one draw, counted per ``_BOOTSTRAP_BLOCK``
    rows."""
    n = w.size
    draws = rng.integers(0, n, size=(out.shape[0], n))
    for lo in range(0, len(draws), _BOOTSTRAP_BLOCK):
        block = draws[lo:lo + _BOOTSTRAP_BLOCK]
        block += np.arange(len(block))[:, np.newaxis] * n
        counts = np.bincount(block.ravel(), minlength=block.size)
        np.multiply(counts.reshape(block.shape), w, out=out[lo:lo + len(block)])
