"""Independent oracles used to validate the library's fast paths.

Everything here recomputes quantities by a different route than the code
under test: dense quadrature instead of exact collocation, FFT analyzers
(``analyze``, ``analyze_real``) instead of the pruned DFT matrices of
``gibbsflow.spectral.band_matrices``, rejection sampling instead of
importance weighting, a general-purpose constrained optimizer instead
of the per-mode Lagrange formula, and FFT round-trip steppers instead of
the matrix-product steppers of ``gibbsflow.integrators``.
"""

import numpy as np
from scipy.optimize import minimize

from gibbsflow.integrators import EquationSpec
from gibbsflow.spectral import (
    TorusField,
    _require_points,
    from_half,
    synthesize,
)


def dense_quadrature_lp(f: TorusField, p: float, m: int = 16384) -> float:
    """Riemann sum of |u(x)|^p on a dense grid, built without FFTs."""
    x = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    n = np.arange(-f.n_max, f.n_max + 1)
    u = f.coeffs @ np.exp(1j * np.outer(n, x))
    return float(2.0 * np.pi * np.mean(np.abs(u) ** p))


def analyze(values: np.ndarray, n_max: int) -> np.ndarray:
    """Recover coefficient rows c_n, |n| <= N, from batched grid values."""
    m_points = values.shape[-1]
    _require_points(m_points, n_max)
    spec = np.fft.fft(values, axis=-1) / m_points
    idx = np.arange(-n_max, n_max + 1) % m_points
    return spec[..., idx]


def analyze_real(values: np.ndarray, n_max: int) -> np.ndarray:
    """Half-spectrum rows c_0..c_N of batched real grid values."""
    _require_points(values.shape[-1], n_max)
    return np.fft.rfft(values, axis=-1)[..., : n_max + 1] / values.shape[-1]


def rejection_sample_gibbs(spec, m, seed_rng, max_batches=10000):
    """Exact draws from a defocusing Gibbs spec by accept/reject.

    The defocusing density relative to the base is exp(log weight) <= 1,
    so accepting with that probability is exact.  Only workable at small
    truncations where the acceptance rate is reasonable.
    """
    from gibbsflow.fields import sample_matrix
    from gibbsflow.measures import gibbs_log_weight_matrix

    rows = []
    for _ in range(max_batches):
        c = sample_matrix(spec.base, 256, seed_rng)
        log_w = gibbs_log_weight_matrix(c, spec)  # -inf outside the cutoff
        accept = np.log(seed_rng.random(256)) < log_w
        rows.append(c[accept])
        if sum(r.shape[0] for r in rows) >= m:
            break
    got = np.concatenate(rows, axis=0)
    if got.shape[0] < m:
        raise RuntimeError("rejection sampler did not reach the target count")
    return got[:m]


def slsqp_ball_minimum(center, radius, s, v0, weights=None):
    """Constrained minimum of (1/2) sum w |f - v0|^2 over the H^s ball,
    via SLSQP on stacked real/imaginary coordinates.

    The value returned is the objective at a feasible point, so it is an
    upper bound on the true minimum.  SLSQP (scipy 1.17.1) can end with
    exit mode 8, "positive directional derivative for line search", a
    little outside the ball, where the objective may undercut the true
    minimum.  Each result is therefore pulled radially back onto the
    omega-weighted ball before the objective is evaluated.  Near the
    optimum the objective is stationary along the sphere, so the pull-back
    costs only second order in the overshoot.
    """
    n_max = max(center.n_max, v0.n_max)

    def emb(f):
        c = np.zeros(2 * n_max + 1, dtype=np.complex128)
        c[n_max - f.n_max: n_max + f.n_max + 1] = f.coeffs
        return c

    wc, vc = emb(center), emb(v0)
    n = np.arange(-n_max, n_max + 1, dtype=np.float64)
    omega = (1.0 + n * n) ** s
    w = np.ones_like(omega) if weights is None else np.asarray(weights, float)

    def split(z):
        half = z.size // 2
        return z[:half] + 1j * z[half:]

    def objective(z):
        f = split(z)
        return 0.5 * float(np.sum(w * np.abs(f - vc) ** 2))

    def constraint(z):
        f = split(z)
        return radius ** 2 - float(np.sum(omega * np.abs(f - wc) ** 2))

    def into_ball(z):
        d = split(z) - wc
        dist = np.sqrt(np.sum(omega * np.abs(d) ** 2))
        if dist <= radius:
            return z
        f = wc + d * (radius / dist)
        return np.concatenate([f.real, f.imag])

    # Two starts: the ball center and v0 pulled radially inside the ball.
    d = vc - wc
    dist = np.sqrt(np.sum(omega * np.abs(d) ** 2))
    pulled = wc + d * min(1.0, 0.999 * radius / max(dist, 1e-300))
    best = np.inf
    for start in (wc, pulled):
        z0 = np.concatenate([start.real, start.imag])
        res = minimize(
            objective, z0, method="SLSQP",
            constraints=[{"type": "ineq", "fun": constraint}],
            options={"maxiter": 1000, "ftol": 1e-14},
        )
        z = into_ball(res.x)
        # After the pull-back only rounding can leave z outside the ball.
        if constraint(z) >= -1e-12 * radius ** 2:
            best = min(best, objective(z))
    if not np.isfinite(best):
        raise RuntimeError("SLSQP produced no feasible point")
    return best


# ---------------------------------------------------------------------------
# Reference steppers: one FFT round trip per transform and a fresh array
# per operation.  ``fft_stepper(eq, m_points, k, dt).step(state, mass)``
# returns (new state, per-row peak); ``mass`` is each row's sum |c_n|^2 at
# the start (gkdv: without c_0), the projection target and the Wick mean.
# ---------------------------------------------------------------------------


def synthesize_real(half: np.ndarray, m_points: int) -> np.ndarray:
    """Real grid values of real fields given by half-spectrum rows c_0..c_N."""
    _require_points(m_points, half.shape[-1] - 1)
    return np.fft.irfft(half * m_points, n=m_points, axis=-1)


def _onto_mass_sphere(c: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Rescale each row so sum |c_n|^2 equals ``mass`` (zero rows stay)."""
    after = np.sum(np.abs(c) ** 2, axis=-1)
    scale = np.ones_like(after)
    ok = after > 0.0
    scale[ok] = np.sqrt(mass[ok] / after[ok])
    return c * scale[:, np.newaxis]


class _StrangStepper:
    """Batched Strang splitting for nls / wick_nls on complex coefficients."""

    def __init__(self, eq: EquationSpec, m_points: int, n_max: int, dt: float):
        self.eq = eq
        self.m = m_points
        self.k = n_max
        n = np.arange(-n_max, n_max + 1, dtype=np.float64)
        self.phase_half = np.exp(1j * n ** 2 * (dt / 2.0))
        self.dt = dt
        self.exponent = (eq.p - 2) / 2.0

    def step(self, c: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step; returns (new coeffs, per-row max |u|^2 seen)."""
        eq = self.eq
        c = c * self.phase_half
        u = synthesize(c, self.m)
        absq = np.abs(u) ** 2
        peak = np.max(absq, axis=-1)
        if eq.family == "wick_nls":
            theta = absq - 2.0 * mass[:, np.newaxis]
        elif self.exponent == 1.0:
            theta = absq
        else:
            theta = absq ** self.exponent
        u = u * np.exp(1j * (eq.s * self.dt) * theta)
        c = _onto_mass_sphere(analyze(u, self.k), mass)
        c = c * self.phase_half
        return c, peak


class _KdvStepper:
    """Batched integrating-factor RK4 for gkdv on the real half-spectrum."""

    def __init__(self, eq: EquationSpec, m_points: int, n_max: int, dt: float):
        self.eq = eq
        self.m = m_points
        self.k = n_max
        n = np.arange(0, n_max + 1, dtype=np.float64)
        lin = 1j * n ** 3
        self.e_half = np.exp(lin * (dt / 2.0))
        self.e_full = self.e_half ** 2
        self.deriv = eq.s * (1j * n) / (eq.p - 1)
        self.dt = dt

    def _nonlinear(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(nonlinear term, per-row max u^2 on the grid)."""
        u = synthesize_real(h, self.m)
        w = u ** (self.eq.p - 1)
        return self.deriv * analyze_real(w, self.k), np.max(u * u, axis=-1)

    def step(self, h: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step; returns (new half-spectrum, per-row max u^2 seen)."""
        dt, e1, e2 = self.dt, self.e_half, self.e_full
        k1, p1 = self._nonlinear(h)
        n2, p2 = self._nonlinear(e1 * (h + 0.5 * dt * k1))
        k2 = np.conj(e1) * n2
        n3, p3 = self._nonlinear(e1 * (h + 0.5 * dt * k2))
        k3 = np.conj(e1) * n3
        n4, p4 = self._nonlinear(e2 * (h + dt * k3))
        k4 = np.conj(e2) * n4
        h_new = e2 * (h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        h_new[..., 1:] = _onto_mass_sphere(h_new[..., 1:], mass)
        return h_new, np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))


def fft_stepper(eq: EquationSpec, m_points: int, n_max: int, dt: float):
    """The FFT reference stepper for ``eq``'s family."""
    return (_KdvStepper if eq.family == "gkdv" else _StrangStepper)(eq, m_points, n_max, dt)


def fft_evolve(coeffs, n_max, eq, m_points, dt, n_steps, real_valued=False):
    """Full data-band rows after ``n_steps`` reference steps of size dt on
    the M-point grid (no blowup handling: the data must stay finite)."""
    state = np.array(coeffs[:, n_max:] if real_valued else coeffs, dtype=np.complex128)
    stepper = fft_stepper(eq, m_points, n_max, dt)
    mass = np.sum(np.abs(state[:, 1:] if real_valued else state) ** 2, axis=-1)
    for _ in range(n_steps):
        state, _peak = stepper.step(state, mass)
    return from_half(state) if real_valued else state


# ---------------------------------------------------------------------------
# Reference bootstrap: the same resampling draws as
# ``gibbsflow.stats.weighted_ks_bootstrap``, with each replicate's running
# sum taken by one sequential ``np.cumsum`` over the pooled order.
# ---------------------------------------------------------------------------


def sequential_weighted_ks_bootstrap(xs_a, wa, xs_b, wb, rng, reps=2000):
    """[(statistic, p)] per observable, replicate by replicate."""
    from gibbsflow.stats import _BOOTSTRAP_BATCH, _resample_weights

    xs_a = np.asarray(xs_a, dtype=np.float64)
    xs_b = np.asarray(xs_b, dtype=np.float64)
    na, nb = xs_a.shape[1], xs_b.shape[1]
    wta = np.asarray(wa, dtype=np.float64) / np.sum(wa)
    wtb = np.asarray(wb, dtype=np.float64) / np.sum(wb)
    orders = np.argsort(np.concatenate([xs_a, xs_b], axis=1), axis=1,
                        kind="stable")
    signed = np.concatenate([wta, -wtb])
    d_obs = np.max(np.abs(np.cumsum(signed[orders], axis=1)), axis=1)
    exceed = np.zeros(len(orders), dtype=np.int64)
    done = 0
    while done < reps:
        size = min(_BOOTSTRAP_BATCH, reps - done)
        wsa, wsb = np.empty((size, na)), np.empty((size, nb))
        _resample_weights(rng, wta, wsa)
        _resample_weights(rng, wtb, wsb)
        delta = np.concatenate([wsa / wsa.sum(axis=1, keepdims=True) - wta,
                                wtb - wsb / wsb.sum(axis=1, keepdims=True)], axis=1)
        for k, order in enumerate(orders):
            sup = np.max(np.abs(np.cumsum(delta[:, order], axis=1)), axis=1)
            exceed[k] += np.count_nonzero(sup >= d_obs[k] - 1e-12)
        done += size
    p = (1.0 + exceed) / (reps + 1.0)
    return [(float(d), float(pk)) for d, pk in zip(d_obs, p)]
