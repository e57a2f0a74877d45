"""Pseudospectral integrators for the three truncated equation families.

Sign conventions (s = +1 for "plus", -1 for "minus"):

    nls       i u_t - u_xx + s |u|^(p-2) u = 0
    wick_nls  i u_t - u_xx + s u (|u|^2 - 2 avg|u|^2) = 0   (p = 4)
    gkdv      u_t + u_xxx - s u^(p-2) u_x = 0

For the Schroedinger families s = +1 is the defocusing case and the
conserved energy is (1/2) int |u_x|^2 + (s/p) int |u|^p (the Wick variant
subtracts the mass-squared term, see ``hamiltonian``).  For gkdv, s = +1
pairs with + (1/(p(p-1))) int u^p in the energy.

Schemes: Strang splitting for the Schroedinger families (exact linear
phases around an exact pointwise nonlinear rotation, evaluated on the
padded grid) and integrating-factor classical RK4 for gkdv with the
nonlinearity in conservation form d_x(u^(p-1))/(p-1), dealiased by
padding.  The grid rule is ``spectral.grid_for(N, p)``: the smallest
5-smooth M with M >= p*N + 1 and M >= 2N + 2, so degree-p products of the
band |n| <= N are alias-free.  With galerkin_projected the nonlinearity
is re-truncated to the initial band |n| <= N every evaluation and each
step is projected onto the sphere of its row's mass when its chunk starts,
so mass is conserved to roundoff without drift (Hairer, Lubich & Wanner
2006, sec. IV.4), as the invariance experiments need.  wick_nls takes its
avg|u|^2 from that initial mass too.

Transforms are matrix products, not FFTs: at these band-limited sizes a
GEMM against the pruned DFT matrix of ``spectral.band_matrices`` is faster
than an FFT round trip, and the diagonal linear propagator, derivative,
1/M scaling and (IF-RK4) RK4 weight of each stage are folded into the
matrices, built once per ``evolve_ensemble`` call.  Each chunk of rows
binds the stepper once to the first rows of a workspace the calling
thread made (``map_chunks``) and to batched products over fixed-size row
blocks (``_batched_matmul``), so a step allocates almost nothing.  Health
is one scalar per step: the largest |u|^2 the step's stages saw over the
whole chunk.  Per-row peaks and finiteness are taken only when a step is
unhealthy; a row that blows up is parked and its working row zeroed, so
later steps are healthy again, and the blowup flags do not change
(``evolve_ensemble``, which reads the band from the row width and leaves
the field type to its callers: gkdv needs real fields).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .parallel import map_chunks
from .spectral import (
    TorusField,
    band_matrices,
    from_half,
    grid_for,
    lp_integral,
    mean_square,
    to_physical,
)

__all__ = [
    "EquationSpec",
    "SolverConfig",
    "TrajectoryRecord",
    "EnsembleEvolution",
    "evolve",
    "evolve_ensemble",
    "hamiltonian",
    "mass",
    "gauge_check",
    "GaugeReport",
]

FAMILIES = ("nls", "wick_nls", "gkdv")

BLOWUP_LINF = 1.0e6
# Accuracy guards, validated per run: dt * N^2 for Strang splitting
# (nonlinear phase must stay resolved) and dt * N^3 for the IF-RK4 Airy
# step (the integrating factor removes the linear stiffness; the guard
# covers the advective nonlinearity).
STRANG_DT_N2_BOUND = 1.0
AIRY_DT_N3_BOUND = 8.0
# Most steps a run may plan: one step of one N=1 row took 30-80 us on a
# 2-core x86 host, so 10^7 steps take minutes, while every gate and preset
# plans at most 16,000.  A larger plan is a mistyped dt or horizon.
MAX_STEPS = 10_000_000
# Rows per evolve chunk: a step's ~30 numpy calls cost the same at any
# size.  1024 rows were no faster and raised kdv-white-noise's peak memory.
_EVOLVE_CHUNK = 512
# Multiply-adds per block of ``_batched_matmul``: 1.65e5 to 1e6 ran KdV
# equally fast, and from 5.6e5 a 64-row (65 x 135) product is one block.
_GEMM_BLOCK_MACS = 600_000


@dataclass(frozen=True)
class EquationSpec:
    """Which truncated flow to integrate."""

    family: str
    p: int = 4
    sign: str = "plus"
    galerkin_projected: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected {FAMILIES}")
        if self.sign not in ("plus", "minus"):
            raise ValueError(f"sign must be 'plus' or 'minus', got {self.sign!r}")
        if self.family == "wick_nls" and self.p != 4:
            raise ValueError("wick_nls is cubic by definition (p = 4)")
        if self.p < 3:
            raise ValueError("p must be >= 3")

    @property
    def s(self) -> float:
        return 1.0 if self.sign == "plus" else -1.0


@dataclass(frozen=True)
class SolverConfig:
    """Time step, horizon and recording cadence."""

    dt: float
    t_final: float
    record_every: int = 0  # 0: record endpoints only

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.record_every < 0:
            raise ValueError("record_every must be >= 0")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Snapshots and conserved-quantity series for one trajectory."""

    times: np.ndarray
    fields: tuple
    mass_series: np.ndarray
    hamiltonian_series: np.ndarray
    blowup: bool
    last_valid_time: float
    dt_effective: float


@dataclass(frozen=True)
class EnsembleEvolution:
    """Final states of a batched run, with per-sample blowup flags."""

    coeffs: np.ndarray  # rows of the working band (``_step_plan``)
    blowup: np.ndarray  # bool per row
    last_valid_time: np.ndarray
    dt_effective: float


def _step_plan(n_max: int, eq: EquationSpec, cfg: SolverConfig
               ) -> tuple[int, int, int, float]:
    """(grid size M, working band, step count, signed step) of a run from the
    band |n| <= n_max; raises ValueError when the step breaks the scheme's
    guard or the step count is not finite or above ``MAX_STEPS``.

    The state lives in the data band if projected, else in the largest band
    ``grid_for(n_max, p)`` multiplies without aliasing.
    """
    m_points = grid_for(n_max, eq.p)
    k_work = n_max if eq.galerkin_projected else (m_points - 1) // eq.p
    ratio = abs(cfg.t_final) / cfg.dt  # inf when the quotient overflows
    if not ratio <= MAX_STEPS:
        raise ValueError(f"t_final/dt = {ratio:g} steps exceeds the limit of {MAX_STEPS}")
    n_steps = max(1, int(round(ratio)))
    dt = abs(cfg.t_final) / n_steps
    if eq.family == "gkdv":
        if dt * k_work ** 3 > AIRY_DT_N3_BOUND:
            raise ValueError(
                f"dt={dt:g} violates the if_rk4 guard dt*N^3 <= {AIRY_DT_N3_BOUND}"
                f" at N={k_work}"
            )
    elif dt * k_work ** 2 > STRANG_DT_N2_BOUND:
        raise ValueError(
            f"dt={dt:g} violates the strang guard dt*N^2 <= {STRANG_DT_N2_BOUND}"
            f" at N={k_work}"
        )
    return m_points, k_work, n_steps, math.copysign(dt, cfg.t_final) if cfg.t_final != 0 else dt


def _row_mass(c: np.ndarray) -> np.ndarray:
    """sum |c_n|^2 per row: each row's float view dotted with itself."""
    v = c.view(np.float64)
    return np.einsum("ij,ij->i", v, v)


def _onto_mass_sphere(c: np.ndarray, mass: np.ndarray) -> None:
    """Rescale each row of ``c`` in place so sum |c_n|^2 equals ``mass``
    (zero rows stay)."""
    after = _row_mass(c)
    if after.min() > 0.0:  # no zero or non-finite row: scale in place
        scale = np.sqrt(np.divide(mass, after, out=after), out=after)
    else:
        ok = after > 0.0
        scale = np.ones_like(after)
        scale[ok] = np.sqrt(mass[ok] / after[ok])
    c *= scale[:, np.newaxis]


def _batched_matmul(x: np.ndarray, out: np.ndarray):
    """``product(m)`` writing ``x @ m`` into ``out`` (contiguous chunk
    buffers) as one batched ``np.matmul`` over blocks of B = max(1,
    _GEMM_BLOCK_MACS // (K N)) rows for a (K x N) ``m``, plus one product
    for the remainder; the views are bound here, once.  OpenBLAS threads a
    whole-chunk GEMM on top of the chunk threads, which made 512-row chunks
    twice as slow on two cores; the blocks run as fast as unthreaded BLAS."""
    (rows, k), n = x.shape, out.shape[1]
    block = max(1, _GEMM_BLOCK_MACS // (k * n))
    split = rows - rows % block
    pairs = [(a, o) for a, o in ((x[:split].reshape(-1, block, k),
                                  out[:split].reshape(-1, block, n)),
                                 (x[split:], out[split:])) if len(a)]

    def product(m: np.ndarray) -> None:
        for a, o in pairs:
            np.matmul(a, m, out=o)

    return product


class _StrangStepper:
    """Batched Strang splitting for nls / wick_nls on complex coefficients.

    The half-step linear phase is folded into both transform matrices, so a
    step is one complex GEMM to the grid, the pointwise rotation in place
    and one complex GEMM back.
    """

    def __init__(self, eq: EquationSpec, m_points: int, k_work: int, dt: float):
        self.eq = eq
        self.k = k_work
        self.m = m_points
        n = np.arange(-k_work, k_work + 1, dtype=np.float64)
        phase_half = np.exp(1j * n ** 2 * (dt / 2.0))
        self.synthesis, self.analysis = band_matrices(
            k_work, self.m, False, pre=phase_half, post=phase_half)
        self.dt = dt
        self.exponent = (eq.p - 2) / 2.0

    def buffers(self, rows: int) -> tuple:
        """State pair and work buffers (u, rot, theta) for up to ``rows`` rows."""
        c = np.empty((2, rows, 2 * self.k + 1), dtype=np.complex128)
        return (*c, *np.empty((2, rows, self.m), dtype=np.complex128),
                np.empty((rows, self.m)))

    def bind(self, a: np.ndarray, b: np.ndarray, work: tuple):
        """``step(c, out, per_row=False) -> peak`` for a chunk whose state
        lives in ``a`` and ``b`` (``c, out`` is ``a, b`` or ``b, a``):
        writes the stepped coefficients to ``out`` and returns the max
        |u|^2 seen, over the chunk or (``per_row``) per row; its products,
        and each row's mass from ``a``, are bound here, once."""
        eq, (u, rot, theta) = self.eq, work
        peak = np.empty(a.shape[0])
        mass = _row_mass(a)
        wick_mean = 2.0 * mass[:, np.newaxis]
        angle = eq.s * self.dt
        # (to the grid, back from it) for c = a and for c = b
        products = [(_batched_matmul(c, u), _batched_matmul(u, out))
                    for c, out in ((a, b), (b, a))]

        def step(c: np.ndarray, out: np.ndarray, per_row: bool = False):
            to_grid, from_grid = products[c is b]
            to_grid(self.synthesis)
            np.abs(u, out=theta)
            np.square(theta, out=theta)
            top = np.max(theta, axis=-1, out=peak) if per_row else theta.max()
            if eq.family == "wick_nls":
                np.subtract(theta, wick_mean, out=theta)
            elif self.exponent != 1.0:
                np.power(theta, self.exponent, out=theta)
            np.multiply(theta, angle, out=theta)
            np.cos(theta, out=rot.real)
            np.sin(theta, out=rot.imag)
            np.multiply(u, rot, out=u)
            from_grid(self.analysis)
            if eq.galerkin_projected:
                _onto_mass_sphere(out, mass)
            return top

        return step


class _KdvStepper:
    """Batched integrating-factor RK4 for gkdv on the real half-spectrum.

    Each of the three stage kinds (no factor, e^{L dt/2}, e^{L dt}) owns a
    real synthesis/analysis matrix pair with the integrating factor, the
    conservative derivative and the RK4 weight folded in, so a stage is a
    GEMM to the grid, the pointwise power and a GEMM back into its slope.
    """

    def __init__(self, eq: EquationSpec, m_points: int, k_work: int, dt: float):
        self.eq = eq
        self.k = k_work
        self.m = m_points
        n = np.arange(0, k_work + 1, dtype=np.float64)
        lin = 1j * n ** 3
        e_half = np.exp(lin * (dt / 2.0))
        self.e_full = e_half ** 2
        deriv = eq.s * (1j * n) / (eq.p - 1)
        self.stages = [
            band_matrices(k_work, self.m, True, post=deriv * (dt / 6.0)),
            band_matrices(k_work, self.m, True, pre=e_half,
                          post=np.conj(e_half) * deriv * (dt / 3.0)),
            band_matrices(k_work, self.m, True, pre=self.e_full,
                          post=np.conj(self.e_full) * deriv * (dt / 6.0)),
        ]

    def buffers(self, rows: int) -> tuple:
        """State pair and work buffers (u, y, slope) for up to ``rows`` rows."""
        a, b, y, slope = np.empty((4, rows, self.k + 1), dtype=np.complex128)
        return a, b, np.empty((rows, self.m)), y, slope

    def bind(self, a: np.ndarray, b: np.ndarray, work: tuple):
        """``step(h, out, per_row=False) -> peak`` for a chunk whose state
        lives in ``a`` and ``b`` (``h, out`` is ``a, b`` or ``b, a``):
        writes the stepped half-spectrum to ``out`` and returns the max u^2
        seen, over the chunk or (``per_row``) per row; its products, and
        each row's mass from ``a``, are bound here, once."""
        power, (u, y, slope) = self.eq.p - 1, work
        peak, stage_peak = np.empty((2, a.shape[0]))
        mass = _row_mass(a[:, 1:])
        plain, half, full = self.stages
        # (stage matrices, factor from the last weighted slope to the stage
        # input): 3 dt/6 = 1.5 dt/3 = dt/2 and 3 dt/3 = dt.
        later = ((half, 3.0), (half, 1.5), (full, 3.0))
        from_a, from_b, from_y = (_batched_matmul(x.view(np.float64), u)
                                  for x in (a, b, y))
        to_slope = _batched_matmul(u, slope.view(np.float64))

        def nonlinear(to_grid, synthesis, analysis, axis, into):
            """The stage slope; returns max u^2 over ``axis`` (None: all)."""
            to_grid(synthesis)
            if power == 2:
                np.square(u, out=u)
                top = np.max(u, axis, out=into)
            else:
                # max u^2 is (max |u|)^2 exactly, as rounding is monotone.
                top = np.maximum(np.max(u, axis, out=into), -np.min(u, axis), out=into)
                top = np.square(top, out=into)
                np.power(u, power, out=u)
            to_slope(analysis)
            return top

        def step(h: np.ndarray, out: np.ndarray, per_row: bool = False):
            # Whole-chunk maxima are numpy scalars; np.maximum keeps a NaN.
            axis, into, stage_into = (-1, peak, stage_peak) if per_row else (None,) * 3
            top = nonlinear(from_b if h is b else from_a, *plain, axis, into)
            np.add(h, slope, out=out)  # out accumulates the RK4 sum
            for (synthesis, analysis), factor in later:
                np.multiply(slope, factor, out=y)
                np.add(y, h, out=y)
                top = np.maximum(
                    top, nonlinear(from_y, synthesis, analysis, axis, stage_into), out=into)
                np.add(out, slope, out=out)
            np.multiply(out, self.e_full, out=out)
            if self.eq.galerkin_projected:
                _onto_mass_sphere(out[:, 1:], mass)
            return top

        return step


def evolve_ensemble(
    coeffs: np.ndarray,
    eq: EquationSpec,
    cfg: SolverConfig,
    on_record=None,
    n_threads: int | None = None,
) -> EnsembleEvolution:
    """Evolve a batch of coefficient rows c_-N..c_N under the truncated
    flow, on the grid ``grid_for(N, eq.p)``; the row width gives N.  gkdv
    reads each row as a real field, through its half c_0..c_N.

    Rows that blow up (L-inf above 1e6 or non-finite) are frozen at their
    last valid state and flagged; this is a recorded outcome, not an
    error.  A chunk's step is accepted when the stepper's one health value,
    its peak over the chunk, is within the threshold and a sum over the new
    state is finite.  A step that fails this is redone from the unchanged
    state with per-row peaks and finiteness, so flags, ``last_valid_time``
    and coefficients are those of a per-row check at every step.  A blown
    row is parked in the result (and in records) and its working row
    zeroed; a zero row stays zero and leaves the other rows' bits alone, so
    later steps take the one-value check again.  The rows are integrated
    over the whole horizon in fixed ``_EVOLVE_CHUNK``-row chunks
    (``parallel.chunk_ranges``) on up to ``n_threads`` threads (None:
    ``parallel.default_threads()``), each writing its own rows.  Rows never interact and the chunk plan
    depends only on the row count, so the result is bit-identical for any
    thread count; a row's last bits may depend on the chunk and the block
    it is stepped in, because each step is a batched matrix product over
    the chunk's row blocks, whose size depends only on the matrix shape.

    ``on_record(rows, t, full_coeffs, active)`` is called per chunk at the
    recording cadence, including t=0 and the final time; ``rows`` is the
    chunk's slice of the batch.  It may run on a worker thread and must
    write only to those rows.
    """
    n_max = (coeffs.shape[1] - 1) // 2
    m_points, k_work, n_steps, dt = _step_plan(n_max, eq, cfg)
    use_half = eq.family == "gkdv"
    stepper = (_KdvStepper if use_half else _StrangStepper)(eq, m_points, k_work, dt)
    record_every = cfg.record_every if cfg.record_every > 0 else n_steps

    n_rows, width = coeffs.shape[0], k_work + 1 if use_half else 2 * k_work + 1
    final = np.empty((n_rows, width), dtype=np.complex128)
    active_rows = np.ones(n_rows, dtype=bool)
    last_valid = np.full(n_rows, abs(cfg.t_final))

    def evolve_chunk(_index: int, start: int, stop: int, ws):
        rows = slice(start, stop)
        state, spare, *work = ws
        state.fill(0.0)
        if use_half:
            state[:, :n_max + 1] = coeffs[rows, n_max:]
        else:
            state[:, k_work - n_max: k_work + n_max + 1] = coeffs[rows]
        step = stepper.bind(state, spare, work)

        active = active_rows[rows]
        chunk_valid = last_valid[rows]
        parked = final[rows]  # a blown row's last valid state

        def emit(step_index: int):
            if on_record is not None:
                cur = np.where(active[:, np.newaxis], state, parked)
                on_record(rows, step_index * dt, from_half(cur) if use_half else cur,
                          active.copy())

        emit(0)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for i in range(1, n_steps + 1):
                # A NaN fails both scalar checks.  Unhealthy: redo the step
                # from the unchanged state, per row.
                if not (step(state, spare) <= BLOWUP_LINF ** 2
                        and np.isfinite(spare.sum())):
                    peak = step(state, spare, per_row=True)
                    blown = active & (~np.isfinite(peak) | (peak > BLOWUP_LINF ** 2)
                                      | ~np.all(np.isfinite(spare), axis=-1))
                    chunk_valid[blown] = (i - 1) * abs(dt)
                    active &= ~blown
                    # Park blown rows; zeroed, they keep later steps healthy.
                    parked[blown] = state[blown]
                    spare[blown] = 0.0
                state, spare = spare, state
                if i % record_every == 0 or i == n_steps:
                    emit(i)
        np.copyto(parked, state, where=active[:, np.newaxis])

    map_chunks(evolve_chunk, n_rows, n_threads, _EVOLVE_CHUNK, stepper.buffers)
    return EnsembleEvolution(
        coeffs=from_half(final) if use_half else final,
        blowup=~active_rows,
        last_valid_time=last_valid,
        dt_effective=dt,
    )


def evolve(f0: TorusField, eq: EquationSpec, cfg: SolverConfig) -> TrajectoryRecord:
    """Integrate one initial field, recording snapshots and invariants."""
    times: list[float] = []
    fields: list[TorusField] = []

    if eq.family == "gkdv" and not f0.real_valued:
        raise ValueError("gkdv evolves real_valued fields only")
    real = eq.family == "gkdv"

    def on_record(_rows, t, full, active):
        times.append(t)
        k = (full.shape[-1] - 1) // 2
        row = full[0]
        if real:
            row = (row + np.conj(row[::-1])) / 2.0  # only writes a -0.0 mean as 0.0
        fields.append(TorusField(k, row, real))

    result = evolve_ensemble(f0.coeffs[np.newaxis, :], eq, cfg, on_record=on_record)
    mass_series = np.array([mass(f) for f in fields])
    ham_series = np.array([hamiltonian(f, eq) for f in fields])
    return TrajectoryRecord(
        times=np.array(times),
        fields=tuple(fields),
        mass_series=mass_series,
        hamiltonian_series=ham_series,
        blowup=bool(result.blowup[0]),
        last_valid_time=float(result.last_valid_time[0]),
        dt_effective=result.dt_effective,
    )


def mass(f: TorusField) -> float:
    """int |u|^2 dx = 2 pi sum |c_n|^2 (conserved by all three flows)."""
    return 2.0 * np.pi * mean_square(f)


def hamiltonian(f: TorusField, eq: EquationSpec) -> float:
    """Conserved energy of the truncated flow (see module conventions); the
    |u|^p quadrature runs on ``grid_for(N, p)``, where it is exact."""
    n = f.modes.astype(np.float64)
    kinetic = np.pi * float(np.sum(n * n * np.abs(f.coeffs) ** 2))
    s = eq.s
    if eq.family == "nls":
        return kinetic + (s / eq.p) * lp_integral(f, eq.p)
    if eq.family == "wick_nls":
        quart = lp_integral(f, 4)
        ms = mean_square(f)
        return kinetic + (s / 4.0) * quart - s * np.pi * ms * ms
    # gkdv: signed integral of u^p
    if not f.real_valued:
        raise ValueError("gkdv energy is defined for real_valued fields")
    u = to_physical(f, grid_for(f.n_max, eq.p)).real
    signed = 2.0 * np.pi * float(np.mean(u ** eq.p))
    return kinetic + (s / (eq.p * (eq.p - 1))) * signed


@dataclass(frozen=True)
class GaugeReport:
    """Pointwise comparison of the plain and Wick-ordered cubic flows."""

    gamma: float
    modulus_discrepancy: float
    phase_residual: float
    times: np.ndarray
    blowup: bool


def gauge_check(u0: TorusField, t_final: float, cfg: SolverConfig,
                sign: str = "plus") -> GaugeReport:
    """Verify the gauge link u_wick(t) = e^{i gamma t} u_nls(t).

    gamma = -2 s avg|u0|^2 uses the conserved mean of |u|^2.  The Wick
    step takes its mean from the initial mass, so the discrete flows differ
    by exactly this phase and both discrepancies are roundoff.
    """
    eq_nls = EquationSpec("nls", p=4, sign=sign)
    eq_wick = EquationSpec("wick_nls", p=4, sign=sign)
    cfg = dataclasses.replace(cfg, t_final=t_final)
    cfg = dataclasses.replace(cfg, record_every=cfg.record_every
                              or max(1, _step_plan(u0.n_max, eq_nls, cfg)[2] // 8))
    traj_a = evolve(u0, eq_nls, cfg)
    traj_b = evolve(u0, eq_wick, cfg)
    gamma = -2.0 * eq_nls.s * mean_square(u0)
    m_points = grid_for(u0.n_max, 4)
    mod_disc = 0.0
    phase_resid = 0.0
    for t, fa, fb in zip(traj_a.times, traj_a.fields, traj_b.fields):
        ua, ub = to_physical(fa, m_points), to_physical(fb, m_points)
        mod_disc = max(mod_disc, float(np.max(np.abs(np.abs(ua) - np.abs(ub)))))
        phase_resid = max(
            phase_resid, float(np.max(np.abs(ub - np.exp(1j * gamma * t) * ua)))
        )
    return GaugeReport(
        gamma=gamma,
        modulus_discrepancy=mod_disc,
        phase_residual=phase_resid,
        times=traj_a.times,
        blowup=traj_a.blowup or traj_b.blowup,
    )
