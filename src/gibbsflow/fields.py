"""Samplers for random initial data on the torus.

Three coefficient profiles are supported, all driven by independent
standard complex Gaussians g_n normalized so that E|g_n|^2 = 1
(Re g_n, Im g_n independent N(0, 1/2)):

    fwa     sigma_n = |n|^(-alpha), mode 0 excluded
    fwb     sigma_n = (1 + |n|^(2 alpha))^(-1/2), mode 0 included
    white   sigma_n = 1, mode 0 excluded

Real-valued fields draw modes n = 1..N independently and force
c_{-n} = conj(c_n); c_0 is a real N(0, sigma_0^2) draw when the mean is
included.  With this convention E|c_n|^2 = sigma_n^2 per mode for every
family, real or complex.

Every draw is one ``sample_matrix`` call: all of its rows' mode blocks,
then a real field's mode-0 scalars.  An ensemble on lane l draws chunk c
of the fixed ``parallel.chunk_ranges`` plan from path (l, 0, c), so
results are bit-reproducible and one row is the first row of chunk 0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .parallel import map_chunks
from .rng import RandomSeed, generator
from .spectral import TorusField, truncate

__all__ = [
    "GaussianFieldSpec",
    "mode_std",
    "expected_sobolev_sq",
    "sample",
    "sample_matrix",
    "sample_ensemble",
    "shifted_sample",
    "scaled_sample",
    "sobolev_threshold_probe",
    "GrowthReport",
]

FAMILIES = ("fwa", "fwb", "white")


@dataclass(frozen=True)
class GaussianFieldSpec:
    """Which random Fourier series to draw, and at what truncation."""

    family: str
    n_max: int
    alpha: float | None = None
    real_valued: bool = False
    mean_zero: bool | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.family in ("fwa", "fwb"):
            if self.alpha is None:
                raise ValueError(f"family {self.family!r} requires alpha")
            if not (math.isfinite(self.alpha) and self.alpha >= 0):
                raise ValueError(f"family {self.family!r} needs a finite alpha >= 0,"
                                 f" got {self.alpha}")
        # fwa and white exclude the zero mode by definition.
        mz = self.mean_zero
        if self.family in ("fwa", "white"):
            if mz is False:
                raise ValueError(f"family {self.family!r} is mean-zero by definition")
            mz = True
        elif mz is None:
            mz = False
        object.__setattr__(self, "mean_zero", bool(mz))


def mode_std(spec: GaussianFieldSpec) -> np.ndarray:
    """Per-mode standard deviations sigma_n over n = -N..N (0 = excluded)."""
    n = np.arange(-spec.n_max, spec.n_max + 1, dtype=np.float64)
    if spec.family == "fwa":
        sig = np.zeros_like(n)
        nz = n != 0
        sig[nz] = np.abs(n[nz]) ** (-spec.alpha)
    elif spec.family == "fwb":
        sig = (1.0 + np.abs(n) ** (2.0 * spec.alpha)) ** (-0.5)
    else:
        sig = np.ones_like(n)
    if spec.mean_zero:
        sig[spec.n_max] = 0.0
    return sig


def expected_sobolev_sq(spec: GaussianFieldSpec, s: float) -> float:
    """Closed form E||phi||_{H^s}^2 = sum <n>^{2s} sigma_n^2 (all families)."""
    n = np.arange(-spec.n_max, spec.n_max + 1, dtype=np.float64)
    return float(np.sum((1.0 + n * n) ** s * mode_std(spec) ** 2))


def sample_matrix(spec: GaussianFieldSpec, m: int, rng: np.random.Generator,
                  out: np.ndarray | None = None,
                  normals: np.ndarray | None = None) -> np.ndarray:
    """m independent coefficient rows from one generator: normals g (m, 2, k),
    the real and imaginary parts of a real field's k = N positive modes
    (mirrored by conjugation) or of all k = 2N+1 modes of a complex one,
    then a real field's m mode-0 scalars.

    The rows go to ``out`` (m, 2N+1) complex and the normals to ``normals``
    (m, 2, k) float when given, to fresh arrays otherwise.
    """
    n = spec.n_max
    sig = mode_std(spec)
    k = n if spec.real_valued else 2 * n + 1
    if out is None:
        out = np.empty((m, 2 * n + 1), dtype=np.complex128)
    if normals is None:
        normals = np.empty((m, 2, k))
    rng.standard_normal(out=normals)
    c, sig_c = (out[:, n + 1:], sig[n + 1:]) if spec.real_valued else (out, sig)
    np.multiply(1j, normals[:, 1, :], out=c)
    np.add(normals[:, 0, :], c, out=c)
    c /= np.sqrt(2.0)
    c *= sig_c
    if spec.real_valued:
        np.conjugate(c[:, ::-1], out=out[:, :n])
        out[:, n] = sig[n] * rng.standard_normal(m)
    return out


def sample(spec: GaussianFieldSpec, seed: RandomSeed) -> TorusField:
    """One draw from the random series; pure function of (spec, seed)."""
    return TorusField(spec.n_max, sample_ensemble(spec, 1, seed)[0], spec.real_valued)


def sample_ensemble(
    spec: GaussianFieldSpec, m: int, seed: RandomSeed, lane_index: int = 0
) -> np.ndarray:
    """m independent draws; chunk c of ``parallel.chunk_ranges(m)`` is
    ``sample_matrix`` on path (lane_index, 0, c) of the stream."""
    out = np.empty((m, 2 * spec.n_max + 1), dtype=np.complex128)
    def draw(c, start, stop):
        # Drawn fresh and copied: drawing into ``out`` raised peak RSS (allocator layout).
        out[start:stop] = sample_matrix(spec, stop - start, generator(seed, lane_index, sample=c))

    map_chunks(draw, m)
    return out


def _check_shift(v0: TorusField, spec: GaussianFieldSpec) -> TorusField:
    """v0 in spec's band; refuses a wider shift and a complex shift of a real spec."""
    if v0.n_max > spec.n_max:
        raise ValueError(
            f"truncation mismatch: shift has n_max={v0.n_max} > spec n_max={spec.n_max}"
        )
    if spec.real_valued and not v0.real_valued:
        raise ValueError("real_valued spec requires a real_valued shift")
    return truncate(v0, spec.n_max)


def shifted_sample(v0: TorusField, spec: GaussianFieldSpec, seed: RandomSeed) -> TorusField:
    """Draw v0 + phi with phi ~ spec."""
    return scaled_sample(v0, 1.0, spec, seed)


def scaled_sample(
    v0: TorusField, epsilon: float, spec: GaussianFieldSpec, seed: RandomSeed
) -> TorusField:
    """Draw v0 + epsilon * phi for the small-noise family; epsilon > 0."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    base = _check_shift(v0, spec)
    phi = sample(spec, seed)
    return TorusField(spec.n_max, base.coeffs + epsilon * phi.coeffs,
                      spec.real_valued and base.real_valued)


@dataclass(frozen=True)
class GrowthReport:
    """Median partial Sobolev sums versus truncation, with a verdict."""

    s: float
    n_values: tuple
    median_norms: tuple
    tail_slope: float
    verdict: str  # "bounded" | "diverging"
    samples: int

    SLOPE_THRESHOLD = 0.1


def sobolev_threshold_probe(
    spec: GaussianFieldSpec,
    s: float,
    n_grid=(10, 100, 1000, 10000),
    samples: int = 64,
    seed: RandomSeed = RandomSeed(0),
) -> GrowthReport:
    """Classify whether ||phi_N||_{H^s} stays bounded as N grows.

    Draws each sample once at the largest N and evaluates nested partial
    sums, then fits the log-log slope of the median squared norm over the
    largest decade of N.  Slope >= 0.1 is read as divergence; this is a
    calibrated heuristic, not a theorem.
    """
    n_grid = tuple(sorted(int(v) for v in n_grid))
    if len(n_grid) < 3:
        raise ValueError("need at least 3 truncation values")
    n_top = n_grid[-1]
    top = dataclasses.replace(spec, n_max=n_top)
    n = np.arange(-n_top, n_top + 1, dtype=np.float64)
    w = (1.0 + n * n) ** s

    med_sq = np.zeros(len(n_grid))
    contrib = w * np.abs(sample_ensemble(top, samples, seed)) ** 2
    for j, nn in enumerate(n_grid):
        sel = np.abs(n) <= nn
        med_sq[j] = np.median(np.sum(contrib[:, sel], axis=1))

    logs_n = np.log(np.asarray(n_grid, dtype=np.float64))
    decade = logs_n >= logs_n[-1] - np.log(10.0)
    if np.sum(decade) < 2:
        decade[-2:] = True
    slope = float(np.polyfit(logs_n[decade], np.log(med_sq[decade]), 1)[0])
    verdict = "diverging" if slope >= GrowthReport.SLOPE_THRESHOLD else "bounded"
    return GrowthReport(
        s=s,
        n_values=n_grid,
        median_norms=tuple(np.sqrt(med_sq)),
        tail_slope=slope,
        verdict=verdict,
        samples=samples,
    )
