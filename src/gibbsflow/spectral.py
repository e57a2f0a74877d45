"""Fourier representation of functions on the torus.

Conventions used throughout the package:

    u(x) = sum_{|n| <= N} c_n e^{inx},   x in [0, 2*pi),

with coefficients stored in increasing mode order n = -N, ..., N
(array index n + N).  Integrals are over [0, 2*pi), so by Parseval

    int |u|^2 dx = 2*pi * sum_n |c_n|^2.

Sobolev norms use the plain coefficient sum (no 2*pi factor):

    ||u||_{H^s}^2 = sum_n <n>^{2s} |c_n|^2,   <n> = (1 + n^2)^(1/2).

Both scalings are exposed (``mean_square`` vs ``lp_integral``) so that no
caller has to guess which one a routine uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

__all__ = [
    "TorusField",
    "GridConfig",
    "zero_field",
    "field_from_modes",
    "sobolev_norm",
    "lp_integral",
    "mean_square",
    "derivative",
    "truncate",
    "to_physical",
    "from_physical",
    "pointwise_product",
    "grid_for",
    "lp_min_points",
    "require_lp_points",
    "synthesize",
    "analyze",
    "synthesize_real",
    "analyze_real",
    "from_half",
    "field_to_json",
    "field_from_json",
]

_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class TorusField:
    """Truncated Fourier series on the torus; immutable value object.

    Attributes:
        n_max: truncation N >= 0; modes |n| <= N are stored.
        coeffs: complex array of length 2N+1, entry i holds c_{i-N}.
        real_valued: if True, c_{-n} = conj(c_n) and Im(c_0) = 0.
    """

    n_max: int
    coeffs: np.ndarray
    real_valued: bool = False

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        c = np.asarray(self.coeffs, dtype=np.complex128).copy()
        if c.shape != (2 * self.n_max + 1,):
            raise ValueError(
                f"expected {2 * self.n_max + 1} coefficients for n_max={self.n_max}, "
                f"got shape {c.shape}"
            )
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("coefficients must be finite (no NaN/Inf)")
        if self.real_valued:
            scale = max(float(np.max(np.abs(c))), 1.0)
            sym_err = np.max(np.abs(c - np.conj(c[::-1])))
            if sym_err > _SYMMETRY_RTOL * scale:
                raise ValueError(
                    f"real_valued field violates c_-n = conj(c_n) (error {sym_err:.3e})"
                )
            if abs(c[self.n_max].imag) > _SYMMETRY_RTOL * scale:
                raise ValueError("real_valued field must have Im(c_0) = 0")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def modes(self) -> np.ndarray:
        """Mode indices n = -N, ..., N aligned with ``coeffs``."""
        return np.arange(-self.n_max, self.n_max + 1)


@dataclass(frozen=True)
class GridConfig:
    """Equispaced collocation grid of m_points >= 1 points on [0, 2*pi)."""

    m_points: int

    def __post_init__(self):
        if self.m_points < 1:
            raise ValueError(f"m_points must be >= 1, got {self.m_points}")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, 2.0 * np.pi, self.m_points, endpoint=False)


def grid_for(n_max: int, degree: float) -> GridConfig:
    """The one grid rule: the smallest 5-smooth M that resolves the band
    |n| <= N (M >= 2N+2) and makes degree-``degree`` products of it
    alias-free (M >= degree*N + 1, see ``lp_min_points``)."""
    need = max(lp_min_points(n_max, degree), 2 * n_max + 2)
    return GridConfig(next_fast_len(need, real=True))


def zero_field(n_max: int, real_valued: bool = False) -> TorusField:
    return TorusField(n_max, np.zeros(2 * n_max + 1, dtype=np.complex128), real_valued)


def field_from_modes(n_max: int, entries: dict, real_valued: bool = False) -> TorusField:
    """Build a field from a {mode: coefficient} dict; other modes are zero."""
    c = np.zeros(2 * n_max + 1, dtype=np.complex128)
    for n, value in entries.items():
        if abs(n) > n_max:
            raise ValueError(f"mode {n} outside truncation {n_max}")
        c[n + n_max] = value
    return TorusField(n_max, c, real_valued)


def sobolev_norm(f: TorusField, s: float, homogeneous: bool = False) -> float:
    """Weighted-l2 Sobolev norm of the coefficient vector.

    Inhomogeneous: (sum <n>^{2s} |c_n|^2)^(1/2); homogeneous variant sums
    |n|^{2s} |c_n|^2 over n != 0 only.
    """
    n = f.modes.astype(np.float64)
    mags = np.abs(f.coeffs) ** 2
    if homogeneous:
        nz = n != 0
        return float(np.sqrt(np.sum(np.abs(n[nz]) ** (2 * s) * mags[nz])))
    return float(np.sqrt(np.sum((1.0 + n * n) ** s * mags)))


def mean_square(f: TorusField) -> float:
    """Normalized mean of |u|^2: (1/2pi) int |u|^2 dx = sum |c_n|^2."""
    return float(np.sum(np.abs(f.coeffs) ** 2))


def lp_min_points(n_max: int, p: float) -> int:
    """Smallest M for which the M-point quadrature of |u|^p is exact.

    |u|^p with integer p is a trigonometric polynomial of degree p*N, and
    the equispaced rule is exact up to degree M-1.  Non-integer p is not a
    trig polynomial; ceil(p) is used as the resolution floor.
    """
    return int(math.ceil(p)) * n_max + 1


def require_lp_points(n_max: int, p: float, grid: GridConfig) -> None:
    """Refuse a grid too coarse for an exact |u|^p quadrature at n_max."""
    required = lp_min_points(n_max, p)
    if grid.m_points < required:
        raise ValueError(
            f"grid too small for |u|^{p} at n_max={n_max}: "
            f"need m_points >= {required}, got {grid.m_points}"
        )


def lp_integral(f: TorusField, p: float, grid: GridConfig) -> float:
    """Quadrature of int_T |u|^p dx on the collocation grid.

    Exact for integer p when grid.m_points >= p*N + 1; refuses smaller
    grids rather than returning an aliased value.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    require_lp_points(f.n_max, p, grid)
    return float(2.0 * np.pi * np.mean(np.abs(to_physical(f, grid)) ** p))


def derivative(f: TorusField, k: int) -> TorusField:
    """k-th spectral derivative: c_n -> (i n)^k c_n."""
    if k < 1:
        raise ValueError(f"derivative order must be >= 1, got {k}")
    mult = (1j * f.modes.astype(np.float64)) ** k
    return TorusField(f.n_max, mult * f.coeffs, f.real_valued)


def truncate(f: TorusField, n_new: int) -> TorusField:
    """Drop coefficients with |n| > n_new (or zero-pad when n_new > N)."""
    if n_new < 0:
        raise ValueError(f"n_new must be >= 0, got {n_new}")
    if n_new == f.n_max:
        return f
    c = np.zeros(2 * n_new + 1, dtype=np.complex128)
    keep = min(n_new, f.n_max)
    c[n_new - keep:n_new + keep + 1] = f.coeffs[f.n_max - keep:f.n_max + keep + 1]
    return TorusField(n_new, c, f.real_valued)


def _require_points(m_points: int, n_max: int) -> None:
    if m_points < 2 * n_max + 2:
        raise ValueError(
            f"m_points={m_points} too small: cannot resolve n_max={n_max} "
            f"(need >= {2 * n_max + 2})"
        )


def synthesize(coeffs: np.ndarray, n_max: int, m_points: int) -> np.ndarray:
    """Evaluate batched coefficient rows on the M-point grid (complex values).

    coeffs has shape (batch, 2N+1); requires M >= 2N+2.
    """
    _require_points(m_points, n_max)
    buf = np.zeros(coeffs.shape[:-1] + (m_points,), dtype=np.complex128)
    idx = np.arange(-n_max, n_max + 1) % m_points
    buf[..., idx] = coeffs
    return np.fft.ifft(buf, axis=-1) * m_points


def analyze(values: np.ndarray, n_max: int) -> np.ndarray:
    """Recover coefficient rows c_n, |n| <= N, from batched grid values."""
    m_points = values.shape[-1]
    _require_points(m_points, n_max)
    spec = np.fft.fft(values, axis=-1) / m_points
    idx = np.arange(-n_max, n_max + 1) % m_points
    return spec[..., idx]


def synthesize_real(half: np.ndarray, m_points: int) -> np.ndarray:
    """Real grid values of real fields given by half-spectrum rows c_0..c_N."""
    _require_points(m_points, half.shape[-1] - 1)
    return np.fft.irfft(half * m_points, n=m_points, axis=-1)


def analyze_real(values: np.ndarray, n_max: int) -> np.ndarray:
    """Half-spectrum rows c_0..c_N of batched real grid values."""
    _require_points(values.shape[-1], n_max)
    return np.fft.rfft(values, axis=-1)[..., : n_max + 1] / values.shape[-1]


def from_half(half: np.ndarray) -> np.ndarray:
    """Full rows c_-N..c_N of real fields from half-spectrum rows c_0..c_N."""
    k = half.shape[-1] - 1
    full = np.empty(half.shape[:-1] + (2 * k + 1,), dtype=np.complex128)
    full[..., k:] = half
    full[..., :k] = np.conj(half[..., 1:][..., ::-1])
    full[..., k] = full[..., k].real  # exact real mean
    return full


def to_physical(f: TorusField, grid: GridConfig) -> np.ndarray:
    """Complex sample vector u(x_j) on the equispaced grid."""
    return synthesize(f.coeffs[np.newaxis, :], f.n_max, grid.m_points)[0]


def from_physical(samples: np.ndarray, n_max: int) -> TorusField:
    """Inverse of ``to_physical``; exact round-trip when M >= 2N+2.

    Real-dtype input produces a real_valued field with exact conjugate
    symmetry (via the half-spectrum transform).
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError("samples must be a 1-d vector")
    if np.isrealobj(samples):
        half = analyze_real(samples.astype(np.float64), n_max)
        return TorusField(n_max, from_half(half), real_valued=True)
    return TorusField(n_max, analyze(samples[np.newaxis, :], n_max)[0], real_valued=False)


def pointwise_product(f: TorusField, g: TorusField, n_out: int | None = None) -> TorusField:
    """Exact coefficients of the pointwise product u*v up to |n| <= n_out.

    On ``grid_for(max(N_f + N_g, n_out), 2)`` no aliased copy of the
    degree-(N_f + N_g) product lands inside the output band.
    """
    if n_out is None:
        n_out = f.n_max + g.n_max
    grid = grid_for(max(f.n_max + g.n_max, n_out), 2)
    prod = analyze((to_physical(f, grid) * to_physical(g, grid))[np.newaxis, :], n_out)[0]
    return TorusField(n_out, prod, f.real_valued and g.real_valued)


def field_to_json(f: TorusField) -> dict:
    """JSON object {n_max, real_valued, coeffs: [[re, im], ...]}."""
    return {
        "n_max": f.n_max,
        "real_valued": f.real_valued,
        "coeffs": [[float(c.real), float(c.imag)] for c in f.coeffs],
    }


def field_from_json(obj: dict) -> TorusField:
    c = np.array([complex(re, im) for re, im in obj["coeffs"]], dtype=np.complex128)
    return TorusField(int(obj["n_max"]), c, bool(obj["real_valued"]))
