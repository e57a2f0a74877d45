"""Fourier representation of functions on the torus.

Conventions used throughout the package:

    u(x) = sum_{|n| <= N} c_n e^{inx},   x in [0, 2*pi),

with coefficients stored in increasing mode order n = -N, ..., N
(array index n + N), so a batch of rows gives N by its width 2N+1.
Integrals are over [0, 2*pi), so by Parseval

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
import numpy.fft  # noqa: F401 -- loaded with the module, not on first transform

__all__ = [
    "TorusField",
    "zero_field",
    "field_from_modes",
    "sobolev_norm",
    "lp_integral",
    "mean_square",
    "truncate",
    "to_physical",
    "grid_for",
    "synthesize",
    "band_matrices",
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


def grid_for(n_max: int, degree: float) -> int:
    """The one grid rule: the smallest 5-smooth M (no prime factor above 5,
    so every FFT of it is fast) that resolves the band |n| <= N
    (M >= 2N+2) and makes products of degree p = ``degree`` alias-free:
    |u|^p with integer p is a trigonometric polynomial of degree p*N, which
    the M-point equispaced rule integrates exactly when M >= p*N + 1.  A
    non-integer p is not a trig polynomial; ceil(p) sets the floor."""
    m = max(int(math.ceil(degree)) * n_max + 1, 2 * n_max + 2)
    while not _five_smooth(m):
        m += 1
    return m


def _five_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


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


def lp_integral(f: TorusField, p: float) -> float:
    """Quadrature of int_T |u|^p dx on ``grid_for(N, p)``, exact for
    integer p (no aliased term reaches the mean)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float(2.0 * np.pi * np.mean(np.abs(to_physical(f, grid_for(f.n_max, p))) ** p))


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


def synthesize(coeffs: np.ndarray, m_points: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate batched coefficient rows on the M-point grid (complex values).

    coeffs has shape (batch, 2N+1), which gives the band N; requires
    M >= 2N+2.  The zero-padded spectrum is built in ``out`` (batch, M)
    complex, or in a fresh array, and transformed in place.
    """
    n_max = (coeffs.shape[-1] - 1) // 2
    _require_points(m_points, n_max)
    if out is None:
        out = np.empty(coeffs.shape[:-1] + (m_points,), dtype=np.complex128)
    out[..., :n_max + 1] = coeffs[..., n_max:]
    out[..., n_max + 1:m_points - n_max] = 0.0
    out[..., m_points - n_max:] = coeffs[..., :n_max]
    np.fft.ifft(out, axis=-1, out=out)
    out *= m_points
    return out


def band_matrices(k: int, m_points: int, real: bool, pre=None, post=None):
    """(synthesis, analysis) matrices of the band |n| <= k on the M-point grid.

    Complex rows c_-k..c_k: ``c @ synthesis`` is ``synthesize(pre * c, M)``
    and ``u @ analysis`` is ``post`` times entries n mod M, n = -k..k, of
    ``np.fft.fft(u) / M``.  Real fields use half-spectrum rows c_0..c_k
    multiplied through their float64 view [Re c_0, Im c_0, Re c_1, ...]:
    ``h.view(float64) @ synthesis`` is the real grid function of the field
    whose half spectrum is ``pre * h``, and ``(w @ analysis).view(complex128)``
    is ``post * np.fft.rfft(w)[..., :k + 1] / M``.
    ``pre`` and ``post`` are per-mode factors (default 1), so a diagonal
    mode multiply before or after a transform costs nothing extra.  At the
    band-limited sizes used here one GEMM beats an FFT round trip plus its
    zero-pad, slice and scaling (Boyd, *Chebyshev and Fourier Spectral
    Methods*, 2001, ch. 10).
    """
    _require_points(m_points, k)
    n = np.arange(0 if real else -k, k + 1)
    # Exact integer angles: n*j is reduced mod M before any rounding.
    turns = np.outer(n, np.arange(m_points)) % m_points
    wave = np.exp((2j * np.pi / m_points) * turns)
    pre = np.ones(n.size) if pre is None else np.asarray(pre)
    post = np.ones(n.size) if post is None else np.asarray(post)
    synthesis = pre[:, np.newaxis] * wave
    analysis = (np.conj(wave) * (post[:, np.newaxis] / m_points)).T
    if not real:
        return np.ascontiguousarray(synthesis), np.ascontiguousarray(analysis)
    # u = Re sum_n w_n (pre h)_n e^{inx}, w_0 = 1 and w_n = 2 for n >= 1;
    # as with irfft, only the real part of (pre h)_0 reaches the grid.
    synthesis[1:] *= 2.0
    synthesis = np.stack([synthesis.real, -synthesis.imag], axis=1)
    analysis = np.stack([analysis.real, analysis.imag], axis=-1)
    return (np.ascontiguousarray(synthesis.reshape(2 * n.size, m_points)),
            np.ascontiguousarray(analysis.reshape(m_points, 2 * n.size)))


def from_half(half: np.ndarray) -> np.ndarray:
    """Full rows c_-N..c_N of real fields from half-spectrum rows c_0..c_N."""
    k = half.shape[-1] - 1
    full = np.empty(half.shape[:-1] + (2 * k + 1,), dtype=np.complex128)
    full[..., k:] = half
    full[..., :k] = np.conj(half[..., 1:][..., ::-1])
    full[..., k] = full[..., k].real  # exact real mean
    return full


def to_physical(f: TorusField, m_points: int) -> np.ndarray:
    """Complex sample vector u(x_j) on the equispaced M-point grid."""
    return synthesize(f.coeffs[np.newaxis, :], m_points)[0]


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
