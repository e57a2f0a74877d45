"""Correctness checks on the program's outputs.

Each check returns a list of failure messages; an empty list is a pass.
Every check is either a property the method must have (mass
conservation, conjugate symmetry, ESS bounds) or a comparison with a
value computed here from closed forms, apart from the program.

Checks on large arrays take their small reductions (``row_mass``,
``conjugate_asymmetry``, ``mode_power``), which the capture hooks compute
as the program runs, so a pass need not hold the arrays to its end.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "strict_loads",
    "row_mass",
    "mass_conserved",
    "conjugate_asymmetry",
    "conjugate_symmetric",
    "mode_power",
    "mode_variance_matches",
    "ess_in_range",
    "fwb_sigma",
    "white_sigma",
    "shift_norm_sq",
    "close_rel",
]


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token!r}")


def strict_loads(text: str):
    """Parse strict JSON: ``NaN``, ``Infinity`` and ``-Infinity`` raise."""
    return json.loads(text, parse_constant=_reject_constant)


def row_mass(rows: np.ndarray) -> np.ndarray:
    """Per-row sum |c_n|^2."""
    return np.sum(np.abs(rows) ** 2, axis=-1)


def mass_conserved(m_in: np.ndarray, m_out: np.ndarray,
                   rtol: float = 1e-10) -> list[str]:
    """Per-row mass of evolved rows equals that of the rows given.

    The Galerkin-projected flows rescale every step back onto the mass
    sphere, so the two agree to roundoff whatever the band of the output.
    """
    if m_in.shape != m_out.shape:
        return [f"row count changed: {m_in.shape} -> {m_out.shape}"]
    rel = np.abs(m_out - m_in) / np.maximum(m_in, np.finfo(float).tiny)
    worst = float(np.max(rel)) if rel.size else 0.0
    if not worst <= rtol:
        return [f"mass drift {worst:.3e} > {rtol:g} (row {int(np.argmax(rel))})"]
    return []


def conjugate_asymmetry(rows: np.ndarray) -> float:
    """Largest max_n |c_{-n} - conj(c_n)| of a row, relative to its max |c_n|."""
    if not rows.size:
        return 0.0
    gap = np.max(np.abs(rows - np.conj(rows[:, ::-1])), axis=-1)
    scale = np.maximum(np.max(np.abs(rows), axis=-1), np.finfo(float).tiny)
    return float(np.max(gap / scale))


def conjugate_symmetric(asymmetry: float, rtol: float = 1e-12) -> list[str]:
    """Rows of a real field satisfy c_{-n} = conj(c_n)."""
    if not asymmetry <= rtol:
        return [f"conjugate asymmetry {asymmetry:.3e} > {rtol:g}"]
    return []


def mode_power(rows: np.ndarray) -> dict:
    """Per-mode mean, sample standard deviation and maximum of |c_n|^2."""
    power = np.abs(rows) ** 2
    return {"m": rows.shape[0], "mean": np.mean(power, axis=0),
            "sd": np.std(power, axis=0, ddof=1), "max": np.max(power, axis=0)}


def mode_variance_matches(power: dict, sigma: np.ndarray,
                          z_max: float = 5.0) -> list[str]:
    """Per-mode sample variance E|c_n|^2 matches sigma_n^2 within z_max SE.

    ``power`` is ``mode_power`` of mean-zero coefficient rows over modes
    -N..N and ``sigma`` the closed-form standard deviations; modes with
    sigma_n = 0 must be exactly zero.
    """
    fails = []
    for j, sig in enumerate(sigma):
        if sig == 0.0:
            if power["max"][j] != 0.0:
                fails.append(f"mode index {j}: nonzero where sigma_n = 0")
            continue
        mean = float(power["mean"][j])
        se = float(power["sd"][j]) / math.sqrt(power["m"])
        z = abs(mean - sig * sig) / se if se > 0 else math.inf
        if not z <= z_max:
            fails.append(f"mode index {j}: variance {mean:.4f} vs "
                         f"sigma^2 {sig * sig:.4f} (z={z:.2f})")
    return fails


def ess_in_range(ess, m: int, floor: float = 0.2) -> list[str]:
    """An importance-sampling ESS lies in [floor * m, m]."""
    if ess is None or not floor * m <= ess <= m:
        return [f"ESS {ess} outside [{floor * m:g}, {m}]"]
    return []


def fwb_sigma(n_max: int, alpha: float) -> np.ndarray:
    """sigma_n = (1 + |n|^(2 alpha))^(-1/2), n = -N..N, mode 0 included."""
    n = np.abs(np.arange(-n_max, n_max + 1, dtype=np.float64))
    return 1.0 / np.sqrt(1.0 + n ** (2.0 * alpha))


def white_sigma(n_max: int) -> np.ndarray:
    """sigma_n = 1 for n != 0; the mean-zero white noise has sigma_0 = 0."""
    sig = np.ones(2 * n_max + 1)
    sig[n_max] = 0.0
    return sig


def shift_norm_sq(v: np.ndarray, sigma: np.ndarray, real_valued: bool) -> float:
    """Cameron-Martin norm ||v||_H^2 of a shift under a diagonal Gaussian.

    A complex mode with E|c_n|^2 = sigma_n^2 has real and imaginary parts of
    variance sigma_n^2 / 2 each, so it contributes 2 |v_n|^2 / sigma_n^2.  A
    real field pairs c_{-n} = conj(c_n): each pair n > 0 contributes
    2 |v_n|^2 / sigma_n^2 once, which is |v_n|^2 / sigma_n^2 summed over
    both n and -n.
    """
    live = sigma > 0.0
    if np.any(np.abs(v[~live]) > 0.0):
        raise ValueError("shift has mass on a mode with zero variance")
    total = float(np.sum(np.abs(v[live]) ** 2 / sigma[live] ** 2))
    return total if real_valued else 2.0 * total


def close_rel(name: str, got: float, want: float, rtol: float) -> list[str]:
    if got is None or not abs(got - want) <= rtol * abs(want):
        return [f"{name} = {got!r}, expected {want!r} to {rtol:g} relative"]
    return []
