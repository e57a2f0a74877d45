"""Pinned parameter sets for the headline experiments.

Each preset fixes every knob (truncation, step size, sample count,
annealing schedule) so a run is reproducible from its name and seed
alone; it is a dict of keyword arguments of its driver,
``invariance_experiment`` or ``cameron_martin_experiment``.  The theorem
presets pair a shifted smooth function with the matching measure and
truncated (Galerkin-projected) flow: defocusing NLS data shifted into the
alpha=1 series, KdV data shifted into mean-zero white noise, and
Wick-ordered cubic NLS data shifted into the alpha in (5/12, 1/2] series.
"""

from __future__ import annotations

import numpy as np

from .fields import GaussianFieldSpec
from .integrators import EquationSpec
from .measures import AIS_LEVELS, AIS_PCN_STEPS, GibbsSpec
from .spectral import TorusField

__all__ = [
    "smooth_shift_field",
    "invariance_preset",
    "cm_preset",
    "INVARIANCE_PRESETS",
    "CM_PRESETS",
]

SHIFT_DECAY = 3.0  # |v_n| ~ (1 + |n|)^-3: smooth enough for every preset
SHIFT_WIDTH = 8  # the bump's modes: |n| <= 8


def smooth_shift_field(
    n_max: int,
    amplitude: float,
    real_valued: bool = False,
    mean_zero: bool = False,
) -> TorusField:
    """Deterministic smooth bump with coefficients amp * (1+|n|)^-3 on
    |n| <= min(SHIFT_WIDTH, n_max)."""
    n = np.arange(-n_max, n_max + 1, dtype=np.float64)
    c = np.zeros(2 * n_max + 1, dtype=np.complex128)
    sel = np.abs(n) <= min(SHIFT_WIDTH, n_max)
    c[sel] = amplitude * (1.0 + np.abs(n[sel])) ** (-SHIFT_DECAY)
    if mean_zero:
        c[n_max] = 0.0
    return TorusField(n_max, c, real_valued)


def _check_n_max(n_max: int) -> int:
    # The presets' step sizes divide by n_max.
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return n_max


def _kdv_white_noise(n_max: int) -> dict:
    return {
        "measure": GaussianFieldSpec("white", n_max, real_valued=True),
        "eq": EquationSpec("gkdv", p=3, sign="plus"),
        "t_final": 1.0,
        "dt": 1e-4 * (32.0 / n_max) ** 3,
        "m_samples": 2000,
        "alpha": 0.01,
    }


def _negative_control(n_max: int) -> dict:
    # Deliberately wrong pairing: the Gaussian base without the Gibbs
    # weight is not invariant under the nonlinear flow; the test harness
    # must detect it (this preset documents the panel's power).
    return {
        "measure": GaussianFieldSpec("fwb", n_max, alpha=1.0),
        "eq": EquationSpec("wick_nls", sign="plus"),
        "t_final": 1.0,
        "dt": 2e-3 * (16.0 / n_max) ** 2,
        "m_samples": 4000,
        "alpha": 0.01,
    }


def _wick_gibbs(n_max: int) -> dict:
    # The negative control's run, with the Gibbs weight on its base.
    run = _negative_control(n_max)
    return {**run, "measure": GibbsSpec(p=4, sign="defocusing", beta=1.0,
                                        base=run["measure"]),
            "ais_levels": AIS_LEVELS, "ais_pcn_steps": AIS_PCN_STEPS}


INVARIANCE_PRESETS = {
    "kdv-white-noise": _kdv_white_noise,
    "wick-nls-gibbs": _wick_gibbs,
    "negative-control": _negative_control,
}


def invariance_preset(name: str, n_max: int | None = None) -> dict:
    if name not in INVARIANCE_PRESETS:
        raise ValueError(
            f"unknown invariance preset {name!r}; known: {sorted(INVARIANCE_PRESETS)}"
        )
    if n_max is None:
        n_max = 32 if name == "kdv-white-noise" else 16
    return INVARIANCE_PRESETS[name](_check_n_max(n_max))


def _shift_run(v0: TorusField, base: GaussianFieldSpec, eq: EquationSpec,
               t_final: float, dt: float) -> dict:
    """A theorem preset: the values all three share, around their own."""
    return {"v0": v0, "base": base, "eq": eq, "t_final": t_final, "dt": dt,
            "m_samples": 20000, "evolve_samples": 64, "v0_decay": SHIFT_DECAY}


def _theorem_1(n_max: int) -> dict:
    return _shift_run(smooth_shift_field(n_max, 0.5),
                      GaussianFieldSpec("fwb", n_max, alpha=1.0),
                      EquationSpec("nls", p=4, sign="plus"),
                      0.5, 0.5 / n_max ** 2)


def _theorem_2(n_max: int) -> dict:
    return _shift_run(smooth_shift_field(n_max, 4.0, real_valued=True, mean_zero=True),
                      GaussianFieldSpec("white", n_max, real_valued=True),
                      EquationSpec("gkdv", p=3, sign="plus"),
                      0.5, 1e-4 * (32.0 / n_max) ** 3)


def _theorem_3(n_max: int) -> dict:
    # alpha = 0.45 > 5/12: the admissible window for the Wick-ordered flow.
    return _shift_run(smooth_shift_field(n_max, 0.5),
                      GaussianFieldSpec("fwb", n_max, alpha=0.45),
                      EquationSpec("wick_nls", sign="plus"),
                      1.0, 0.5 / n_max ** 2)


CM_PRESETS = {
    "theorem-1": _theorem_1,
    "theorem-2": _theorem_2,
    "theorem-3": _theorem_3,
}


def cm_preset(name: str, n_max: int | None = None) -> dict:
    if name not in CM_PRESETS:
        raise ValueError(
            f"unknown cm preset {name!r}; known: {sorted(CM_PRESETS)}"
        )
    return CM_PRESETS[name](_check_n_max(32 if n_max is None else n_max))
