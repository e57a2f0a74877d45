"""The benchmark's workloads: CLI commands and the checks on their output.

Every workload runs the public entry point ``gibbsflow.cli.main(argv)``
with the benchmark's seed.  One operation is one CLI command.
"""

from __future__ import annotations

import math

import numpy as np

import checks

__all__ = ["WORKLOADS", "PINNED_SEED", "commands", "CAPTURED", "verify_op"]

# The acceptance gate's seed: the statistical verdicts are checked here.
# At any other seed a correct program rejects with probability about alpha.
PINNED_SEED = 2026

# Sizes keep one pass of each workload near 5 s, so a run of the length
# BENCHMARK.json sets holds several passes to take the median of.
KDV_T = 0.02
WICK_T = 0.1
WICK_SAMPLES = 512  # two 256-row AIS chunks per ensemble, so threads engage
# Half the preset sample count and half its horizon, which keeps the
# preset's split between per-row sampling and small-batch evolution.
CM_SAMPLES = 10000
CM_T = {"theorem-1": 0.25, "theorem-2": 0.25, "theorem-3": 0.5}
CM_PRESETS = tuple(CM_T)

# Closed-form base measure of each shift preset: (sigma_n builder, real).
CM_BASES = {
    "theorem-1": (lambda n: checks.fwb_sigma(n, 1.0), False),
    "theorem-2": (checks.white_sigma, True),
    "theorem-3": (lambda n: checks.fwb_sigma(n, 0.45), False),
}

WORKLOADS = ("kdv-white-noise", "wick-nls-gibbs", "shift-theorems")


def _evolve_summary(args, kwargs, result) -> dict:
    rows_in = args[0] if args else kwargs["coeffs"]
    return {"mass_in": checks.row_mass(rows_in),
            "mass_out": checks.row_mass(result.coeffs),
            "asymmetry": checks.conjugate_asymmetry(result.coeffs),
            "blowups": int(np.sum(result.blowup))}


def _sample_summary(args, kwargs, result) -> dict:
    return checks.mode_power(result)


# Public functions whose inputs and outputs each workload's checks read,
# with the hook that reduces one call to what the checks need.  Keeping
# the arrays themselves would count toward the pass's peak RSS: the rows
# ``cm`` evolves are a view that holds its whole 10000-row ensemble.
CAPTURED = {
    "kdv-white-noise": {"evolve_ensemble": _evolve_summary,
                        "sample_ensemble": _sample_summary},
    "wick-nls-gibbs": {"evolve_ensemble": _evolve_summary},
    "shift-theorems": {"evolve_ensemble": _evolve_summary},
}


def commands(workload: str, seed: int, threads: int, out_dir) -> list:
    """[(label, argv, report path)] for one pass of the workload."""
    common = ["--seed", str(seed), "--threads", str(threads)]
    if workload == "kdv-white-noise":
        runs = [("kdv-white-noise", ["invariance", "--preset", "kdv-white-noise",
                                     "--t", repr(KDV_T)])]
    elif workload == "wick-nls-gibbs":
        runs = [("wick-nls-gibbs", ["invariance", "--preset", "wick-nls-gibbs",
                                    "--t", repr(WICK_T),
                                    "--samples", str(WICK_SAMPLES)])]
    elif workload == "shift-theorems":
        runs = [(name, ["cm", "--preset", name, "--samples", str(CM_SAMPLES),
                        "--t", repr(CM_T[name])]) for name in CM_PRESETS]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    out = []
    for label, argv in runs:
        path = str(out_dir / f"{label}.json")
        out.append((label, argv + common + ["--out", path], path))
    return out


def _evolve_checks(summaries, real_valued: bool) -> list[str]:
    if not summaries:
        return ["evolve_ensemble was not called"]
    fails = []
    for summary in summaries:
        fails += checks.mass_conserved(summary["mass_in"], summary["mass_out"])
        if real_valued:
            fails += checks.conjugate_symmetric(summary["asymmetry"])
        if summary["blowups"]:
            fails.append(f"{summary['blowups']} rows blew up")
    return fails


def _verdict(report: dict, seed: int, key: str, bad) -> list[str]:
    if seed == PINNED_SEED and report.get(key) == bad:
        return [f"{key} = {bad!r} at the pinned seed {PINNED_SEED}"]
    return []


def verify_op(workload: str, label: str, seed: int, rc, text: str | None,
              captured: dict) -> list[str]:
    """Failure messages for one CLI command of a workload (empty: pass).

    Exit code 2 is the CLI's flagged statistical verdict; it fails the
    operation only at the pinned seed.
    """
    allowed = (0,) if seed == PINNED_SEED else (0, 2)
    if rc not in allowed:
        return [f"exit code {rc!r}, expected one of {allowed}"]
    try:
        doc = checks.strict_loads(text)
    except ValueError as err:
        return [f"report is not strict JSON: {err}"]
    report = doc["report"]
    fails = []
    if report.get("blowup_count") != 0:
        fails.append(f"blowup_count = {report.get('blowup_count')}")

    if workload == "kdv-white-noise":
        fails += _verdict(report, seed, "any_rejection", True)
        fails += _evolve_checks(captured.get("evolve_ensemble", []), True)
        fresh = captured.get("sample_ensemble", [])
        if not fresh:
            fails.append("sample_ensemble was not called")
        else:
            power = fresh[0]
            n_max = (power["mean"].shape[0] - 1) // 2
            fails += checks.mode_variance_matches(power, checks.white_sigma(n_max))
    elif workload == "wick-nls-gibbs":
        fails += _verdict(report, seed, "any_rejection", True)
        fails += _evolve_checks(captured.get("evolve_ensemble", []), False)
        for key in ("ess_a", "ess_b"):
            fails += [f"{key}: {msg}" for msg in
                      checks.ess_in_range(report.get(key), WICK_SAMPLES)]
    else:
        from gibbsflow.presets import cm_preset

        fails += _verdict(report, seed, "identities_pass", False)
        sigma_of, real_valued = CM_BASES[label]
        v0 = cm_preset(label)["v0"].coeffs
        n_max = (v0.shape[0] - 1) // 2
        want = checks.shift_norm_sq(v0, sigma_of(n_max), real_valued)
        fails += checks.close_rel("shift_norm_sq", report.get("shift_norm_sq"),
                                  want, 1e-12)
        fails += checks.close_rel("weight_second_moment_expected",
                                  report.get("weight_second_moment_expected"),
                                  math.exp(want), 1e-12)
        ratio = report.get("max_mass_ratio")
        if ratio is None or not abs(ratio - 1.0) <= 1e-10:
            fails.append(f"max_mass_ratio = {ratio!r}, expected 1 within 1e-10")
        fails += _evolve_checks(captured.get("evolve_ensemble", []), real_valued)
    return fails
