"""gibbsflow command line: samplers, solvers, dichotomy calculators, and
experiments with reproducible configs.

Every file-writing run serializes its fully resolved configuration
(defaults included) next to the output as <out>.config.json; rerunning
with ``gibbsflow --config <that file>`` reproduces the output byte for
byte.  Exit codes: 0 unflagged success, 1 usage or configuration error,
2 flagged statistical failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments as ex
from . import integrators as it
from . import measures as ms
from . import presets
from .fields import GaussianFieldSpec, sample
from .parallel import default_threads
from .rng import RandomSeed
from .serialize import SCHEMA_VERSION, canonical_dumps, to_jsonable, write_csv
from .spectral import field_from_json, field_from_modes, field_to_json, truncate, zero_field

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FLAGGED = 2


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with code 1 (2 means flagged stats)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite_float(text: str) -> float:
    """argparse type for real parameters: a finite float.

    Rejecting inf and nan here keeps every config sidecar rerunnable: the
    sidecar would hold them as the strings "Infinity" and "NaN".
    """
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _thread_count(text: str) -> int:
    """argparse type for --threads: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a thread count >= 1")
    return value


def _emit(a: dict, payload: dict, table=None) -> None:
    """Write the report to --out (plus its config sidecar) or stdout, and
    the (columns, rows) table to --csv when the subcommand offers one."""
    text = canonical_dumps({"schema_version": SCHEMA_VERSION, **payload})
    if a["out"] is None:
        sys.stdout.write(text)
    else:
        Path(a["out"]).write_text(text)
        config = {"schema_version": SCHEMA_VERSION, "resolved_args": a}
        Path(a["out"] + ".config.json").write_text(canonical_dumps(config))
    if table is not None and a["csv"]:
        write_csv(a["csv"], *table)


def _seed(a: dict) -> RandomSeed:
    return RandomSeed(a["seed"], a["stream"])


def _field_spec_from_args(a: dict) -> GaussianFieldSpec:
    return GaussianFieldSpec(
        family=a["family"], n_max=a["nmax"], alpha=a["alpha"],
        real_valued=a["real"], mean_zero=True if a["mean_zero"] else None,
    )


# ---------------------------------------------------------------------------
# Subcommand handlers (each takes the resolved args namespace dict)
# ---------------------------------------------------------------------------

def _run_sample(a: dict) -> int:
    f = sample(_field_spec_from_args(a), _seed(a))
    _emit(a, {"kind": "sample", "field": field_to_json(f)})
    return EXIT_OK


def _run_evolve(a: dict) -> int:
    try:  # a bare field object or a `gibbsflow sample` report
        doc = json.loads(Path(a["init"]).read_text())
        init = field_from_json(doc["field"] if doc.get("kind") == "sample" else doc)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise ValueError(f"--init {a['init']}: not a field or a sample report ({err!r})") from None
    if a["nmax"] is not None:
        init = truncate(init, a["nmax"])
    eq = it.EquationSpec(
        family=a["eq"].replace("-", "_"), p=a["p"], sign=a["sign"],
        galerkin_projected=a["galerkin"],
    )
    cfg = it.SolverConfig(dt=a["dt"], t_final=a["t"],
                          record_every=a["record_every"])
    traj = it.evolve(init, eq, cfg)
    payload = {
        "kind": "trajectory",
        "times": traj.times,
        "fields": [field_to_json(f) for f in traj.fields],
        "mass_series": traj.mass_series,
        "hamiltonian_series": traj.hamiltonian_series,
        "blowup_flag": traj.blowup,
        "last_valid_time": traj.last_valid_time,
        "dt_effective": traj.dt_effective,
    }
    _emit(a, payload)
    return EXIT_FLAGGED if traj.blowup else EXIT_OK


# Options that override a preset, by the driver keyword each one sets.
_PRESET_OPTIONS = {"samples": "m_samples", "t": "t_final", "dt": "dt",
                   "alpha": "alpha", "evolve_samples": "evolve_samples"}


def _preset_run(p: dict, a: dict) -> dict:
    """The driver keywords of a preset ``p``: the preset's values, with the
    options given on the command line in their place."""
    return {**p, **{key: a[opt] for opt, key in _PRESET_OPTIONS.items()
                    if a.get(opt) is not None}}


def _run_invariance(a: dict) -> int:
    p = presets.invariance_preset(a["preset"], a["nmax"])
    report = ex.invariance_experiment(**_preset_run(p, a), seed=_seed(a),
                                      n_threads=a["threads"])
    _emit(a, {"kind": "invariance", "preset": a["preset"], "report": to_jsonable(report)},
          (("observable", "statistic", "p_value"),
           [(o.name, o.statistic, o.p_value) for o in report.observables]))
    expected_rejection = a["preset"] == "negative-control"
    failed = report.any_rejection != expected_rejection or \
        (report.flagged and not expected_rejection)
    return EXIT_FLAGGED if failed else EXIT_OK


def _run_cm(a: dict) -> int:
    p = presets.cm_preset(a["preset"], a["nmax"])
    report = ex.cameron_martin_experiment(**_preset_run(p, a), seed=_seed(a),
                                          n_threads=a["threads"])
    _emit(a, {"kind": "cameron_martin", "preset": a["preset"],
              "report": to_jsonable(report)})
    ok = report.identities_pass and report.blowup_count == 0
    return EXIT_OK if ok else EXIT_FLAGGED


def _run_dichotomy(a: dict) -> int:
    if a["subcommand"] == "kakutani":
        verdict = ms.kakutani_power_law(a["u_decay"], a["v_decay"], a["nmax"])
    else:
        verdict = ms.feldman_hajek_statistic(a["beta"], a["gamma"], n_max=a["nmax"])
    _emit(a, {"kind": "dichotomy", "mode": a["subcommand"], "report": to_jsonable(verdict)})
    return EXIT_OK


def _run_ldp(a: dict) -> int:
    base = _field_spec_from_args(a)
    n = a["nmax"]
    if abs(a["center_mode"]) > n:
        raise ValueError(f"--center-mode {a['center_mode']} is outside the band |n| <= {n}")
    modes = {a["center_mode"], -a["center_mode"]} if a["real"] else {a["center_mode"]}
    center = field_from_modes(n, dict.fromkeys(modes, a["center_value"]), a["real"])
    v0 = zero_field(n, a["real"])
    epsilons = [float(e) for e in a["epsilons"].split(",")]
    m_counts = [int(v) for v in str(a["samples"]).split(",")]
    if len(m_counts) == 1:
        m_counts = m_counts[0]
    report = ex.ldp_mc(v0, base, center, a["radius"], a["s"],
                       epsilons, m_counts, _seed(a), n_threads=a["threads"])
    _emit(a, {"kind": "ldp", "report": to_jsonable(report)},
          (("epsilon", "p_hat", "ci_lo", "ci_hi", "eps2_log", "oracle"),
           [(pt.epsilon, pt.p_hat, pt.ci_lo, pt.ci_hi, pt.eps2_log, report.oracle)
            for pt in report.points]))
    return EXIT_OK if report.trend_ok else EXIT_FLAGGED


def _run_entropy_check(a: dict) -> int:
    cells = a["cells"]
    if not 1 <= cells <= ms.MAX_GRID_CELLS:  # before the grid takes memory
        raise ValueError(f"--cells must be >= 1 and <= {ms.MAX_GRID_CELLS}, got {cells}")
    span = a["span"]
    q = np.linspace(-span, span, cells, endpoint=False) + span / cells
    h = q ** 2 / 2.0 if a["hamiltonian"] == "gaussian" else q ** 4
    report = ms.entropy_check_finite_dim(
        h, a["beta"], 2.0 * span / cells,
        n_directions=a["directions"], seed=_seed(a),
    )
    _emit(a, {"kind": "entropy_check", "hamiltonian": a["hamiltonian"],
              "report": to_jsonable(report)})
    ok = report.all_nonincreasing and report.strict_decrease
    return EXIT_OK if ok else EXIT_FLAGGED


_HANDLERS = {
    "sample": _run_sample,
    "evolve": _run_evolve,
    "invariance": _run_invariance,
    "cm": _run_cm,
    "kakutani": _run_dichotomy,
    "feldman-hajek": _run_dichotomy,
    "ldp": _run_ldp,
    "entropy-check": _run_entropy_check,
}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gibbsflow",
        description=__doc__,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument("--config", default=None,
                        help="rerun from a saved <out>.config.json file")
    parser.add_argument("--out", default=None, dest="top_out",
                        help="with --config: override the recorded output path")
    sub = parser.add_subparsers(dest="subcommand")

    def subcommand(name, summary):
        # allow_abbrev=False: a prefix such as --evolve must not silently
        # stand for --evolve-samples.
        return sub.add_parser(name, help=summary, allow_abbrev=False,
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    # Each subcommand offers only the options its handler reads: --seed
    # and --stream where it draws random numbers, --csv where it has a
    # table, --threads where it has parallel work.
    def common(p, seed=True, csv=False, threads=False):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="base seed")
            p.add_argument("--stream", type=int, default=0, help="stream index")
        p.add_argument("--out", default=None, help="output JSON path (stdout if unset)")
        if csv:
            p.add_argument("--csv", default=None, help="optional CSV output path")
        if threads:
            p.add_argument("--threads", type=_thread_count, default=default_threads(),
                           help="worker threads (results identical for any count)")

    p = subcommand("sample", "draw one random field")
    p.add_argument("--family", choices=["fwa", "fwb", "white"], default="fwb")
    p.add_argument("--alpha", type=_finite_float, default=1.0)
    p.add_argument("--nmax", type=int, default=64)
    p.add_argument("--real", action="store_true", help="real-valued field")
    p.add_argument("--mean-zero", dest="mean_zero", action="store_true",
                   help="exclude the zero mode")
    common(p)

    p = subcommand("evolve", "integrate one initial field")
    p.add_argument("--eq", choices=["nls", "wick-nls", "gkdv"], required=True)
    p.add_argument("--p", type=int, default=4, help="nonlinearity power")
    p.add_argument("--sign", choices=["plus", "minus"], default="plus")
    p.add_argument("--galerkin", action="store_true",
                   help="re-truncate the nonlinearity to the data band")
    p.add_argument("--nmax", type=int, default=None,
                   help="re-truncate the initial field before evolving")
    p.add_argument("--dt", type=_finite_float, required=True)
    p.add_argument("--t", type=_finite_float, required=True, help="final time")
    p.add_argument("--record-every", dest="record_every", type=int, default=0)
    p.add_argument("--init", required=True, help="initial field JSON file")
    common(p, seed=False)

    p = subcommand("invariance", "two-ensemble invariance test")
    p.add_argument("--preset", choices=sorted(presets.INVARIANCE_PRESETS),
                   default="kdv-white-noise")
    p.add_argument("--nmax", type=int, default=None, help="override truncation")
    p.add_argument("--samples", type=int, default=None, help="override sample count")
    p.add_argument("--t", type=_finite_float, default=None, help="override horizon")
    p.add_argument("--dt", type=_finite_float, default=None, help="override time step")
    p.add_argument("--alpha", type=_finite_float, default=None,
                   help="override rejection level")
    common(p, csv=True, threads=True)

    p = subcommand("cm", "shift-identity and shifted-data experiment")
    p.add_argument("--preset", choices=sorted(presets.CM_PRESETS),
                   default="theorem-1")
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--t", type=_finite_float, default=None)
    p.add_argument("--dt", type=_finite_float, default=None)
    p.add_argument("--evolve-samples", dest="evolve_samples", type=int, default=None)
    common(p, threads=True)

    p = subcommand("kakutani", "shift dichotomy for power-law coefficients")
    p.add_argument("--u-decay", dest="u_decay", type=_finite_float, default=1.0)
    p.add_argument("--v-decay", dest="v_decay", type=_finite_float, default=1.4)
    p.add_argument("--nmax", type=int, default=100000)
    common(p, seed=False)

    p = subcommand("feldman-hajek", "dichotomy for two scaled Gaussian measures")
    p.add_argument("--beta", type=_finite_float, default=1.0)
    p.add_argument("--gamma", type=_finite_float, default=2.0)
    p.add_argument("--nmax", type=int, default=100000)
    common(p, seed=False)

    p = subcommand("ldp", "small-noise hit-probability study")
    p.add_argument("--family", choices=["fwa", "fwb", "white"], default="fwb")
    p.add_argument("--alpha", type=_finite_float, default=1.0)
    p.add_argument("--real", action="store_true")
    p.add_argument("--mean-zero", dest="mean_zero", action="store_true")
    p.add_argument("--nmax", type=int, default=0)
    p.add_argument("--center-mode", dest="center_mode", type=int, default=0)
    p.add_argument("--center-value", dest="center_value", type=_finite_float, default=1.0)
    p.add_argument("--radius", type=_finite_float, default=0.3)
    p.add_argument("--s", type=_finite_float, default=0.0)
    p.add_argument("--epsilons", default="0.5,0.35,0.25")
    p.add_argument("--samples", default="200000",
                   help="per-epsilon sample count (single value or comma list)")
    common(p, csv=True, threads=True)

    p = subcommand("entropy-check", "entropy maximization on a grid")
    p.add_argument("--hamiltonian", choices=["gaussian", "quartic"],
                   default="gaussian")
    p.add_argument("--beta", type=_finite_float, default=1.0)
    p.add_argument("--cells", type=int, default=4096)
    p.add_argument("--span", type=_finite_float, default=8.0)
    p.add_argument("--directions", type=int, default=20)
    common(p)

    return parser


def _resolved(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("config", "top_out")}


def _replay(parser: _Parser, path: str, out: str | None) -> dict:
    """The resolved args of a config sidecar, re-parsed by the subcommand's
    own parser so its types and checks apply.  A value that does not parse
    back to itself, an unknown key or a missing key exits 1."""
    saved = json.loads(Path(path).read_text())
    resolved = saved.get("resolved_args") if isinstance(saved, dict) else None
    if not isinstance(resolved, dict) or resolved.get("subcommand") not in _HANDLERS:
        parser.error(f"config {path}: no resolved_args for a known subcommand")
    if out is not None:
        resolved["out"] = out
    argv = [resolved["subcommand"]]
    for key, value in resolved.items():
        if key != "subcommand" and value is not None and value is not False:
            flag = "--" + key.replace("_", "-")
            argv.append(flag if value is True else f"{flag}={value}")
    replayed = _resolved(parser.parse_args(argv))
    bad = sorted(k for k in replayed.keys() | resolved.keys()
                 if k not in replayed or k not in resolved
                 or replayed[k] != resolved[k]
                 or isinstance(replayed[k], bool) != isinstance(resolved[k], bool))
    if bad:
        parser.error(f"config {path}: bad, unknown or missing values: {', '.join(bad)}")
    return replayed


def main(argv=None) -> int:
    try:
        # Building the parser reads GIBBSFLOW_THREADS, which may be bad.
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            resolved = _replay(parser, args.config, args.top_out)
        elif args.subcommand is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        else:
            resolved = _resolved(args)
        del parser  # argparse leaves it in reference cycles: free them before the run
        gc.collect(1)
        return _HANDLERS[resolved["subcommand"]](resolved)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        print(f"gibbsflow: error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
