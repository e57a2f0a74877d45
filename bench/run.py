"""gibbsflow benchmark: time, check and optionally trace one workload.

    python3 bench/run.py --workload kdv-white-noise --seed 2026 \\
        --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src`` (pure Python, nothing to build).  Each pass of the workload runs
in a fresh interpreter (``passproc.py``); passes repeat while the next
one is likely to end within ``--seconds``, and interpreters that only set
up fill the rest.  With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported, with the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Outputs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from workloads import PINNED_SEED, WORKLOADS, commands  # noqa: E402

MIN_SETUP_SAMPLES = 5
RUN_DEADLINE_S = 165.0  # no child starts after this; each is killed by 170 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=PINNED_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--threads", type=int, default=len(os.sched_getaffinity(0)),
                   help="--threads given to the CLI (default: usable cores)")
    args = p.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])
    return args


def _spawn(mode: str, args, work_dir: Path, k: int, env: dict, timeout: float):
    """Run one child; returns (result dict or None, setup seconds, error)."""
    result_path = work_dir / f"pass-{k}.json"
    cmd = [sys.executable, str(BENCH / "passproc.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--threads", str(args.threads), "--mode", mode,
           "--result", str(result_path),
           "--spans", str(work_dir / f"spans-{k}.json")]
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, None, f"{mode} pass {k} timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result_path.is_file():
        return None, None, f"{mode} pass {k} exited with code {proc.returncode}"
    result = json.loads(result_path.read_text())
    return result, result["ready"] - t_spawn, None


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "gibbsflow" / "cli.py").is_file():
        print(f"bench: no gibbsflow sources under {ROOT / 'src'}; run from the"
              " root of a source checkout", file=sys.stderr)
        return 2
    work_dir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    n_ops = len(commands(args.workload, args.seed, args.threads, work_dir))

    problems: list[str] = []
    setups: list[float] = []
    plain: list[dict] = []
    traced: list[tuple[dict, Path]] = []
    attempted = failed = 0
    digests: dict[str, set] = {}

    start = time.monotonic()
    took: dict[str, list] = {"plain": [], "traced": [], "setup": []}

    def spawn(mode: str, k: int) -> bool:
        """Run and record one child; False when it failed to report."""
        nonlocal attempted, failed
        t0 = time.monotonic()
        result, setup, error = _spawn(mode, args, work_dir, k, env,
                                      RUN_DEADLINE_S + 5.0 - (t0 - start))
        took[mode].append(time.monotonic() - t0)
        if mode != "setup":
            attempted += n_ops
        if error is not None:
            problems.append(error)
            failed += n_ops if mode != "setup" else 0
            return False
        setups.append(setup)
        if mode == "setup":
            return True
        for op in result["ops"]:
            if op["failures"]:
                failed += 1
                problems.extend(f"{op['label']}: {msg}" for msg in op["failures"])
            digests.setdefault(op["label"], set()).add(op["digest"])
        if mode == "plain":
            plain.append(result)
        else:
            traced.append((result, work_dir / f"spans-{k}.json"))
            if result["missing"]:
                print(f"bench: layer functions not found: {result['missing']}",
                      file=sys.stderr)
        return True

    def fits(mode: str) -> bool:
        """Whether another child of ``mode`` is likely to end within the run."""
        # Before its first set-up-only child, one is assumed to take the
        # longest set-up seen in a pass plus half a second to exit.
        longest = max(took[mode]) if took[mode] else max(setups) + 0.5
        return time.monotonic() - start + longest <= args.seconds

    # Whole passes while the next one is likely to end within --seconds,
    # at least one of each mode the run reports; a pass that fails ends the
    # run.  Then fresh interpreters that only set up fill the rest of the
    # run, so every run measures for about --seconds and set-up time gets
    # at least MIN_SETUP_SAMPLES samples.
    k = 0
    while True:
        mode = "traced" if args.trace and k % 2 == 1 else "plain"
        ok = spawn(mode, k)
        k += 1
        next_mode = "traced" if args.trace and k % 2 == 1 else "plain"
        have_all = plain and (traced or not args.trace)
        if not ok or (have_all and not fits(next_mode)):
            break
        if time.monotonic() - start + max(took["plain"]) > RUN_DEADLINE_S:
            problems.append("passes too slow to fit one of each mode in a run")
            break
    while ok and time.monotonic() - start + max(setups) < RUN_DEADLINE_S and \
            (len(setups) < MIN_SETUP_SAMPLES or fits("setup")):
        ok = spawn("setup", k)
        k += 1

    for label, seen in digests.items():
        if len(seen) != 1:
            problems.append(f"{label}: report bytes differ between passes")

    plain_wall = _median([r["wall_s"] for r in plain])
    if args.trace:
        per_pass = [spans.layer_metrics(json.loads(path.read_text()))
                    for _, path in traced]
        for key in spans.EXACT_COUNTS:
            if len({m[key] for m in per_pass}) > 1:
                problems.append(f"{key} differs between traced passes")
        metrics = {name: {"value": _median([m[name] for m in per_pass]),
                          "unit": unit}
                   for name, unit, _ in spans.LAYER_METRICS
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {
            "value": _median([r["wall_s"] for r, _ in traced]) - plain_wall,
            "unit": "s"}
    else:
        values = {"setup_s": _median(setups), "wall_s": plain_wall,
                  "peak_rss_mib": _median([r["peak_rss_mib"] for r in plain])}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    print(f"bench: {len(plain)} plain and {len(traced)} traced passes,"
          f" {len(setups)} set-up samples in {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    for msg in problems[:20]:
        print(f"bench: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
