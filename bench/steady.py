"""Steadiness check: run every workload repeatedly and report the spread.

    python3 bench/steady.py --runs 10 --first-seed 1 --save set1.json
    python3 bench/steady.py --runs 10 --first-seed 101 --against set1.json

Each run is ``bench/run.py`` with its own seed.  Per workload and
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json.  With
``--against`` it also prints how far each median moved from the saved
set, and whether the share of failed operations is the same.  Exit code 1
when a spread (other than setup_s) or a median shift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _parse(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save", default=None, help="write the raw values as JSON")
    p.add_argument("--against", default=None, help="compare with a saved set")
    return p.parse_args(argv), spec


def _one_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    args, spec = _parse(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    raw = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = _one_run(workload, seed)
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " +
                  " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()),
                  flush=True)
            runs.append(res)
        raw[workload] = {
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "correct": [r["correct"] for r in runs],
            **{name: [r["metrics"][name]["value"] for r in runs] for name in metrics},
        }
    if args.save:
        Path(args.save).write_text(json.dumps(raw, indent=1))
    old = json.loads(Path(args.against).read_text()) if args.against else None

    ok = True
    print(f"\n{'workload':16} {'metric':13} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict" + ("   shift" if old else ""))
    for workload, cols in raw.items():
        for name, m in metrics.items():
            med, q1, q3, sp = spread(cols[name])
            gated = name != "setup_s"
            verdict = ("ok" if sp <= m["bound"] else "WIDE") if gated else "not gated"
            ok &= verdict != "WIDE"
            line = (f"{workload:16} {name:13} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                    f"{sp:7.3f} {m['bound']:6.2f}  {verdict}")
            if old and workload in old:
                before = statistics.median(old[workload][name])
                shift = (med - before) / before
                worse = shift if m["better"] == "lower" else -shift
                line += f"   {shift:+.3f}" + (" WORSE" if worse > m["bound"] else "")
                ok &= worse <= m["bound"]
            print(line)
        shares = sorted(set(cols["failed_share"]))
        same = old is None or workload not in old or \
            shares == sorted(set(old[workload]["failed_share"]))
        ok &= len(shares) == 1 and same and all(cols["correct"])
        print(f"{workload:16} failed share {shares} correct={all(cols['correct'])}"
              + ("" if same else " DIFFERS from the saved set"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
