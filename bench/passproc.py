"""One pass of a workload, in the fresh interpreter it measures.

``run.py`` starts this file once per pass with ``src`` on PYTHONPATH:

    python3 bench/passproc.py --workload kdv-white-noise --seed 2026 \\
        --threads 2 --mode plain --result out.json [--spans spans.json]

Mode ``setup`` stops once ``gibbsflow.cli`` is imported and has answered
``--help``; ``plain`` then runs the workload's commands through
``gibbsflow.cli.main(argv)``; ``traced`` does the same with every layer
instrumented and writes the spans to ``--spans`` at the end.  The result
file holds the ready time (CLOCK_MONOTONIC, comparable with the parent's),
the wall time of the commands, the peak RSS and each command's checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time
import traceback
from pathlib import Path


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "plain", "traced"], required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    import gibbsflow.cli as cli
    import_s = time.perf_counter() - t0
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(["--help"])
        except SystemExit:
            pass
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready, "import_s": import_s, "program": cli.__file__}
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(result))
        return 0

    import spans
    import workloads

    out_dir = Path(args.result).parent / "reports"
    out_dir.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.mode == "traced" else None
    sink = [{}]

    def capture(name, reduce):
        def keep(a, k, r):
            sink[0].setdefault(name, []).append(reduce(a, k, r))
        return keep

    result["missing"] = spans.instrument(
        tracer, {name: capture(name, reduce)
                 for name, reduce in workloads.CAPTURED[args.workload].items()})

    runs = []
    wall = 0.0
    for label, cmd, path in workloads.commands(args.workload, args.seed,
                                                args.threads, out_dir):
        sink[0] = {}
        error = None
        rec = tracer.open("cli.main") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            rc = cli.main(cmd)
        except SystemExit as stop:
            rc = stop.code
        except Exception:
            rc, error = None, traceback.format_exc()
        finally:
            op_wall = time.perf_counter() - t0
            wall += op_wall
            if rec is not None:
                tracer.close(rec)
        runs.append((label, path, rc, error, sink[0], op_wall))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Everything below runs after the clock has stopped.
    ops = []
    for label, path, rc, error, captured, op_wall in runs:
        text = Path(path).read_text() if Path(path).is_file() else None
        if error is not None:
            fails = [error]
        elif text is None:
            fails = [f"no report written (exit code {rc!r})"]
        else:
            fails = workloads.verify_op(args.workload, label, args.seed, rc,
                                        text, captured)
        digest = hashlib.sha256(text.encode()).hexdigest() if text else None
        ops.append({"label": label, "rc": rc, "wall_s": op_wall,
                    "failures": fails, "digest": digest})
    result.update(wall_s=wall, peak_rss_mib=peak_rss_mib, ops=ops)
    if tracer is not None:
        tracer.dump(args.spans, import_s=import_s, wall_s=wall)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
