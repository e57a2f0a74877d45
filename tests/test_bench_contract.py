"""The benchmark's contract with the program, at reduced size.

``bench/workloads.py`` runs CLI commands, wraps some ``gibbsflow.experiments``
names with capture hooks (``CAPTURED``) and checks the reports and the
captured calls (``verify_op``).  Here each workload's commands run smaller
and at a seed other than the pinned one, with the same hooks and checks,
so a renamed report key, function or argument fails in the test suite.
The bench modules are only imported, and no bytecode is written for them.
"""

import importlib
import sys
from pathlib import Path

import pytest

import gibbsflow.experiments as ex
from gibbsflow.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
# Not the pinned seed: verdicts may go either way (exit code 0 or 2), but
# every report key and captured call must still pass its check.
SEED = 7
THREADS = 2
# Appended to each command; argparse keeps an option's last value.  The
# shift presets keep N = 32, as their checks recompute the shift norm from
# the preset at its default truncation, and wick keeps its 512 samples, as
# its ESS check is relative to them.
REDUCED = {
    "kdv-white-noise": ["--nmax", "16", "--samples", "200"],
    "wick-nls-gibbs": ["--nmax", "8", "--t", "0.02"],
    "shift-theorems": ["--samples", "500", "--t", "0.01"],
}


def _bench_module(name: str):
    saved = sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", sorted(REDUCED))
def test_reduced_workload_passes_its_checks(workload, tmp_path, monkeypatch):
    workloads = _bench_module("workloads")
    assert set(REDUCED) == set(workloads.WORKLOADS)
    sink = {}

    def capture(fn, name, reduce):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.setdefault(name, []).append(reduce(args, kwargs, result))
            return result
        return wrapped

    for name, reduce in workloads.CAPTURED[workload].items():
        monkeypatch.setattr(ex, name, capture(getattr(ex, name), name, reduce))
    commands = workloads.commands(workload, SEED, THREADS, tmp_path)
    assert commands
    for label, argv, path in commands:
        sink.clear()
        rc = main(argv + REDUCED[workload])
        text = Path(path).read_text()
        assert workloads.verify_op(workload, label, SEED, rc, text, sink) == [], label
