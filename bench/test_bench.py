"""Self-tests of the benchmark: each check must fail on broken input, and
the span arithmetic must match hand-computed values.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _real_white_rows(m: int, n_max: int, rng) -> np.ndarray:
    pos = (rng.standard_normal((m, n_max)) + 1j * rng.standard_normal((m, n_max)))
    pos /= math.sqrt(2.0)
    rows = np.zeros((m, 2 * n_max + 1), dtype=np.complex128)
    rows[:, n_max + 1:] = pos
    rows[:, :n_max] = np.conj(pos[:, ::-1])
    return rows


# --- strict JSON ------------------------------------------------------------

@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
def test_strict_loads_rejects_non_finite(token):
    with pytest.raises(ValueError):
        checks.strict_loads('{"report": {"x": %s}}' % token)


def test_strict_loads_accepts_finite():
    assert checks.strict_loads('{"x": [1.5, null, 2e-300]}') == {"x": [1.5, None, 2e-300]}


def test_verify_op_fails_on_infinity_report():
    text = '{"report": {"blowup_count": 0, "shift_norm_sq": Infinity}}'
    fails = workloads.verify_op("shift-theorems", "theorem-1", 7, 0, text, {})
    assert fails and "strict JSON" in fails[0]


def test_verify_op_pinned_seed_needs_exit_zero():
    fails = workloads.verify_op("kdv-white-noise", "kdv-white-noise",
                                workloads.PINNED_SEED, 2, "{}", {})
    assert fails and "exit code" in fails[0]


# --- mass, symmetry, variance, ESS ------------------------------------------

def test_mass_check_passes_on_phase_rotation_and_fails_on_perturbed_row():
    rng = np.random.default_rng(1)
    rows = _real_white_rows(50, 8, rng)
    rotated = rows * np.exp(1j * rng.uniform(0, 2 * np.pi, rows.shape[1]))
    mass = checks.row_mass(rows)
    assert checks.mass_conserved(mass, checks.row_mass(rotated)) == []
    broken = rotated.copy()
    broken[17] *= 1.0 + 1e-8
    fails = checks.mass_conserved(mass, checks.row_mass(broken))
    assert fails and "row 17" in fails[0]


def test_conjugate_symmetry_check():
    rows = _real_white_rows(20, 6, np.random.default_rng(2))
    assert checks.conjugate_symmetric(checks.conjugate_asymmetry(rows)) == []
    rows[3, 2] += 1e-6
    assert checks.conjugate_symmetric(checks.conjugate_asymmetry(rows))


def test_variance_check_fails_on_wrong_sigma_profile():
    n_max = 16
    rows = _real_white_rows(2000, n_max, np.random.default_rng(3))
    power = checks.mode_power(rows)
    assert checks.mode_variance_matches(power, checks.white_sigma(n_max)) == []
    wrong = checks.fwb_sigma(n_max, 1.0)
    wrong[n_max] = 0.0
    assert checks.mode_variance_matches(power, wrong)


def test_variance_check_fails_on_nonzero_excluded_mode():
    n_max = 4
    rows = _real_white_rows(500, n_max, np.random.default_rng(4))
    rows[0, n_max] = 1e-3
    fails = checks.mode_variance_matches(checks.mode_power(rows),
                                         checks.white_sigma(n_max))
    assert fails and "sigma_n = 0" in fails[0]


def test_ess_range():
    assert checks.ess_in_range(300.0, 512) == []
    assert checks.ess_in_range(100.0, 512)
    assert checks.ess_in_range(600.0, 512)
    assert checks.ess_in_range(None, 512)


# --- shift norm -------------------------------------------------------------

def test_shift_norm_hand_values():
    # One complex mode n=1 with sigma=1 and v=a: 2|a|^2.
    v = np.array([0, 0, 0.3 + 0.4j])
    sig = np.ones(3)
    assert checks.shift_norm_sq(v, sig, real_valued=False) == pytest.approx(0.5)
    # A real field pairs n=+-1: the same 2|a|^2 from the two entries.
    v_real = np.array([0.3 - 0.4j, 0, 0.3 + 0.4j])
    assert checks.shift_norm_sq(v_real, checks.white_sigma(1), True) == pytest.approx(0.5)


def test_shift_norm_detects_wrong_sigma():
    v = np.zeros(65, dtype=complex)
    v[32 - 8: 32 + 9] = 0.5 * (1.0 + np.abs(np.arange(-8, 9))) ** -3.0
    right = checks.shift_norm_sq(v, checks.fwb_sigma(32, 0.45), False)
    wrong = checks.shift_norm_sq(v, checks.fwb_sigma(32, 1.0), False)
    assert checks.close_rel("n", right, right, 1e-12) == []
    assert checks.close_rel("n", wrong, right, 1e-12)


def test_shift_norm_rejects_mass_on_dead_mode():
    v = np.array([0, 1.0, 0])
    with pytest.raises(ValueError):
        checks.shift_norm_sq(v, checks.white_sigma(1), True)


# --- span arithmetic --------------------------------------------------------

def test_self_times_hand_built_tree():
    tree = [
        [1, "root", 0, 0.0, 10.0],
        [2, "a", 1, 1.0, 4.0],      # overlaps b: children ran on two threads
        [3, "b", 1, 3.0, 6.0],
        [4, "c", 2, 2.0, 3.0],
        [5, "d", 1, 9.0, 12.0],     # runs past its parent's end: clipped
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_layer_metrics_from_doc():
    doc = {
        "import_s": 1.25,
        "spans": [
            [1, "cli.main", 0, 0.0, 10.0],
            [2, "measures.gibbs_ensemble", 1, 1.0, 9.0],
            [3, "parallel.map_chunks", 2, 2.0, 8.0],
            [4, "measures.gibbs_ensemble", 3, 2.0, 7.0],   # chunk body, thread 1
            [5, "measures.gibbs_ensemble", 3, 2.5, 7.5],   # chunk body, thread 2
            [6, "measures.potential", 4, 3.0, 5.0],
            [7, "measures.potential", 5, 4.0, 6.0],
        ],
        "counts": {"measures.potential.rows": 2000, "parallel.chunks": 2},
        "values": {"measures.ess": [300.0, 340.0]},
    }
    m = spans.layer_metrics(doc)
    assert m["cli.import_s"] == 1.25
    assert m["cli.main.self_s"] == pytest.approx(2.0)
    # outer 8 - 6 covered, plus chunk bodies 5 - 2 and 5 - 2
    assert m["measures.gibbs_ensemble.self_s"] == pytest.approx(2.0 + 3.0 + 3.0)
    assert m["parallel.map_chunks.wall_s"] == pytest.approx(6.0)
    assert m["measures.potential.self_s"] == pytest.approx(4.0)
    assert m["measures.potential.rows_per_s"] == pytest.approx(2000 / 4.0)
    assert m["measures.ess_per_kpotential"] == pytest.approx(320.0 / 2.0)
    assert m["stats.bootstrap.reps_per_s"] == 0.0


def test_tracer_links_worker_threads_to_explicit_parent():
    tr = spans.Tracer()
    outer = tr.open("parallel.map_chunks")

    def body():
        rec = tr.open("measures.gibbs_ensemble", parent=outer[0])
        inner = tr.open("measures.potential")
        time.sleep(0.01)
        tr.close(inner)
        tr.close(rec)

    workers = [threading.Thread(target=body) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
        assert not w.is_alive()
    tr.close(outer)
    by_name = {}
    for sid, name, parent, *_ in tr.spans:
        by_name.setdefault(name, []).append((sid, parent))
    chunk_ids = {sid for sid, parent in by_name["measures.gibbs_ensemble"]
                 if parent == outer[0]}
    assert len(chunk_ids) == 2
    assert {parent for _, parent in by_name["measures.potential"]} == chunk_ids


def test_tracer_folds_recursion():
    tr = spans.Tracer()
    a = tr.open("serialize.dumps")
    assert tr.open("serialize.dumps") is None
    tr.close(a)
    assert len(tr.spans) == 1


# --- the benchmark's own contract -------------------------------------------

def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(x) for x in spans.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kdv-white-noise",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
