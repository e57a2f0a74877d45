"""In-memory span recorder, layer instrumentation and per-layer metrics.

A span is ``(id, name, parent_id, start, end)`` with times from
``time.perf_counter``; parent 0 means "no parent".  Spans live in memory
while a pass runs and are written to one JSON file when it ends.  The
per-layer metrics are derived from that file alone.

Instrumentation replaces a public function at every name the
``gibbsflow`` modules hold it by (``gibbsflow.experiments.evolve_ensemble``
and ``gibbsflow.integrators.evolve_ensemble`` alike), so the program's own
files stay untouched and a caller added later is still seen.
"""

from __future__ import annotations

import inspect
import itertools
import json
import resource
import sys
import threading
from time import perf_counter

__all__ = [
    "Tracer",
    "instrument",
    "self_times",
    "layer_metrics",
    "LAYER_METRICS",
]


class Tracer:
    """Spans with parent links plus counters, shared by all threads."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.values: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent: int | None = None):
        """Start a span; returns None when the innermost open span on this
        thread already has this name (recursion folds into one span)."""
        stack = self._stack()
        if parent is None:
            if stack and stack[-1][1] == name:
                return None
            parent = stack[-1][0] if stack else 0
        rec = (next(self._ids), name, parent, perf_counter())
        stack.append(rec)
        return rec

    def close(self, rec) -> None:
        end = perf_counter()
        self._stack().pop()
        # Finished spans are tuples of atoms, which the garbage collector
        # stops scanning, so a long trace does not slow collections down.
        self.spans.append((rec[0], rec[1], rec[2], rec[3], end))

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def note(self, key: str, value) -> None:
        with self._lock:
            self.values.setdefault(key, []).append(value)

    def dump(self, path, **extra) -> None:
        doc = {"spans": self.spans, "counts": self.counts,
               "values": self.values, **extra}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_SIGNATURES: dict = {}


def _arg(fn, args, kwargs, name):
    """Argument ``name`` of a call, defaults applied."""
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# ---------------------------------------------------------------------------
# What each layer boundary records.  ``after(tracer, fn, args, kwargs,
# result)`` runs once the call has returned.
# ---------------------------------------------------------------------------

def _count_bytes(tr, fn, args, kwargs, result):
    tr.add("serialize.report_bytes", len(result.encode("utf-8")))


def _count_generator(tr, fn, args, kwargs, result):
    tr.add("rng.generator.calls", 1)


def _count_rows(key):
    def after(tr, fn, args, kwargs, result):
        tr.add(key, result.shape[0])
    return after


def _count_synth_points(tr, fn, args, kwargs, result):
    tr.add("spectral.transform.points", result.size)


def _count_analyze_points(tr, fn, args, kwargs, result):
    tr.add("spectral.transform.points", _arg(fn, args, kwargs, "values").size)


def _count_potential_rows(tr, fn, args, kwargs, result):
    tr.add("measures.potential.rows", _arg(fn, args, kwargs, "coeffs").shape[0])


def _note_ess(tr, fn, args, kwargs, result):
    tr.note("measures.ess", float(result.ess))


def _count_chunks(tr, fn, args, kwargs, result):
    tr.add("parallel.chunks", len(result))


def _count_row_steps(tr, fn, args, kwargs, result):
    rows = _arg(fn, args, kwargs, "coeffs").shape[0]
    cfg = _arg(fn, args, kwargs, "cfg")
    steps = max(1, int(round(abs(cfg.t_final) / cfg.dt)))
    tr.add("integrators.evolve.row_steps", rows * steps)
    grid = getattr(cfg, "grid", None)
    if grid is not None:
        tr.note("integrators.evolve.grid_m", int(grid.m_points))


def _count_reps(tr, fn, args, kwargs, result):
    tr.add("stats.bootstrap.reps", int(_arg(fn, args, kwargs, "reps")))


# (defining module, function, span name, after-call hook, record RSS rise)
LAYERS = [
    ("gibbsflow.serialize", "to_jsonable", "serialize.dumps", None, False),
    ("gibbsflow.serialize", "canonical_dumps", "serialize.dumps", _count_bytes, False),
    ("gibbsflow.experiments", "invariance_experiment", "experiments", None, False),
    ("gibbsflow.experiments", "cameron_martin_experiment", "experiments", None, False),
    ("gibbsflow.rng", "generator", "rng.generator", _count_generator, False),
    ("gibbsflow.fields", "sample_ensemble", "fields.sample_ensemble",
     _count_rows("fields.sample_ensemble.rows"), False),
    ("gibbsflow.fields", "sample_matrix", "fields.sample_matrix",
     _count_rows("fields.sample_matrix.rows"), False),
    ("gibbsflow.spectral", "synthesize", "spectral.transform", _count_synth_points, False),
    ("gibbsflow.spectral", "analyze", "spectral.transform", _count_analyze_points, False),
    ("gibbsflow.measures", "gibbs_ensemble", "measures.gibbs_ensemble", _note_ess, False),
    ("gibbsflow.measures", "gibbs_log_weight_matrix", "measures.potential",
     _count_potential_rows, False),
    ("gibbsflow.measures", "cameron_martin_log_density_matrix", "measures.cm_density",
     None, False),
    ("gibbsflow.parallel", "map_chunks", "parallel.map_chunks", _count_chunks, False),
    ("gibbsflow.integrators", "evolve_ensemble", "integrators.evolve",
     _count_row_steps, True),
    ("gibbsflow.stats", "weighted_ks_bootstrap", "stats.bootstrap", _count_reps, True),
    ("gibbsflow.stats", "ks_two_sample", "stats.ks", None, False),
]


def _wrap(fn, name, tracer, after, rss, capture):
    def traced(*args, **kwargs):
        if tracer is None:
            result = fn(*args, **kwargs)
            capture(args, kwargs, result)
            return result
        if name == "parallel.map_chunks":
            caller = tracer.current()
            rec = tracer.open(name)
            if rec is not None:
                owner = caller[1] if caller is not None else "parallel.chunk"
                args = (_chunk_body(tracer, args[0], owner, rec[0]),) + args[1:]
        else:
            rec = tracer.open(name)
        r0 = _maxrss_mib() if rec is not None and rss else 0.0
        try:
            result = fn(*args, **kwargs)
        finally:
            if rec is not None:
                tracer.close(rec)
        if rec is not None and rss:
            tracer.add(name + ".rss_rise_mib", _maxrss_mib() - r0)
        if after is not None:
            after(tracer, fn, args, kwargs, result)
        if capture is not None:
            capture(args, kwargs, result)
        return result

    return traced


def _chunk_body(tracer, body, owner, parent):
    """Chunk bodies run under a span named after the layer that called
    map_chunks, parented to the map_chunks span even on worker threads."""

    def run(*args, **kwargs):
        rec = tracer.open(owner, parent=parent)
        try:
            return body(*args, **kwargs)
        finally:
            tracer.close(rec)

    return run


def instrument(tracer: Tracer | None, captures: dict | None = None) -> list[str]:
    """Wrap every layer function at every name ``gibbsflow`` modules use.

    With ``tracer`` None only the functions named in ``captures`` (function
    name -> ``capture(args, kwargs, result)``) are wrapped, and no span is
    recorded.  Returns the layer functions that were not found.
    """
    captures = captures or {}
    modules = [m for k, m in list(sys.modules.items())
               if k == "gibbsflow" or k.startswith("gibbsflow.")]
    missing = []
    for mod_name, fn_name, span, after, rss in LAYERS:
        if tracer is None and fn_name not in captures:
            continue
        home = sys.modules.get(mod_name)
        original = getattr(home, fn_name, None) if home is not None else None
        if original is None:
            missing.append(f"{mod_name}.{fn_name}")
            continue
        wrapped = _wrap(original, span, tracer, after, rss, captures.get(fn_name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
    return missing


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children on other threads may overlap each other; their union is what
    is subtracted, clipped to the parent's own interval.
    """
    by_id = {sp[0]: sp for sp in spans}
    children: dict[int, list] = {}
    for sid, _name, parent, start, end in spans:
        if parent in by_id:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, _parent, start, end in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        kids = [(s, e) for s, e in kids if e > s]
        out[sid] = (end - start) - _covered(kids)
    return out


def _top_inclusive(spans) -> dict:
    """Name -> summed duration of spans with no same-named ancestor."""
    by_id = {sp[0]: sp for sp in spans}
    out: dict[str, float] = {}
    for sid, name, parent, start, end in spans:
        p = parent
        nested = False
        while p in by_id:
            if by_id[p][1] == name:
                nested = True
                break
            p = by_id[p][2]
        if not nested:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


# (metric, unit, better) in BENCHMARK.json order; trace.overhead_s is
# filled in by run.py from the traced and untraced passes.
LAYER_METRICS = [
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("serialize.dumps_s", "s", "lower"),
    ("serialize.report_bytes", "bytes", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("rng.generator.calls", "count", "lower"),
    ("rng.generator.self_s", "s", "lower"),
    ("fields.sample_ensemble.self_s", "s", "lower"),
    ("fields.sample_ensemble.rows", "count", "lower"),
    ("fields.sample_ensemble.rows_per_s", "rows/s", "higher"),
    ("fields.sample_matrix.self_s", "s", "lower"),
    ("fields.sample_matrix.rows", "count", "lower"),
    ("spectral.transform.self_s", "s", "lower"),
    ("spectral.transform.points", "count", "lower"),
    ("spectral.transform.points_per_s", "pts/s", "higher"),
    ("measures.gibbs_ensemble.self_s", "s", "lower"),
    ("measures.potential.rows", "count", "lower"),
    ("measures.potential.self_s", "s", "lower"),
    ("measures.potential.rows_per_s", "rows/s", "higher"),
    ("measures.ess_per_kpotential", "ESS/krow", "higher"),
    ("measures.cm_density.self_s", "s", "lower"),
    ("parallel.chunks", "count", "lower"),
    ("parallel.map_chunks.wall_s", "s", "lower"),
    ("integrators.evolve.self_s", "s", "lower"),
    ("integrators.evolve.row_steps", "count", "lower"),
    ("integrators.evolve.row_steps_per_s", "row-steps/s", "higher"),
    ("integrators.evolve.grid_m", "points", "lower"),
    ("integrators.evolve.rss_rise_mib", "MiB", "lower"),
    ("stats.bootstrap.self_s", "s", "lower"),
    ("stats.bootstrap.reps", "count", "lower"),
    ("stats.bootstrap.reps_per_s", "reps/s", "higher"),
    ("stats.bootstrap.rss_rise_mib", "MiB", "lower"),
    ("stats.ks.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Counts that must repeat exactly between traced passes of one run.
EXACT_COUNTS = [
    "serialize.report_bytes",
    "rng.generator.calls",
    "fields.sample_ensemble.rows",
    "fields.sample_matrix.rows",
    "spectral.transform.points",
    "measures.potential.rows",
    "parallel.chunks",
    "integrators.evolve.row_steps",
    "integrators.evolve.grid_m",
    "stats.bootstrap.reps",
]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 and count > 0 else 0.0


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced pass from its span file contents."""
    spans = doc["spans"]
    counts = doc["counts"]
    values = doc["values"]
    own = self_times(spans)
    self_by: dict[str, float] = {}
    for sp in spans:
        self_by[sp[1]] = self_by.get(sp[1], 0.0) + own[sp[0]]
    incl = _top_inclusive(spans)

    def c(key):
        return counts.get(key, 0)

    ess = values.get("measures.ess", [])
    pot_rows = c("measures.potential.rows")
    grid = values.get("integrators.evolve.grid_m", [])
    m = {
        "cli.import_s": doc["import_s"],
        "cli.main.self_s": self_by.get("cli.main", 0.0),
        "serialize.dumps_s": incl.get("serialize.dumps", 0.0),
        "serialize.report_bytes": c("serialize.report_bytes"),
        "experiments.self_s": self_by.get("experiments", 0.0),
        "rng.generator.calls": c("rng.generator.calls"),
        "rng.generator.self_s": self_by.get("rng.generator", 0.0),
        "fields.sample_ensemble.self_s": self_by.get("fields.sample_ensemble", 0.0),
        "fields.sample_ensemble.rows": c("fields.sample_ensemble.rows"),
        "fields.sample_ensemble.rows_per_s": _rate(
            c("fields.sample_ensemble.rows"), incl.get("fields.sample_ensemble", 0.0)),
        "fields.sample_matrix.self_s": self_by.get("fields.sample_matrix", 0.0),
        "fields.sample_matrix.rows": c("fields.sample_matrix.rows"),
        "spectral.transform.self_s": self_by.get("spectral.transform", 0.0),
        "spectral.transform.points": c("spectral.transform.points"),
        "spectral.transform.points_per_s": _rate(
            c("spectral.transform.points"), incl.get("spectral.transform", 0.0)),
        "measures.gibbs_ensemble.self_s": self_by.get("measures.gibbs_ensemble", 0.0),
        "measures.potential.rows": pot_rows,
        "measures.potential.self_s": self_by.get("measures.potential", 0.0),
        "measures.potential.rows_per_s": _rate(
            pot_rows, incl.get("measures.potential", 0.0)),
        "measures.ess_per_kpotential": (
            1000.0 * sum(ess) / len(ess) / pot_rows if ess and pot_rows else 0.0),
        "measures.cm_density.self_s": self_by.get("measures.cm_density", 0.0),
        "parallel.chunks": c("parallel.chunks"),
        "parallel.map_chunks.wall_s": incl.get("parallel.map_chunks", 0.0),
        "integrators.evolve.self_s": self_by.get("integrators.evolve", 0.0),
        "integrators.evolve.row_steps": c("integrators.evolve.row_steps"),
        "integrators.evolve.row_steps_per_s": _rate(
            c("integrators.evolve.row_steps"), incl.get("integrators.evolve", 0.0)),
        "integrators.evolve.grid_m": max(grid) if grid else 0,
        "integrators.evolve.rss_rise_mib": c("integrators.evolve.rss_rise_mib"),
        "stats.bootstrap.self_s": self_by.get("stats.bootstrap", 0.0),
        "stats.bootstrap.reps": c("stats.bootstrap.reps"),
        "stats.bootstrap.reps_per_s": _rate(
            c("stats.bootstrap.reps"), incl.get("stats.bootstrap", 0.0)),
        "stats.bootstrap.rss_rise_mib": c("stats.bootstrap.rss_rise_mib"),
        "stats.ks.self_s": self_by.get("stats.ks", 0.0),
    }
    return m
