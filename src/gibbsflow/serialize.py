"""Canonical JSON / CSV serialization for reports and fields.

Every JSON document carries schema_version; dumps are sorted and
indented so byte-identical output certifies byte-identical content.
Output is strict JSON: non-finite floats are written as the strings
"Infinity", "-Infinity" and "NaN".
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np

SCHEMA_VERSION = "2"

__all__ = [
    "SCHEMA_VERSION",
    "to_jsonable",
    "canonical_dumps",
    "write_csv",
]


def to_jsonable(obj):
    """Recursively convert reports, arrays, and complex scalars to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _json_float(float(obj))
    if isinstance(obj, complex):
        return [_json_float(obj.real), _json_float(obj.imag)]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    return obj


def _json_float(x: float):
    """x itself when finite, else its name as a string."""
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def canonical_dumps(payload) -> str:
    return json.dumps(to_jsonable(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])
