"""Tests for canonical serialization."""

import json

import numpy as np
import pytest

from gibbsflow.serialize import canonical_dumps, to_jsonable


def test_non_finite_values_become_strings():
    inf, nan = float("inf"), float("nan")
    payload = {"f": [inf, -inf, nan, 1.5], "np": np.array([np.inf, 2.0]),
               "z": complex(-inf, nan), "zs": np.array([1 + 2j])}
    assert to_jsonable(payload) == {
        "f": ["Infinity", "-Infinity", "NaN", 1.5],
        "np": ["Infinity", 2.0],
        "z": ["-Infinity", "NaN"],
        "zs": [[1.0, 2.0]],
    }
    text = canonical_dumps(payload)
    json.loads(text, parse_constant=pytest.fail)


def test_numpy_bools_and_integers_become_python_scalars():
    got = to_jsonable({"flag": np.bool_(True), "count": np.int64(3),
                       "small": np.uint8(7)})
    assert got == {"flag": True, "count": 3, "small": 7}
    assert type(got["flag"]) is bool
    assert type(got["count"]) is int and type(got["small"]) is int
