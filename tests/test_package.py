"""Tests for the package's public names."""

import importlib
import pkgutil

import pytest

import gibbsflow

# Importing __main__ runs the command line.
MODULES = ["gibbsflow"] + [f"gibbsflow.{m.name}" for m in pkgutil.iter_modules(gibbsflow.__path__)
                           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
