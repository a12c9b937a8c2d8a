"""Package surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import shiftpose

MODULES = [m.name for m in pkgutil.iter_modules(shiftpose.__path__, "shiftpose.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
