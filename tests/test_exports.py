"""Every name the package and its modules export resolves, so a stale
entry in an `__all__` fails here rather than at a user's import."""

import importlib
import pkgutil

import pytest

import hbgraph

MODULES = ["hbgraph"] + sorted(f"hbgraph.{m.name}" for m in pkgutil.iter_modules(hbgraph.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    assert [x for x in module.__all__ if not hasattr(module, x)] == []
