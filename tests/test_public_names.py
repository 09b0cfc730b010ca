"""The public surface: every name a module of gammapick exports resolves."""

import importlib
import pkgutil

import pytest

import gammapick

_MODULES = ["gammapick", *(f"gammapick.{m.name}" for m in pkgutil.iter_modules(gammapick.__path__))]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
