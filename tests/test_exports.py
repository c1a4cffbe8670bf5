"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import fibresum


def test_star_import():
    namespace: dict = {}
    exec("from fibresum import *", namespace)
    assert set(fibresum.__all__) <= set(namespace)


@pytest.mark.parametrize("name", [info.name for info in pkgutil.iter_modules(fibresum.__path__)])
def test_submodule_all(name):
    module = importlib.import_module(f"fibresum.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
